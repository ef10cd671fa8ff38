"""Exact and Monte-Carlo verifiers for classical sign/sum inequalities.

The exact engine enumerates sign patterns.  Because every quantity here
depends on signs only through the norm of a sign-odd sum, the global flip
eps -> -eps leaves it invariant, so enumeration runs over 2^(n-1)
patterns with the first sign pinned to +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProductLaw, enumerate_product, sample_outcomes
from .errors import CapacityError, ParameterError
from .rng import substream
from .stats import DEFAULT_CONFIDENCE, SlackReport, TailEstimate

SIGN_ENUMERATION_CAP = 22  # ~4M half-patterns, sub-second per instance


@dataclass(frozen=True)
class SignInstance:
    """Fixed vectors v_1..v_n together with the norm used to measure sums."""

    vectors: np.ndarray  # (n, d)
    norm: object

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "vectors", v)
        if v.shape[0] < 1:
            raise ParameterError("need at least one vector")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def _check_cap(n: int, cap: int = SIGN_ENUMERATION_CAP):
    if n > cap:
        raise CapacityError(f"{n} summands exceed the sign-enumeration cap {cap}")


def _eps_blocks(n: int, max_block: int = 1 << 14):
    """Blocks of sign patterns (rows) with the first sign fixed to +1."""
    half = 1 << (n - 1)
    block = min(half, max_block)
    shifts = np.arange(max(n - 1, 1))
    for start in range(0, half, block):
        idx = np.arange(start, min(start + block, half), dtype=np.int64)
        eps = np.ones((len(idx), n))
        if n > 1:
            eps[:, 1:] = ((idx[:, None] >> shifts) & 1) * 2.0 - 1.0
        yield eps


def _apply_transform(vals: np.ndarray, transform) -> np.ndarray:
    if transform == "identity":
        return vals
    if transform == "square":
        return vals * vals
    if isinstance(transform, tuple) and transform[0] == "shifted_plus":
        return np.maximum(vals - transform[1], 0.0)
    raise ParameterError(f"unknown transform {transform!r}")


def sign_tail_exact(inst: SignInstance, t: float) -> float:
    """P_eps(||sum eps_i v_i|| > t), an exact dyadic rational k / 2^n."""
    _check_cap(inst.n)
    if t < 0:
        return 1.0
    half = 1 << (inst.n - 1)
    count = 0
    for eps in _eps_blocks(inst.n):
        vals = inst.norm.evaluate(eps @ inst.vectors)
        count += int(np.count_nonzero(np.atleast_1d(vals) > t))
    return count / half


def sign_tail_mc(inst: SignInstance, t: float, budget: int, seed: int,
                 confidence: float = DEFAULT_CONFIDENCE) -> TailEstimate:
    """Monte-Carlo estimate of the sign tail with a Clopper-Pearson interval."""
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    rng = substream(seed, 0)
    hits = 0
    done = 0
    while done < budget:
        b = min(budget - done, 1 << 16)
        eps = rng.integers(0, 2, size=(b, inst.n)) * 2.0 - 1.0
        vals = np.atleast_1d(inst.norm.evaluate(eps @ inst.vectors))
        hits += int(np.count_nonzero(vals > t))
        done += b
    return TailEstimate.from_counts(hits, budget, confidence)


def sign_mean_exact(inst: SignInstance, transform="identity") -> float:
    """Exact E_eps transform(||sum eps_i v_i||)."""
    _check_cap(inst.n)
    half = 1 << (inst.n - 1)
    acc = 0.0
    for eps in _eps_blocks(inst.n):
        vals = np.atleast_1d(inst.norm.evaluate(eps @ inst.vectors))
        acc += float(_apply_transform(vals, transform).sum())
    return acc / half


def signed_mean_over_outcomes(outcomes: np.ndarray, norm,
                              transform=("shifted_plus", 1.0)) -> np.ndarray:
    """E_eps transform(||sum eps_i x_i||) for each outcome tuple.

    outcomes has shape (M, n, d); result has shape (M,).  This is the
    inner integrand of the proxy functional, vectorized over outcomes.
    """
    m, n, d = outcomes.shape
    _check_cap(n)
    half = 1 << (n - 1)
    acc = np.zeros(m)
    # keep block * M * d around 2^22 floats
    max_block = max(1, (1 << 22) // max(m * d, 1))
    for eps in _eps_blocks(n, max_block=max_block):
        # column-major sums: the norm reads their transpose without a copy
        sums = np.einsum("bn,mnd->dbm", eps, outcomes, order="C").reshape(d, -1)
        vals = np.atleast_1d(norm.evaluate(sums.T)).reshape(len(eps), m)
        acc += _apply_transform(vals, transform).sum(axis=0)
    return acc / half


# ---------------------------------------------------------------------------
# sign-inequality verifiers


def verify_kahane(inst: SignInstance, s: float, t: float) -> SlackReport:
    """P(||S|| > s+t) <= 4 P(||S|| > s) P(||S|| > t) for random signs, exact."""
    if s <= 0 or t <= 0:
        raise ParameterError("levels s, t must be positive")
    lhs = sign_tail_exact(inst, s + t)
    rhs = 4.0 * sign_tail_exact(inst, s) * sign_tail_exact(inst, t)
    return SlackReport.from_exact("kahane", lhs, rhs)


def verify_L1L2(inst: SignInstance) -> SlackReport:
    """E||S||^2 <= 2 (E||S||)^2 for random signs, exact."""
    m1 = sign_mean_exact(inst, "identity")
    m2 = sign_mean_exact(inst, "square")
    return SlackReport.from_exact("l1l2", m2, 2.0 * m1 * m1)


def verify_PZ(inst: SignInstance, theta: float) -> SlackReport:
    """P(||S|| > theta E||S||) >= (1-theta)^2 / 2, exact.

    Reported with the guaranteed lower bound on the lhs side so that
    holds <=> lhs <= rhs, matching every other report.
    """
    if not (0.0 < theta < 1.0):
        raise ParameterError("theta must lie in (0, 1)")
    m1 = sign_mean_exact(inst, "identity")
    tail = sign_tail_exact(inst, theta * m1)
    bound = 0.5 * (1.0 - theta) ** 2
    return SlackReport.from_exact("paley_zygmund", bound, tail)


def verify_contraction(vectors, a, b, norm) -> SlackReport:
    """E||sum eps a_i v_i|| <= E||sum eps b_i v_i|| when |a_i| <= |b_i|, exact."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or len(a) != len(vectors):
        raise ParameterError("coefficient/vector length mismatch")
    if np.any(np.abs(a) > np.abs(b)):
        raise ParameterError("contraction requires |a_i| <= |b_i| for all i")
    lhs = sign_mean_exact(SignInstance(a[:, None] * vectors, norm), "identity")
    rhs = sign_mean_exact(SignInstance(b[:, None] * vectors, norm), "identity")
    return SlackReport.from_exact("contraction", lhs, rhs)


# ---------------------------------------------------------------------------
# sum inequalities for independent symmetric vectors


def _sum_statistics(outcomes: np.ndarray, norm):
    """Per-outcome ||X_j||, ||S_j||, X*, S*, ||S_n|| for outcome tuples."""
    m, n, d = outcomes.shape
    xn = np.atleast_1d(norm.evaluate(outcomes.reshape(-1, d))).reshape(m, n)
    partial = np.cumsum(outcomes, axis=1)
    sn = np.atleast_1d(norm.evaluate(partial.reshape(-1, d))).reshape(m, n)
    return {"x_norms": xn, "s_norms": sn, "x_star": xn.max(axis=1),
            "s_star": sn.max(axis=1), "s_last": sn[:, -1]}


def verify_sum_inequalities(law: ProductLaw, norm, levels: dict,
                            estimator=None, seed: int = 0) -> dict:
    """Levy / maximal-summand / Hoffmann-Jorgensen / summand-tail checks.

    levels supplies s, t, u.  With finite-support components (within the
    product cap) and no estimator or an exact one, the verdicts are exact;
    an mc(budget, confidence) estimator samples instead, and verdicts carry
    confidence intervals.  A law with other components needs an mc
    estimator.
    Returns a dict of SlackReports keyed by inequality name; the
    summand-tail check is replaced by a "skipped" entry when
    P(X* > t) = 1, where its right-hand side is infinite.
    """
    s, t, u = float(levels["s"]), float(levels["t"]), float(levels["u"])
    exact = law.all_finite() and (estimator is None or estimator.kind == "exact")
    if exact:
        outcomes, probs = enumerate_product(law)

        def pr(mask):
            return TailEstimate.from_exact(float(probs[mask].sum()))
    else:
        if estimator is None or estimator.kind != "mc":
            raise ParameterError("law has no exact tail path; use an mc estimator")
        budget, conf = estimator.budget, estimator.confidence
        outcomes = sample_outcomes(law, budget, seed)

        def pr(mask):
            return TailEstimate.from_counts(int(np.count_nonzero(mask)), len(mask), conf)

    st = _sum_statistics(outcomes, norm)
    samples = 0 if exact else len(outcomes)
    reports = {}

    p_slast_t = pr(st["s_last"] > t)
    reports["levy"] = SlackReport.from_estimates(
        "levy", pr(st["s_star"] > t), 2.0 * p_slast_t, samples)
    reports["max_summand"] = SlackReport.from_estimates(
        "max_summand", pr(st["x_star"] > t), 2.0 * p_slast_t, samples)
    rhs_hj = pr(st["x_star"] > s) + 2.0 * pr(st["s_star"] > t) * pr(st["s_last"] > u)
    reports["hoffmann_jorgensen"] = SlackReport.from_estimates(
        "hoffmann_jorgensen", pr(st["s_star"] > s + t + u), rhs_hj, samples)

    p_xstar = pr(st["x_star"] > t)
    if p_xstar.value >= 1.0:
        reports["summand_tails"] = SlackReport(
            name="summand_tails", lhs=float("nan"), rhs=float("nan"), verdict=None,
            method="exact" if exact else "mc", samples=samples, note="skipped")
    else:
        lhs = TailEstimate.from_exact(0.0)
        for j in range(outcomes.shape[1]):
            lhs = lhs + pr(st["x_norms"][:, j] > t)
        rhs = TailEstimate(p_xstar.value / (1.0 - p_xstar.value),
                           p_xstar.lo / (1.0 - p_xstar.lo),
                           p_xstar.hi / (1.0 - p_xstar.hi) if p_xstar.hi < 1.0 else math.inf,
                           p_xstar.exact)
        reports["summand_tails"] = SlackReport.from_estimates(
            "summand_tails", lhs, rhs, samples)
    return reports
