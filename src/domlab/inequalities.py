"""Exact and Monte-Carlo verifiers for classical sign/sum inequalities.

The exact engine enumerates sign patterns.  Because every quantity here
depends on signs only through the norm of a sign-odd sum, the global flip
eps -> -eps leaves it invariant, so enumeration runs over 2^(n-1)
patterns with the first sign pinned to +1.  Each verifier reads every
tail and moment it compares from one array of 2^(n-1) norm values (16 MB
at the cap).  Monte-Carlo paths draw chunk j of rng.map_chunks on the
substream (seed, *stream, j), so memory stays one chunk per thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProductLaw, _draw_chunk, enumerate_product
from .errors import CapacityError, ParameterError
from .rng import map_chunks, substream
from .stats import DEFAULT_CONFIDENCE, SlackReport, TailEstimate

SIGN_ENUMERATION_CAP = 22  # ~4M half-patterns, sub-second per instance
_SIGN_BLOCK = 1 << 14  # sign patterns per block of _eps_blocks


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


def _check_cap(n: int):
    if n > SIGN_ENUMERATION_CAP:
        raise CapacityError(f"{n} summands exceed the sign-enumeration cap "
                            f"{SIGN_ENUMERATION_CAP}")


def _eps_blocks(n: int, max_block: int = _SIGN_BLOCK):
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


def _sign_norms(inst: SignInstance) -> np.ndarray:
    """||sum eps_i v_i|| for each of the 2^(n-1) half-patterns, in block order."""
    _check_cap(inst.n)
    vals = np.empty(1 << (inst.n - 1))
    for lo, eps in zip(range(0, len(vals), _SIGN_BLOCK), _eps_blocks(inst.n)):
        vals[lo:lo + len(eps)] = inst.norm.evaluate(eps @ inst.vectors)
    return vals


def _tail(vals: np.ndarray, t: float) -> float:
    return int(np.count_nonzero(vals > t)) / len(vals)


def _mean(vals: np.ndarray, transform) -> float:
    # one float sum per _eps_blocks block, added in block order
    acc = 0.0
    for lo in range(0, len(vals), _SIGN_BLOCK):
        acc += float(_apply_transform(vals[lo:lo + _SIGN_BLOCK], transform).sum())
    return acc / len(vals)


def sign_tail_exact(inst: SignInstance, t: float) -> float:
    """P_eps(||sum eps_i v_i|| > t), an exact dyadic rational k / 2^n."""
    return _tail(_sign_norms(inst), t)


def sign_tail_mc(inst: SignInstance, t: float, budget: int, seed: int,
                 confidence: float = DEFAULT_CONFIDENCE) -> TailEstimate:
    """Monte-Carlo estimate of the sign tail with a Clopper-Pearson interval."""
    if budget < 1:
        raise ParameterError("budget must be >= 1")

    def count_chunk(j, lo, hi):
        eps = substream(seed, 0, j).integers(0, 2, size=(hi - lo, inst.n)) * 2.0 - 1.0
        return int(np.count_nonzero(np.atleast_1d(inst.norm.evaluate(eps @ inst.vectors)) > t))
    return TailEstimate.from_counts(sum(map_chunks(count_chunk, budget)), budget, confidence)


def sign_mean_exact(inst: SignInstance, transform="identity") -> float:
    """Exact E_eps transform(||sum eps_i v_i||)."""
    return _mean(_sign_norms(inst), transform)


def signed_mean_over_outcomes(outcomes: np.ndarray, norm) -> np.ndarray:
    """E_eps (||sum eps_i x_i|| - 1)_+ for each outcome tuple.

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
        acc += np.maximum(vals - 1.0, 0.0).sum(axis=0)
    return acc / half


# ---------------------------------------------------------------------------
# sign-inequality verifiers


def verify_kahane(inst: SignInstance, s: float, t: float) -> SlackReport:
    """P(||S|| > s+t) <= 4 P(||S|| > s) P(||S|| > t) for random signs, exact."""
    if s <= 0 or t <= 0:
        raise ParameterError("levels s, t must be positive")
    vals = _sign_norms(inst)
    lhs = _tail(vals, s + t)
    rhs = 4.0 * _tail(vals, s) * _tail(vals, t)
    return SlackReport.from_exact("kahane", lhs, rhs)


def verify_L1L2(inst: SignInstance) -> SlackReport:
    """E||S||^2 <= 2 (E||S||)^2 for random signs, exact."""
    vals = _sign_norms(inst)
    m1 = _mean(vals, "identity")
    m2 = _mean(vals, "square")
    return SlackReport.from_exact("l1l2", m2, 2.0 * m1 * m1)


def verify_PZ(inst: SignInstance, theta: float) -> SlackReport:
    """P(||S|| > theta E||S||) >= (1-theta)^2 / 2, exact.

    Reported with the guaranteed lower bound on the lhs side so that
    holds <=> lhs <= rhs, matching every other report.
    """
    if not (0.0 < theta < 1.0):
        raise ParameterError("theta must lie in (0, 1)")
    vals = _sign_norms(inst)
    tail = _tail(vals, theta * _mean(vals, "identity"))
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


def _sum_events(outcomes: np.ndarray, norm, s: float, t: float, u: float) -> np.ndarray:
    """Event columns: S* > t, ||S_n|| > t, X* > t, X* > s, S* > s+t+u, ||S_n|| > u, ||X_j|| > t."""
    m, n, d = outcomes.shape
    xn = np.atleast_1d(norm.evaluate(outcomes.reshape(-1, d))).reshape(m, n)
    partial = np.cumsum(outcomes, axis=1)
    sn = np.atleast_1d(norm.evaluate(partial.reshape(-1, d))).reshape(m, n)
    x_star, s_star, s_last = xn.max(axis=1), sn.max(axis=1), sn[:, -1]
    return np.column_stack([s_star > t, s_last > t, x_star > t, x_star > s,
                            s_star > s + t + u, s_last > u, xn > t])


def verify_sum_inequalities(law: ProductLaw, norm, levels: dict,
                            estimator=None, seed: int = 0) -> dict:
    """Levy / maximal-summand / Hoffmann-Jorgensen / summand-tail checks.

    levels supplies s, t, u.  With finite-support components (within the
    product cap) and no estimator or an exact one, the verdicts are exact;
    an mc(budget, confidence) estimator samples instead, one rng.CHUNK of
    outcome tuples at a time, and verdicts carry confidence intervals.  A
    law with other components needs an mc estimator.
    Returns a dict of SlackReports keyed by inequality name; the
    summand-tail check is replaced by a "skipped" entry when
    P(X* > t) = 1, where its right-hand side is infinite.
    """
    s, t, u = float(levels["s"]), float(levels["t"]), float(levels["u"])
    exact = law.all_finite() and (estimator is None or estimator.kind == "exact")
    if exact:
        outcomes, probs = enumerate_product(law)
        events = _sum_events(outcomes, norm, s, t, u)
        probs_of = [TailEstimate.from_exact(float(probs[col].sum())) for col in events.T]
        samples = 0
    else:
        if estimator is None or estimator.kind != "mc":
            raise ParameterError("law has no exact tail path; use an mc estimator")
        samples = estimator.budget

        def count_chunk(j, lo, hi):
            outcomes = _draw_chunk(law, j, hi - lo, seed, ())
            return np.count_nonzero(_sum_events(outcomes, norm, s, t, u), axis=0)
        counts = np.sum(map_chunks(count_chunk, samples), axis=0)
        probs_of = [TailEstimate.from_counts(int(k), samples, estimator.confidence)
                    for k in counts]
    p_sstar_t, p_slast_t, p_xstar, p_xstar_s, p_sstar_stu, p_slast_u, *p_x = probs_of
    reports = {
        "levy": SlackReport.from_estimates("levy", p_sstar_t, 2.0 * p_slast_t, samples),
        "max_summand": SlackReport.from_estimates(
            "max_summand", p_xstar, 2.0 * p_slast_t, samples),
        "hoffmann_jorgensen": SlackReport.from_estimates(
            "hoffmann_jorgensen", p_sstar_stu, p_xstar_s + 2.0 * p_sstar_t * p_slast_u,
            samples)}
    if p_xstar.value >= 1.0:
        reports["summand_tails"] = SlackReport(
            name="summand_tails", lhs=float("nan"), rhs=float("nan"), verdict=None,
            method="exact" if exact else "mc", samples=samples, note="skipped")
    else:
        lhs = sum(p_x, TailEstimate.from_exact(0.0))
        rhs = TailEstimate(p_xstar.value / (1.0 - p_xstar.value),
                           p_xstar.lo / (1.0 - p_xstar.lo),
                           p_xstar.hi / (1.0 - p_xstar.hi) if p_xstar.hi < 1.0 else math.inf,
                           p_xstar.exact)
        reports["summand_tails"] = SlackReport.from_estimates(
            "summand_tails", lhs, rhs, samples)
    return reports
