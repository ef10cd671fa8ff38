"""The proxy functional and (kappa, lambda)-domination machinery.

The proxy of a sum X_1 + ... + X_n under a norm is

    E min{ E_eps (||sum_i eps_i X_i|| - 1)_+ , 1 }.

It is sandwiched between alpha P(||sum X_i|| > 1 + alpha) and
16 P(||sum X_i|| > 1), and its distribution function tensorises under
per-summand (1,1)-domination, which is what makes domination of sums
checkable one summand at a time.

Domination itself quantifies over all norms; this module checks it over a
finite norm family only, and every report records that family-relative
scope.  Tails use strict inequality ||x|| > t; atoms exactly on the
boundary count as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .distributions import (FiniteSupportDist, Law, ProductLaw, _draw_chunk,
                            analytic_survival, enumerate_product, enumerate_sum,
                            sample_sum_chunk)
from .errors import CapacityError, ParameterError, PreconditionError
from .geometry import norm_to_spec
from .inequalities import (SIGN_ENUMERATION_CAP, SignInstance, sign_mean_exact,
                           signed_mean_over_outcomes)
from .rng import map_chunks, substream
from .stats import (EXACT, Estimator, SlackReport, TailEstimate, compare_tails,
                    worst_verdict)

REMOVEDELTA_CAP = 14  # joint delta x sign enumeration stays under ~5M patterns


# ---------------------------------------------------------------------------
# tail probabilities


def exact_capable(law: Law) -> bool:
    """True when tail probabilities of ||X|| admit an exact path."""
    if isinstance(law, FiniteSupportDist):
        return True
    if isinstance(law, ProductLaw):
        return law.all_finite()
    return analytic_survival(law) is not None


def tail_table(law: Law, norms, thresholds, estimator: Estimator, seed: int = 0,
               stream: tuple = (), threads: int = 1) -> list:
    """P(||X|| > t) for every norm and threshold (sum law for a ProductLaw).

    Returns one row of TailEstimates per norm, one entry per threshold.
    This is the one place that picks the method: a finite-support law is
    enumerated once and summed exactly over its atoms; a scalar source
    with a closed-form survival function is read through each norm's
    scalar factor (every norm on R^1 is f * |x|); anything else is sampled
    on the (seed, stream) substreams and counted, one rng.CHUNK-row chunk at a
    time so memory does not grow with the budget, with Clopper-Pearson intervals.
    Each norm is evaluated once per atom or sample; every threshold reads the
    same values.  ``threads`` runs chunks in parallel; no result depends on it.
    """
    norms = list(norms)
    thresholds = [float(t) for t in thresholds]
    if isinstance(law, (FiniteSupportDist, ProductLaw)) and exact_capable(law):
        vectors, probs = enumerate_sum(law)
        vectors = np.asfortranarray(vectors)  # every norm reads it transposed, copy-free
        values = (np.atleast_1d(norm.evaluate(vectors)) for norm in norms)
        return [[TailEstimate.from_exact(float(probs[vals > t].sum()))
                 for t in thresholds] for vals in values]
    survival = analytic_survival(law)
    if survival is not None:
        factors = [float(norm.evaluate(np.array([1.0]))) for norm in norms]
        return [[TailEstimate.from_exact(float(survival(t / f))) for t in thresholds]
                for f in factors]
    if estimator.kind != "mc":
        raise ParameterError("law has no exact tail path; use an mc estimator")

    def count_chunk(j, lo, hi):
        xs = np.asfortranarray(sample_sum_chunk(law, j, hi - lo, seed, stream))
        return [[np.count_nonzero(vals > t) for t in thresholds]
                for vals in (np.atleast_1d(norm.evaluate(xs)) for norm in norms)]
    counts = np.sum(map_chunks(count_chunk, estimator.budget, threads), axis=0)
    return [[TailEstimate.from_counts(int(k), estimator.budget, estimator.confidence)
             for k in row] for row in counts]


def tail_probability(law: Law, norm, threshold: float, estimator: Estimator,
                     seed: int = 0, stream: tuple = ()) -> TailEstimate:
    """P(||X|| > threshold): the single cell of tail_table."""
    return tail_table(law, [norm], [threshold], estimator, seed, stream)[0][0]


# ---------------------------------------------------------------------------
# queries and reports


@dataclass(frozen=True)
class DominationQuery:
    x: Law
    y: Law
    kappa: float
    lam: float
    norms: tuple
    estimator: Estimator

    def __post_init__(self):
        if self.kappa < 1.0 or self.lam < 1.0:
            raise ParameterError("kappa and lambda must be >= 1")
        if getattr(self.x, "dimension", None) != getattr(self.y, "dimension", None):
            raise ParameterError("laws must share dimension")
        object.__setattr__(self, "norms", tuple(self.norms))
        if not self.norms:
            raise ParameterError("the norm family must be nonempty")


@dataclass(frozen=True)
class NormRecord:
    index: int
    norm: dict
    px: TailEstimate  # P(||X|| > 1)
    py: TailEstimate  # P(lambda ||Y|| > 1)
    verdict: str

    def to_json(self) -> dict:
        return {"index": self.index, "norm": self.norm, "px": self.px.to_json(),
                "py": self.py.to_json(), "verdict": self.verdict}


@dataclass(frozen=True)
class DominationReport:
    kappa: float
    lam: float
    records: tuple
    meta: dict = field(default_factory=dict)

    @property
    def overall(self) -> str:
        return worst_verdict(r.verdict for r in self.records)

    def verdicts(self):
        return [r.verdict for r in self.records]

    def to_json(self) -> dict:
        return {"kappa": self.kappa, "lambda": self.lam, "overall": self.overall,
                "records": [r.to_json() for r in self.records], "meta": self.meta}

    def scatter_rows(self):
        """(norm index, pX, kappa * pY) rows for CSV export."""
        return [(r.index, r.px.value, self.kappa * r.py.value) for r in self.records]


def check_domination(query: DominationQuery, seed: int = 0,
                     threads: int = 1) -> DominationReport:
    """Per-norm comparison P(||X|| > 1) <= kappa P(lambda ||Y|| > 1).

    Exact where both laws admit exact tails, else Monte Carlo with
    three-valued confidence-interval verdicts.  A norm is marked
    "violated" only when the lower bound on the X tail exceeds kappa
    times the upper bound on the Y tail.
    """
    px = tail_table(query.x, query.norms, [1.0], query.estimator, seed, (1,), threads)
    py = tail_table(query.y, query.norms, [1.0 / query.lam], query.estimator, seed,
                    (2,), threads)
    records = tuple(NormRecord(index=i, norm=norm_to_spec(norm), px=x, py=y,
                               verdict=compare_tails(x, y, query.kappa))
                    for i, (norm, (x,), (y,)) in enumerate(zip(query.norms, px, py)))
    return DominationReport(kappa=query.kappa, lam=query.lam, records=records,
                            meta={"norm_family_size": len(query.norms)})


# ---------------------------------------------------------------------------
# the proxy functional


@dataclass(frozen=True)
class ProxyValue:
    value: float
    method: str  # "exact" or "mc"
    stderr: float = 0.0
    outer_samples: int = 0
    inner: str = "exact"

    def __post_init__(self):
        if not (-1e-12 <= self.value <= 1.0 + 1e-12):
            raise ParameterError(f"proxy value {self.value} outside [0, 1]")


def proxy_exact(law: ProductLaw, norm) -> ProxyValue:
    """E min{E_eps (||sum eps_i X_i|| - 1)_+, 1}, exact over the product support."""
    outcomes, probs = enumerate_product(law)
    inner = signed_mean_over_outcomes(outcomes, norm)
    value = float(probs @ np.minimum(inner, 1.0))
    return ProxyValue(value=min(value, 1.0), method="exact")


def proxy_mc(law: ProductLaw, norm, outer_budget: int, seed: int,
             inner_budget: Optional[int] = None, threads: int = 1) -> ProxyValue:
    """Monte-Carlo proxy: outer expectation sampled, inner sign mean exact
    whenever n is within the enumeration cap (inner MC noise enters the
    clamp nonlinearly, so the exact inner is preferred); no result depends
    on ``threads``."""
    if outer_budget < 1:
        raise ParameterError("outer budget must be >= 1")
    if inner_budget is not None and inner_budget < 1:
        raise ParameterError("inner budget must be >= 1")
    inner_exact = law.n <= SIGN_ENUMERATION_CAP
    inner_budget = 4096 if inner_budget is None else inner_budget

    def moments(j, lo, hi):
        outcomes = _draw_chunk(law, j, hi - lo, seed, (3,))
        if inner_exact:
            inner = signed_mean_over_outcomes(outcomes, norm)
        else:
            inner = _inner_sign_mc(outcomes, norm, inner_budget, seed, j)
        vals = np.minimum(inner, 1.0)
        return float(vals.sum()), float((vals * vals).sum())
    chunks = map_chunks(moments, outer_budget, threads)
    mean = sum(total for total, _ in chunks) / outer_budget
    var = max(sum(total_sq for _, total_sq in chunks) / outer_budget - mean * mean, 0.0)
    stderr = math.sqrt(var / outer_budget)
    return ProxyValue(value=min(mean, 1.0), method="mc", stderr=stderr,
                      outer_samples=outer_budget,
                      inner="exact" if inner_exact else f"mc({inner_budget})")


def _inner_sign_mc(outcomes: np.ndarray, norm, budget: int, seed: int,
                   j: int) -> np.ndarray:
    m, n, d = outcomes.shape
    rng = substream(seed, 4, j)
    acc = np.zeros(m)
    step = max(1, (1 << 22) // (m * d))
    for lo in range(0, budget, step):
        eps = rng.integers(0, 2, size=(min(step, budget - lo), n)) * 2.0 - 1.0
        sums = np.einsum("bn,mnd->dbm", eps, outcomes, order="C").reshape(d, -1)
        vals = np.atleast_1d(norm.evaluate(sums.T)).reshape(len(eps), m)
        acc += np.maximum(vals - 1.0, 0.0).sum(axis=0)
    return acc / budget


def proxy_bound_check(law: ProductLaw, norm, alpha: float):
    """Exact sandwich alpha P(||S|| > 1+alpha) <= proxy <= 16 P(||S|| > 1).

    Returns (lower, upper) SlackReports.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    (p_above, p_one), = tail_table(law, [norm], [1.0 + alpha, 1.0], EXACT)
    prox = proxy_exact(law, norm).value
    lower = SlackReport.from_exact("proxy_lower", alpha * p_above.value, prox)
    upper = SlackReport.from_exact("proxy_upper", prox, 16.0 * p_one.value)
    return lower, upper


# ---------------------------------------------------------------------------
# conditional convexity / tensorisation of the proxy integrand


def _recheck_premise(pairs, kappa: float, lam: float, norms, estimator: Estimator,
                     seed: int, threads: int = 1):
    """Re-verify that each pair (X_i, Y_i) is (kappa, lambda)-dominated.

    Pair i is checked on the seed + 1000 + i streams; the first violated
    norm raises PreconditionError.
    """
    for i, (xi, yi) in enumerate(pairs):
        rep = check_domination(DominationQuery(x=xi, y=yi, kappa=kappa, lam=lam,
                                               norms=tuple(norms),
                                               estimator=estimator),
                               seed=seed + 1000 + i, threads=threads)
        for rec in rep.records:
            if rec.verdict == "violated":
                raise PreconditionError(
                    f"pair {i} fails its ({kappa},{lam})-domination premise: "
                    f"not dominated under norm {rec.index}")


def conditional_convexity_check(xlaw: ProductLaw, ylaw: ProductLaw, norm,
                                t_grid: Sequence[float],
                                precheck_norms: Optional[Sequence] = None):
    """Distribution-function comparison of the proxy integrand.

    With each X_i (1,1)-dominated by Y_i, the law of
    g(X) = E_eps (||sum eps_i X_i|| - 1)_+ is stochastically below the law
    of g(Y):  P(g(X) > t) <= P(g(Y) > t) for every t >= 0.  Checks every t
    in t_grid plus the integrated form E min{g, 1}.  When precheck_norms
    is given, per-index (1,1)-domination is re-verified first.
    """
    if precheck_norms is not None:
        if xlaw.n != ylaw.n:
            raise ParameterError("laws must have equally many components")
        _recheck_premise(zip(xlaw.components, ylaw.components), 1.0, 1.0,
                         precheck_norms, EXACT, seed=0)
    ox, px = enumerate_product(xlaw)
    oy, py = enumerate_product(ylaw)
    gx = signed_mean_over_outcomes(ox, norm)
    gy = signed_mean_over_outcomes(oy, norm)
    reports = []
    for t in t_grid:
        if t < 0:
            raise ParameterError("t grid must be nonnegative")
        lhs = float(px[gx > t].sum())
        rhs = float(py[gy > t].sum())
        reports.append(SlackReport.from_exact(f"integrand_tail_t={t:g}", lhs, rhs))
    lhs_int = float(px @ np.minimum(gx, 1.0))
    rhs_int = float(py @ np.minimum(gy, 1.0))
    reports.append(SlackReport.from_exact("integrated_proxy", lhs_int, rhs_int))
    return reports


# ---------------------------------------------------------------------------
# full-size experiments


def tensorisation_experiment(pairs, kappa: float, lam: float, alpha: float,
                             norms, estimator: Estimator, seed: int = 0,
                             recheck: bool = True, threads: int = 1,
                             route: str = "split") -> DominationReport:
    """Sum-domination check with the constants of either reduction route.

    Given per-index (kappa, lambda)-dominated pairs (X_i, Y_i), the sums
    are checked over the norm family for the tensorised constants:
    route="split" uses the indicator-splitting argument and tests
    (16/alpha * ceil(kappa), (1+alpha) ceil(kappa) lambda)-domination;
    route="thin" uses Bernoulli thinning and tests
    (64 kappa / alpha, 2 (1+alpha) kappa lambda)-domination.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    if route == "split":
        kap_c = math.ceil(kappa)
        kappa_out = 16.0 / alpha * kap_c
        lam_out = (1.0 + alpha) * kap_c * lam
        experiment = "tensorisation"
    elif route == "thin":
        kappa_out = 64.0 / alpha * kappa
        lam_out = 2.0 * (1.0 + alpha) * kappa * lam
        experiment = "reduction_thin"
    else:
        raise ParameterError(f"unknown reduction route {route!r}")
    xs = ProductLaw(tuple(x for x, _ in pairs))
    ys = ProductLaw(tuple(y for _, y in pairs))
    if recheck:
        _recheck_premise(zip(xs.components, ys.components), kappa, lam, norms,
                         estimator, seed, threads)
    rep = check_domination(DominationQuery(x=xs, y=ys, kappa=kappa_out, lam=lam_out,
                                           norms=tuple(norms), estimator=estimator),
                           seed=seed, threads=threads)
    meta = dict(rep.meta, experiment=experiment, alpha=alpha,
                input_kappa=kappa, input_lambda=lam)
    return DominationReport(kappa=rep.kappa, lam=rep.lam, records=rep.records, meta=meta)


def removedelta_check(vectors, norm, p: float) -> SlackReport:
    """P_delta(E_eps ||sum eps_i delta_i v_i|| > 1) >= (p/4) 1{E_eps ||sum eps_i v_i|| > 2/p}.

    Exact joint enumeration over delta in {0,1}^n with Bernoulli(p)
    weights and, per delta, the exact sign mean.  Reported with the
    guaranteed bound on the lhs side so holds <=> lhs <= rhs.
    """
    if not (0.0 < p <= 1.0):
        raise ParameterError("p must lie in (0, 1]")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = vectors.shape[0]
    if n > REMOVEDELTA_CAP:
        raise CapacityError(f"{n} vectors exceed the joint enumeration cap {REMOVEDELTA_CAP}")
    full_mean = sign_mean_exact(SignInstance(vectors, norm), "identity")
    indicator = 1.0 if full_mean > 2.0 / p else 0.0
    prob_above = 0.0
    for mask in range(1 << n):
        active = [i for i in range(n) if (mask >> i) & 1]
        weight = p ** len(active) * (1.0 - p) ** (n - len(active))
        if weight == 0.0:
            continue
        if not active:
            mean = 0.0
        else:
            mean = sign_mean_exact(SignInstance(vectors[active], norm), "identity")
        if mean > 1.0:
            prob_above += weight
    return SlackReport.from_exact("removedelta", (p / 4.0) * indicator, prob_above,
                                  note=f"full sign mean {full_mean:.6g}")
