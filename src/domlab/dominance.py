"""The proxy functional and (kappa, lambda)-domination machinery.

The proxy of a sum X_1 + ... + X_n under a norm is

    E min{ E_eps (||sum_i eps_i X_i|| - 1)_+ , 1 }.

It is sandwiched between alpha P(||sum X_i|| > 1 + alpha) and
16 P(||sum X_i|| > 1), and its distribution function tensorises under
per-summand (1,1)-domination, which is what makes domination of sums
checkable one summand at a time.

Domination itself quantifies over all norms; this module checks it over a
finite norm family only, and every report records that family-relative
scope.  The one all-norm certificate is for the per-pair premise of
tensorisation_experiment: a pair of centred Gaussians whose covariances are
ordered, lambda^2 Cov(Y) - Cov(X) positive semidefinite, is dominated under
every norm (Anderson's inequality), and is not re-checked; every other pair
is re-checked over the family.  Tails use strict inequality ||x|| > t;
atoms exactly on the boundary count as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import (Law, ProductLaw, _draw_chunk, analytic_survival,
                            enumerate_sign_classes, enumerate_sum, gaussian_covariance,
                            sample_sum_chunk)
from .errors import ParameterError, PreconditionError, _check_count, _check_real
from .geometry import monotone_in_abs, norm_family, norm_to_spec
from .inequalities import _check_cap, signed_mean_over_outcomes
from .rng import map_chunks, workspace
from .stats import (EXACT, EXACT_SLACK_TOL, Estimator, SlackReport, TailEstimate,
                    compare_tails, worst_verdict)

# ---------------------------------------------------------------------------
# tail probabilities


def tail_method(law: Law, estimator: Estimator) -> str:
    """How tail_table computes tails of law, decided here only: "enumeration" for
    finite support, "closed-form" where analytic_survival exists, else "mc", which
    raises ParameterError for an exact estimator."""
    if law.finite:
        return "enumeration"
    if analytic_survival(law) is not None:
        return "closed-form"
    if estimator.kind != "mc":
        raise ParameterError("law has no exact tail path; use an mc estimator")
    return "mc"


def tail_table(law: Law, norms, thresholds, estimator: Estimator, seed: int = 0,
               stream: tuple = (), threads: int = 1) -> list:
    """P(||X|| > t) for every norm and threshold (sum law for a ProductLaw).

    Returns one row of TailEstimates per norm, one entry per threshold.
    tail_method picks the method: a finite-support law is
    enumerated once and summed exactly over its atoms, each norm evaluated
    once per atom; a scalar source
    with a closed-form survival function is read through each norm's
    scalar factor (every norm on R^1 is f * |x|); anything else is sampled
    on the (seed, stream) substreams and counted, one rng.CHUNK-row chunk at a
    time, drawn and summed in place in its worker's rng.workspace(), so memory
    does not grow with the budget, with Clopper-Pearson intervals.
    A sampled chunk counts each distinct (norm, threshold) pair once.  A norm
    with geometry.monotone_in_abs (d = 1) exceeds t exactly where |x| exceeds
    its level for t (_abs_levels, found once per table), so the chunk takes
    |S| once, in place, and counts |S| > s once per distinct level s; every
    other norm is evaluated once per sample and read at each threshold.
    ``threads`` runs chunks in parallel; no result depends on it.
    """
    norms = norm_family(norms, law.dimension)
    thresholds = [_check_real(t, "threshold") for t in thresholds]
    method = tail_method(law, estimator)
    if method == "enumeration":
        vectors, probs = enumerate_sum(law)
        vectors = np.asfortranarray(vectors)  # every norm reads it transposed, copy-free
        values = (norm.evaluate(vectors) for norm in norms)
        return [[TailEstimate.from_exact(float(probs[vals > t].sum()))
                 for t in thresholds] for vals in values]
    if method == "closed-form":
        survival = analytic_survival(law)
        factors = [float(norm.evaluate(np.array([1.0]))) for norm in norms]
        return [[TailEstimate.from_exact(float(survival(t / f))) for t in thresholds]
                for f in factors]

    # The chunk's counts: each evaluated norm at each distinct threshold, then
    # each distinct level; index maps every cell to its count.
    distinct = list(dict.fromkeys(thresholds))  # -0.0 and 0.0 count as one
    column = [distinct.index(t) for t in thresholds]
    by_level = np.array([monotone_in_abs(norm) for norm in norms])
    evaluated = [norm for norm, lv in zip(norms, by_level) if not lv]
    level_rows = [_abs_levels(norm, distinct) for norm, lv in zip(norms, by_level) if lv]
    levels, level_at = np.unique(np.ravel(level_rows), return_inverse=True)
    index = np.empty((len(norms), len(thresholds)), dtype=int)
    index[~by_level] = np.arange(len(evaluated))[:, None] * len(distinct) + column
    index[by_level] = len(evaluated) * len(distinct) + level_at.reshape(
        len(level_rows), len(distinct))[:, column]

    def count_chunk(j, lo, hi):
        xs = sample_sum_chunk(law, j, hi - lo, seed, stream,
                              workspace().array("sum", (hi - lo, law.dimension), order="F"))
        counts = [np.count_nonzero(vals > t)
                  for vals in (norm.evaluate(xs) for norm in evaluated) for t in distinct]
        if len(levels):
            np.abs(xs, out=xs)  # the evaluated norms are done with S
            counts += [np.count_nonzero(xs > s) for s in levels]
        return counts
    counts = np.sum(map_chunks(count_chunk, estimator.budget, threads), axis=0)[index]
    return [[TailEstimate.from_counts(int(k), estimator.budget, estimator.confidence)
             for k in row] for row in counts]


_INF_BITS = int(np.float64(np.inf).view(np.int64))  # floats in [0, inf] order as their bits
_BRACKET = np.arange(-8, 9)


def _abs_levels(norm, thresholds) -> np.ndarray:
    """The level s of each threshold t for a norm with geometry.monotone_in_abs:
    the largest float v >= 0 with norm(v) <= t, or -inf when norm(0) > t, so that
    norm(x) > t exactly when |x| > s, for every float x.

    A bisection over the bit patterns of [0, inf], on the norm's own evaluate: lo
    is the largest pattern known at or below t (-1 for none), hi the smallest
    known above it (one past inf for none).  The first round probes the 17
    patterns around t / norm(1), which hold the level unless rounding strays
    more than 8 ulps; each later round probes the midpoint of every threshold
    whose lo and hi are not yet adjacent.
    """
    t = np.array(thresholds, dtype=float)
    lo = np.full(len(t), -1)
    hi = np.full(len(t), _INF_BITS + 1)
    rows = np.arange(len(t))
    with np.errstate(all="ignore"):  # the guess and the norm may overflow to inf
        probes = (t / norm.evaluate(np.array([1.0]))).view(np.int64)[:, None] + _BRACKET
        while len(rows):
            probes = np.clip(probes, 0, _INF_BITS)
            below = norm.evaluate(probes.view(float).reshape(-1, 1)).reshape(
                probes.shape) <= t[rows, None]
            lo[rows] = np.maximum(lo[rows], np.where(below, probes, -1).max(axis=1))
            hi[rows] = np.minimum(hi[rows], np.where(below, _INF_BITS + 1, probes).min(axis=1))
            rows = np.flatnonzero(hi - lo > 1)
            probes = (lo + (hi - lo) // 2)[rows, None]
    return np.where(lo < 0, -np.inf, lo.view(float))


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
        object.__setattr__(self, "kappa", _check_real(self.kappa, "kappa", "[1, inf)"))
        object.__setattr__(self, "lam", _check_real(self.lam, "lambda", "[1, inf)"))
        if self.x.dimension != self.y.dimension:
            raise ParameterError("laws must share dimension")
        object.__setattr__(self, "norms", norm_family(self.norms, self.x.dimension))
        tail_method(self.x, self.estimator)
        tail_method(self.y, self.estimator)


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

    def __post_init__(self):
        # a mean of values in [0, 1]: no rounding makes it negative, and above 1
        # the slack is relative to 1
        if not (0.0 <= self.value <= 1.0 + EXACT_SLACK_TOL):
            raise ParameterError(f"proxy value {self.value} outside [0, 1]")


def proxy_exact(law: ProductLaw, norm) -> ProxyValue:
    """E min{E_eps (||sum eps_i X_i|| - 1)_+, 1}, exact over the product support.

    The inner sign mean does not change when one X_i flips sign, so the
    outer expectation runs over enumerate_sign_classes, not every tuple.
    """
    outcomes, probs = enumerate_sign_classes(law)
    inner = signed_mean_over_outcomes(outcomes, norm)
    value = float(probs @ np.minimum(inner, 1.0))
    return ProxyValue(value=min(value, 1.0), method="exact")


def proxy_mc(law: ProductLaw, norm, outer_budget: int, seed: int,
             threads: int = 1) -> ProxyValue:
    """Monte-Carlo proxy: the outer expectation sampled on the (seed, 3)
    substreams, one rng.CHUNK of outcome tuples at a time, and the inner sign
    mean exact for each tuple.  More than SIGN_ENUMERATION_CAP summands raise
    CapacityError before anything is drawn; no result depends on ``threads``."""
    _check_count(outer_budget, "outer budget", 1)
    _check_cap(law.n)

    def moments(j, lo, hi):
        outcomes = _draw_chunk(law, j, hi - lo, seed, (3,))
        vals = np.minimum(signed_mean_over_outcomes(outcomes, norm), 1.0)
        return float(vals.sum()), float((vals * vals).sum())
    chunks = map_chunks(moments, outer_budget, threads)
    mean = sum(total for total, _ in chunks) / outer_budget
    var = max(sum(total_sq for _, total_sq in chunks) / outer_budget - mean * mean, 0.0)
    stderr = math.sqrt(var / outer_budget)
    return ProxyValue(value=min(mean, 1.0), method="mc", stderr=stderr,
                      outer_samples=outer_budget)


def proxy_bound_check(law: ProductLaw, norm, alpha: float):
    """Exact sandwich alpha P(||S|| > 1+alpha) <= proxy <= 16 P(||S|| > 1).

    Returns (lower, upper) SlackReports.
    """
    alpha = _check_real(alpha, "alpha", "(0, 1]")
    (p_above, p_one), = tail_table(law, [norm], [1.0 + alpha, 1.0], EXACT)
    prox = proxy_exact(law, norm).value
    lower = SlackReport.from_exact("proxy_lower", alpha * p_above.value, prox)
    upper = SlackReport.from_exact("proxy_upper", prox, 16.0 * p_one.value)
    return lower, upper


# ---------------------------------------------------------------------------
# the per-summand domination premise


def _recheck_premises(parts, check, seed: int, offset: int, failure: str):
    """Re-verify the premise of each part i of a sum.

    check(part, seed + offset + i) returns a report with verdicts(), or None
    for a part whose premise is certified without one; the first part with a
    "violated" verdict raises PreconditionError(failure.format(i=i, k=k)), k
    the index of that verdict.
    """
    for i, part in enumerate(parts):
        report = check(part, seed + offset + i)
        verdicts = [] if report is None else report.verdicts()
        if "violated" in verdicts:
            raise PreconditionError(failure.format(i=i, k=verdicts.index("violated")))


def _covariance_ordered(x: Law, y: Law, lam: float) -> bool:
    """Whether X and Y, of one dimension, are gaussian sources with lam^2 Cov(Y) - Cov(X)
    positive semidefinite: its smallest eigenvalue at least -EXACT_SLACK_TOL times the
    largest |entry| of lam^2 Cov(Y) and Cov(X), so rounding certifies no tiny scale.

    Then lam Y has the law of X + Z with Z an independent centred Gaussian, and
    Anderson's inequality (T. W. Anderson 1955, Proc. AMS 6, 170-176) gives
    P(||X|| > 1) <= P(lam ||Y|| > 1) under every norm, degenerate laws included.
    At kappa = lambda = 1 the order is also necessary: norms close to a slab
    |<u, x>| compare the variances along u.
    """
    cov_x, cov_y = gaussian_covariance(x), gaussian_covariance(y)
    if cov_x is None or cov_y is None:
        return False
    cov_y = lam * lam * cov_y
    scale = max(np.abs(cov_y).max(), np.abs(cov_x).max())
    return bool(np.linalg.eigvalsh(cov_y - cov_x).min() >= -EXACT_SLACK_TOL * scale)


# ---------------------------------------------------------------------------
# full-size experiments


def tensorisation_query(pairs, kappa: float, lam: float, alpha: float, norms,
                        estimator: Estimator) -> DominationQuery:
    """Query for the sums of (kappa, lambda)-dominated pairs (premise unchecked)
    at (16/alpha * ceil(kappa), (1+alpha) ceil(kappa) lambda)."""
    sums = DominationQuery(x=ProductLaw(tuple(x for x, _ in pairs)),
                           y=ProductLaw(tuple(y for _, y in pairs)),
                           kappa=kappa, lam=lam, norms=norms, estimator=estimator)
    alpha = _check_real(alpha, "alpha", "(0, 1]")
    kap_c = math.ceil(sums.kappa)
    return replace(sums, kappa=16.0 / alpha * kap_c, lam=(1.0 + alpha) * kap_c * sums.lam)


def tensorisation_experiment(pairs, kappa: float, lam: float, alpha: float,
                             norms, estimator: Estimator, seed: int = 0,
                             threads: int = 1) -> DominationReport:
    """Sum-domination check with the tensorised constants of tensorisation_query.

    A pair (X_i, Y_i) of gaussian sources with _covariance_ordered(X_i, Y_i,
    lambda) is (1, lambda)-dominated under every norm, so its premise holds
    for every kappa and builds no tail table.  Every other pair is first
    re-checked for (kappa, lambda)-domination over the norm family (a violated
    norm raises, naming the pair).  The sums are then checked over the same
    family on their own streams, so no sum verdict depends on which premises
    were sampled.
    """
    alpha = _check_real(alpha, "alpha", "(0, 1]")
    query = tensorisation_query(pairs, kappa, lam, alpha, norms, estimator)
    premise = replace(query, kappa=kappa, lam=lam)  # kappa and lambda read as floats

    def check_pair(pair, pair_seed):
        if _covariance_ordered(*pair, premise.lam):
            return None
        return check_domination(replace(premise, x=pair[0], y=pair[1]), seed=pair_seed,
                                threads=threads)
    _recheck_premises(
        pairs, check_pair, seed, 1000,
        f"pair {{i}} fails its ({premise.kappa},{premise.lam})-domination "
        "premise: not dominated under norm {k}")
    rep = check_domination(query, seed=seed, threads=threads)
    return replace(rep, meta=dict(rep.meta, experiment="tensorisation", alpha=alpha,
                                  input_kappa=premise.kappa, input_lambda=premise.lam))
