"""Majorisation, constructive permutation mixtures, and weighted-sum experiments.

a is majorised by b when the partial sums of their nonincreasing
rearrangements compare and the totals agree; equivalently a is a convex
combination of permutations of b.  The decomposition here is fully
constructive: a chain of at most n-1 two-coordinate averaging steps builds
a doubly stochastic matrix T with a = T b, and Birkhoff peeling turns T into
an explicit mixture with at most (n-1)^2 + 1 terms.  Each peeling step takes
the maximum-product assignment on the residual's support
(scipy.optimize.linear_sum_assignment on -log of the entries) and removes it
with the weight of its smallest entry; while mass remains, such an assignment
exists by Birkhoff's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .distributions import (FiniteSupportDist, ProductLaw, enumerate_product,
                            scaled_source, sum_of, symmetric_stable)
from .dominance import DominationQuery, DominationReport, check_domination, tail_table
from .errors import ParameterError, PreconditionError
from .geometry import absolute_value
from .stats import Estimator, SlackReport, compare_tails
from .weakborell import WBParams, wb_tensorize_constants

DEFAULT_TOL = 1e-9
# Birkhoff peeling: residual mass below this fraction of T's unit row mass is
# float noise, and so is an entry below this fraction of its row's remaining mass.
_MASS_TOL = 1e-12


def _majorisation_violation(a, b) -> Optional[int]:
    """Number k of the first violated partial sum, or None when a < b.

    Partial sums are those of the nonincreasing rearrangements, compared
    within DEFAULT_TOL; a total that differs by more counts as partial sum n.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError("a and b must be equal-length sequences")
    ca = np.cumsum(np.sort(a)[::-1])
    cb = np.cumsum(np.sort(b)[::-1])
    if not abs(ca[-1] - cb[-1]) <= DEFAULT_TOL:
        return len(ca)
    bad = np.nonzero(~(ca[:-1] <= cb[:-1] + DEFAULT_TOL))[0]
    return int(bad[0]) + 1 if len(bad) else None


def _require_majorised(a, b):
    """a and b as float arrays; PreconditionError unless a is majorised by b."""
    bad = _majorisation_violation(a, b)
    if bad is not None:
        raise PreconditionError(f"a is not majorised by b: partial sum {bad} violates")
    return np.asarray(a, dtype=float), np.asarray(b, dtype=float)


def is_majorised(a, b) -> bool:
    """True iff a is majorised by b (partial sums of sorted rearrangements)."""
    return _majorisation_violation(a, b) is None


@dataclass(frozen=True)
class PermutationMixture:
    """Convex combination of permutations of b reconstructing a."""

    a: tuple
    b: tuple
    terms: tuple  # ((permutation index tuple, weight), ...)

    def __post_init__(self):
        w = sum(t[1] for t in self.terms)
        if abs(w - 1.0) > 1e-12:
            raise ParameterError(f"weights sum to {w}, not 1")
        if np.max(np.abs(self.reconstruct() - np.asarray(self.a))) > DEFAULT_TOL:
            raise ParameterError("mixture does not reconstruct a within 1e-9")

    def reconstruct(self) -> np.ndarray:
        b = np.asarray(self.b, dtype=float)
        out = np.zeros_like(b)
        for perm, w in self.terms:
            out += w * b[list(perm)]
        return out

    def to_json(self) -> dict:
        return {"a": list(self.a), "b": list(self.b),
                "terms": [{"permutation": list(p), "weight": w}
                          for p, w in self.terms]}


def _t_transform_chain(a_sorted: np.ndarray, b_sorted: np.ndarray):
    """Averaging chain from b_sorted to a_sorted (both nonincreasing).

    Yields (j, k, lam) steps; applying c <- lam c + (1 - lam) swap_jk(c)
    in order maps b_sorted to a_sorted in at most n-1 steps.
    """
    c = b_sorted.astype(float).copy()
    n = len(c)
    steps = []
    for _ in range(n):
        diff = c - a_sorted
        if np.max(np.abs(diff)) <= 1e-13 * max(1.0, np.max(np.abs(b_sorted))):
            break
        j = int(np.nonzero(diff > 1e-13)[0][0])
        ks = np.nonzero(diff[j + 1:] < -1e-13)[0]
        if len(ks) == 0:
            raise ParameterError("majorisation chain failed; inputs not majorised")
        k = j + 1 + int(ks[0])
        delta = min(c[j] - a_sorted[j], a_sorted[k] - c[k])
        lam = 1.0 - delta / (c[j] - c[k])
        steps.append((j, k, lam))
        cj, ck = c[j], c[k]
        c[j] = lam * cj + (1.0 - lam) * ck
        c[k] = lam * ck + (1.0 - lam) * cj
    return steps


def _doubly_stochastic_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Doubly stochastic T with a = T b, via the averaging chain."""
    n = len(a)
    order_a = np.argsort(-a, kind="stable")
    order_b = np.argsort(-b, kind="stable")
    a_sorted, b_sorted = a[order_a], b[order_b]
    steps = _t_transform_chain(a_sorted, b_sorted)
    t_sorted = np.eye(n)
    for j, k, lam in steps:
        step = np.eye(n)
        step[j, j] = step[k, k] = lam
        step[j, k] = step[k, j] = 1.0 - lam
        t_sorted = step @ t_sorted
    # undo the sorting permutations: a = Ra a_sorted, b_sorted = Sb b
    ra = np.zeros((n, n))
    ra[order_a, np.arange(n)] = 1.0
    sb = np.zeros((n, n))
    sb[np.arange(n), order_b] = 1.0
    return ra @ t_sorted @ sb


def decompose(a, b) -> PermutationMixture:
    """Write a as a convex combination of permutations of b.

    Requires is_majorised(a, b); raises a not-majorised error naming the
    violating partial-sum index otherwise.
    """
    a, b = _require_majorised(a, b)
    n = len(a)
    residual = _doubly_stochastic_matrix(a, b)
    terms = []
    for _ in range((n - 1) ** 2 + 1):
        mass = residual.sum(axis=1, keepdims=True)
        if mass.max() <= _MASS_TOL:
            break
        support = residual > _MASS_TOL * mass
        cost = np.full((n, n), np.inf)
        cost[support] = -np.log(residual[support])
        try:
            rows, cols = linear_sum_assignment(cost)
        except ValueError:  # scipy: no finite-cost perfect matching
            raise ParameterError("extraction failed: no perfect matching on support") from None
        w = float(residual[rows, cols].min())
        terms.append((tuple(int(c) for c in cols), w))
        residual[rows, cols] -= w
    if residual.sum(axis=1).max() > _MASS_TOL:
        raise ParameterError("extraction did not exhaust the matrix in the term budget")
    total = sum(w for _, w in terms)
    terms = [(p, w / total) for p, w in terms]  # absorb float residual
    return PermutationMixture(a=tuple(a), b=tuple(b), terms=tuple(terms))


# ---------------------------------------------------------------------------
# convexity and domination experiments for weighted sums


def schur_convexity_check(a, b, component: FiniteSupportDist, norm) -> SlackReport:
    """E (||sum a_i X_i|| - 1)_+ <= E (||sum b_i X_i|| - 1)_+ for a < b, exact.

    X_i are iid copies of the finite-support component; expectations are
    enumerated over the product support.
    """
    a, b = _require_majorised(a, b)
    n = len(a)
    law = ProductLaw(tuple([component] * n))
    outcomes, probs = enumerate_product(law)

    def weighted_mean(weights):
        sums = np.einsum("i,mid->md", weights, outcomes)
        vals = np.atleast_1d(norm.evaluate(sums))
        return float(probs @ np.maximum(vals - 1.0, 0.0))

    return SlackReport.from_exact("schur_convexity", weighted_mean(a), weighted_mean(b))


def weighted_domination_constants(params: WBParams) -> dict:
    """The domination constant for majorised weights, in both equivalent forms.

    Direct form: max{2/theta, 96 C 9^delta, 12 C 9^delta / (delta - 1)};
    via inherited constants: max{1/theta', C'/(delta - 1)}.  The two agree
    identically; both are reported.
    """
    if params.delta <= 1.0:
        raise ParameterError("weighted domination requires delta > 1; "
                             "for delta < 1 run counterexample_experiment")
    nine = 9.0 ** params.delta
    direct = max(2.0 / params.theta, 96.0 * params.C * nine,
                 12.0 * params.C * nine / (params.delta - 1.0))
    tens = wb_tensorize_constants(params)
    derived = max(1.0 / tens.theta, tens.C / (params.delta - 1.0))
    return {"kappa": direct, "kappa_direct": direct, "kappa_derived": derived,
            "lambda": 2.0}


def _weighted_sum_law(weights, source):
    parts = [scaled_source(source, abs(w)) for w in weights if w != 0.0]
    if not parts:
        raise ParameterError("all weights are zero")
    return sum_of(parts)


def weighted_domination_experiment(a, b, source, params: WBParams, norms,
                                   estimator: Estimator, seed: int = 0,
                                   threads: int = 1) -> DominationReport:
    """Check sum a_i X_i  <_(kappa, 2)  sum b_i X_i for a < b and iid X_i.

    kappa comes from weighted_domination_constants(params); the source must be
    WB(C, delta, theta)-certified by the caller with delta > 1.
    """
    consts = weighted_domination_constants(params)
    if abs(consts["kappa_direct"] - consts["kappa_derived"]) > 1e-9 * consts["kappa"]:
        raise ParameterError("kappa forms disagree")  # unreachable by construction
    _require_majorised(a, b)
    x = _weighted_sum_law(a, source)
    y = _weighted_sum_law(b, source)
    rep = check_domination(DominationQuery(x=x, y=y, kappa=consts["kappa"], lam=2.0,
                                           norms=tuple(norms), estimator=estimator),
                           seed=seed, threads=threads)
    meta = dict(rep.meta, experiment="weighted_domination",
                kappa_direct=consts["kappa_direct"],
                kappa_derived=consts["kappa_derived"],
                params=params.to_json())
    return DominationReport(kappa=rep.kappa, lam=rep.lam, records=rep.records,
                            meta=meta)


# ---------------------------------------------------------------------------
# the delta < 1 counterexample


@dataclass(frozen=True)
class CounterexampleRow:
    n: int
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else float("inf")

    def to_json(self) -> dict:
        return {"n": self.n, "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio}


@dataclass(frozen=True)
class CounterexampleTable:
    delta: float
    kappa: float
    lam: float
    rows: tuple
    witness: Optional[int]  # smallest n > 1 whose row is a violated verdict
    method: str

    def to_json(self) -> dict:
        return {"delta": self.delta, "kappa": self.kappa, "lambda": self.lam,
                "rows": [r.to_json() for r in self.rows],
                "witness": self.witness, "method": self.method,
                "expected_violation": self.witness is not None}

    def csv_rows(self):
        return [(r.n, r.lhs, r.rhs, r.ratio) for r in self.rows]


def counterexample_experiment(delta: float, n_grid: Sequence[int], kappa: float,
                              lam: float, budget: int = 10**6,
                              seed: int = 0) -> CounterexampleTable:
    """Probe the failure of weighted domination for stability index < 1.

    For iid index-delta stable summands with uniform weights 1/n
    against the single weight 1, domination at (kappa, lam) would force
    P(|X_1| > 1) <= kappa P(lam |X_1| > n^{1/delta - 1}), which fails for
    large n.  Both tails come from one tail_table Monte Carlo batch of the
    given budget on the seed's root stream.  The witness is the smallest
    n > 1 where the one verdict rule reports "violated", so it needs the
    Clopper-Pearson intervals (at DEFAULT_CONFIDENCE) to separate, not just
    the point estimates.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError("delta must lie in (0, 1)")
    if kappa < 1.0 or lam < 1.0:
        raise ParameterError("kappa and lambda must be >= 1")
    if any(isinstance(n, bool) or not hasattr(n, "__index__") or n < 1 for n in n_grid):
        raise ParameterError(f"n_grid entries must be positive integers, got {list(n_grid)}")
    ns = sorted(int(n) for n in n_grid)
    (lhs, *rhs_tails), = tail_table(
        symmetric_stable(delta), [absolute_value()],
        [1.0, *(n ** (1.0 / delta - 1.0) / lam for n in ns)],
        Estimator("mc", budget=budget), seed)
    rows = []
    witness = None
    for n, rhs in zip(ns, rhs_tails):
        rows.append(CounterexampleRow(n=n, lhs=lhs.value, rhs=kappa * rhs.value))
        if witness is None and n > 1 and compare_tails(lhs, rhs, kappa) == "violated":
            witness = n
    return CounterexampleTable(delta=delta, kappa=kappa, lam=lam,
                               rows=tuple(rows), witness=witness, method="mc")
