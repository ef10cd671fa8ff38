"""Majorisation, constructive permutation mixtures, and weighted-sum experiments.

a is majorised by b when the partial sums of their nonincreasing
rearrangements compare and the totals agree; equivalently a lies in the
permutohedron of b, the convex hull of the permutations of b (Rado 1952).
The decomposition here is fully constructive: a walk on the permutohedron
keeps the face that holds the current point as an ordered partition of the
indices, and each step moves from the face's vertex through the point to
the face's boundary, which splits a block; at most n - 1 splits give a
mixture of at most n permutations, the bound of Caratheodory's theorem on
a polytope of dimension n - 1.  Partial sums and reconstructions are
compared within DEFAULT_TOL times the largest |entry| of a and b.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .distributions import (FiniteSupportDist, Law, ProductLaw, enumerate_sum,
                            scaled_source, symmetric_stable)
from .dominance import DominationQuery, DominationReport, check_domination, tail_table
from .errors import (ParameterError, PreconditionError, _check_count, _check_list,
                     _check_real, _param_rows)
from .geometry import absolute_value, norm_family
from .stats import EXACT_SLACK_TOL, Estimator, SlackReport, compare_tails
from .weakborell import WBParams, wb_tensorize_constants

# Relative to the largest |entry| of a and b: partial sums and reconstructions.
DEFAULT_TOL = 1e-9


def weight_pair(a, b):
    """a and b as the two rows of a read-only float array, checked to be nonempty,
    finite and of equal length."""
    return _param_rows([a, b], "[a, b]")


def _tolerance(a, b) -> float:
    """DEFAULT_TOL times the largest |entry| of a and b: no absolute floor, so
    the order and the mixture check do not depend on the weights' scale."""
    return DEFAULT_TOL * max(np.max(np.abs(a)), np.max(np.abs(b)))


def _majorisation_violation(a, b) -> Optional[int]:
    """Number k of the first violated partial sum, or None when a < b.

    Partial sums are those of the nonincreasing rearrangements, compared
    within _tolerance(a, b); a total that differs by more counts as partial
    sum n.
    """
    a, b = weight_pair(a, b)
    tol = _tolerance(a, b)
    ca = np.cumsum(np.sort(a)[::-1])
    cb = np.cumsum(np.sort(b)[::-1])
    ok = ca <= cb + tol
    ok[-1] = abs(ca[-1] - cb[-1]) <= tol
    bad = np.flatnonzero(~ok)
    return int(bad[0]) + 1 if len(bad) else None


def _require_majorised(a, b):
    """a and b as float arrays; PreconditionError unless a is majorised by b."""
    bad = _majorisation_violation(a, b)
    if bad is not None:
        raise PreconditionError(f"a is not majorised by b: partial sum {bad} violates")
    return weight_pair(a, b)


@dataclass(frozen=True)
class PermutationMixture:
    """Convex combination of permutations of b reconstructing a."""

    a: tuple
    b: tuple
    terms: tuple  # ((permutation index tuple, weight), ...)

    def __post_init__(self):
        w = sum(t[1] for t in self.terms)
        if abs(w - 1.0) > EXACT_SLACK_TOL:
            raise ParameterError(f"weights sum to {w}, not 1")
        a, b = np.asarray(self.a), np.asarray(self.b)
        if np.max(np.abs(self.reconstruct() - a)) > _tolerance(a, b):
            raise ParameterError(f"mixture does not reconstruct a within {DEFAULT_TOL} "
                                 "times the largest |entry| of a and b")

    def reconstruct(self) -> np.ndarray:
        """sum_k w_k b[perm_k], the terms added in order to a zero start, as a
        loop of out += w_k * b[perm_k] adds them: numpy reduces axis 0 of a
        (terms, n) array term by term when n >= 2.  For n = 1 it sums
        pairwise, and decompose gives a one-entry b one term."""
        b = np.asarray(self.b, dtype=float)
        perms, weights = zip(*self.terms)
        scaled = np.array(weights)[:, None] * b[np.array(perms)]
        return np.add.reduce(scaled, axis=0, initial=0.0)

    def to_json(self) -> dict:
        return {"a": list(self.a), "b": list(self.b),
                "terms": [{"permutation": list(p), "weight": w}
                          for p, w in self.terms]}


def _longest_step(rest, mass, v, s, block, open_cut):
    """(w, cut) of the longest step from x = rest / mass away from the face's vertex v.

    w / mass is the largest lam with (x - lam v) / (1 - lam) still in the
    face: the least ratio sum(s - x) / sum(s - v) over the proper top-t
    prefixes of each block ordered by z = x - lam v, among those with a
    positive denominator.  Dinkelbach's iteration finds it from lam = 1, each
    pass ordering by the z of the last ratio.  Everything is kept times mass,
    so nothing is divided by a small mass.  cut is (position, order) of the
    prefix that binds, or None when none does and x is the vertex v.
    """
    w, cut = mass, None
    share = mass * s
    while w > 0.0:
        order = np.lexsort((w * v - rest, block))
        num = (share - rest[order]).cumsum()
        den = (s - v[order]).cumsum()
        gap = np.where(open_cut & (den > 0.0), num - w * den, np.inf)
        p = int(gap.argmin())
        ratio = max(float(num[p] / den[p]), 0.0) if gap[p] < 0.0 else w
        if not ratio < w:  # also a ratio that rounding leaves at w: the search ends
            break
        w, cut = ratio, (p, order)
    return w, cut


def decompose(a, b) -> PermutationMixture:
    """Write a as a convex combination of at most n permutations of b.

    A walk on the permutohedron of b.  The face that holds the current
    point x (a at the start) is kept as an ordered partition of the indices
    into blocks, block j taking the next share of b sorted nonincreasing:
    block is each index's block, and open_cut marks the sorted positions
    that end none.  Each step takes the face's vertex v (each block's share
    laid on its indices in nonincreasing order of x, stable), keeps v with
    the largest weight w that leaves the rest of the mass in the face, and
    splits a block at the prefix that became tight.  A tight set is never
    re-detected by a tolerance; a step of weight 0 only splits.  x is kept
    as rest = mass x, the part of a not yet written, with rest <- rest - w v
    and mass <- mass - w.  With at most n - 1 splits and the last vertex
    taking the mass left, there are at most n terms.

    Raises a not-majorised error naming the first violated partial-sum
    index unless a is majorised by b.
    """
    a, b = _require_majorised(a, b)
    n = len(a)
    order_b = np.argsort(-b, kind="stable")
    s = b[order_b]  # a block's share is s at the block's run of sorted positions
    rest = a
    block = np.zeros(n, dtype=np.intp)
    open_cut = np.arange(n) < n - 1
    perm = np.empty(n, dtype=np.intp)
    mass = 1.0
    terms = []
    while True:
        perm[np.lexsort((-rest, block))] = order_b
        v = b[perm]
        w, cut = _longest_step(rest, mass, v, s, block, open_cut)
        if cut is None:
            break
        p, order = cut
        if w > 0.0:
            terms.append((tuple(perm.tolist()), w))
            rest = rest - w * v
            mass -= w
        block[order[p + 1:]] += 1  # the prefix's block splits after position p
        open_cut[p] = False
    terms.append((tuple(perm.tolist()), mass))
    return PermutationMixture(a=tuple(a), b=tuple(b), terms=tuple(terms))


# ---------------------------------------------------------------------------
# convexity and domination experiments for weighted sums


def _weighted_sum_law(weights, source) -> ProductLaw:
    """The law of sum_i w_i X_i over the nonzero weights, X_i iid copies of source;
    finite parts when source is finite, and the point mass at 0 when every
    weight is zero."""
    parts = tuple(scaled_source(source, w) for w in weights if w != 0.0)
    return ProductLaw(parts or (FiniteSupportDist.from_pairs([[0.0] * source.dimension], [1.0]),))


def schur_convexity_check(a, b, component: Law, norm) -> SlackReport:
    """E (||sum a_i X_i|| - 1)_+ <= E (||sum b_i X_i|| - 1)_+ for a < b, exact.

    X_i are iid copies of the finite-support component; each expectation
    runs over the atoms of enumerate_sum on _weighted_sum_law.
    """
    a, b = _require_majorised(a, b)
    norm_family([norm], component.dimension)

    def weighted_mean(weights):
        sums, masses = enumerate_sum(_weighted_sum_law(weights, component))
        return float(masses @ np.maximum(norm.evaluate(sums) - 1.0, 0.0))

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
    tens = wb_tensorize_constants(params)  # raises where 9^delta overflows
    nine = 9.0 ** params.delta
    direct = max(2.0 / params.theta, 96.0 * params.C * nine,
                 12.0 * params.C * nine / (params.delta - 1.0))
    derived = max(1.0 / tens.theta, tens.C / (params.delta - 1.0))
    return {"kappa": direct, "kappa_direct": direct, "kappa_derived": derived,
            "lambda": 2.0}


def weighted_domination_experiment(a, b, source, params: WBParams, norms,
                                   estimator: Estimator, seed: int = 0,
                                   threads: int = 1) -> DominationReport:
    """Check sum a_i X_i  <_(kappa, 2)  sum b_i X_i for a < b and iid X_i.

    kappa comes from weighted_domination_constants(params); the source must be
    WB(C, delta, theta)-certified by the caller with delta > 1.
    """
    consts = weighted_domination_constants(params)
    a, b = _require_majorised(a, b)
    x = _weighted_sum_law(a, source)
    y = _weighted_sum_law(b, source)
    rep = check_domination(DominationQuery(x=x, y=y, kappa=consts["kappa"], lam=2.0,
                                           norms=tuple(norms), estimator=estimator),
                           seed=seed, threads=threads)
    return replace(rep, meta=dict(rep.meta, experiment="weighted_domination",
                                  kappa_direct=consts["kappa_direct"],
                                  kappa_derived=consts["kappa_derived"],
                                  params=params.to_json()))


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

    def to_json(self) -> dict:  # an infinite ratio (rhs = 0) is written as null
        return {"n": self.n, "lhs": self.lhs, "rhs": self.rhs,
                "ratio": self.ratio if self.rhs > 0 else None}


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


def counterexample_inputs(delta: float, n_grid: Sequence[int], kappa: float,
                          lam: float):
    """(delta, sorted n grid, kappa, lambda, tail thresholds [1, n^(1/delta - 1) / lambda
    for each n]) of counterexample_experiment, each read and checked."""
    delta, lam = _check_real(delta, "delta", "(0, 1)"), _check_real(lam, "lambda", "[1, inf)")
    ns = sorted(_check_count(n, f"n_grid[{i}]", 1)
                for i, n in enumerate(_check_list(n_grid, "n_grid")))
    try:
        thresholds = [1.0, *(n ** (1.0 / delta - 1.0) / lam for n in ns)]
    except OverflowError:
        raise ParameterError(f"n_grid: n^(1/delta - 1) overflows at delta = {delta}") from None
    return delta, ns, _check_real(kappa, "kappa", "[1, inf)"), lam, thresholds


def counterexample_experiment(delta: float, n_grid: Sequence[int], kappa: float,
                              lam: float, budget: int = 10**6, seed: int = 0,
                              threads: int = 1) -> CounterexampleTable:
    """Probe the failure of weighted domination for stability index < 1.

    For iid index-delta stable summands with uniform weights 1/n
    against the single weight 1, domination at (kappa, lam) would force
    P(|X_1| > 1) <= kappa P(lam |X_1| > n^{1/delta - 1}), which fails for
    large n.  Both tails come from one tail_table Monte Carlo batch of the
    given budget on the seed's root stream.  The witness is the smallest
    n > 1 where the one verdict rule reports "violated", so it needs the
    Clopper-Pearson intervals (at DEFAULT_CONFIDENCE) to separate, not just
    the point estimates.  ``threads`` runs chunks in parallel; no result depends on it.
    """
    delta, ns, kappa, lam, thresholds = counterexample_inputs(delta, n_grid, kappa, lam)
    (lhs, *rhs_tails), = tail_table(symmetric_stable(delta), [absolute_value()], thresholds,
                                    Estimator("mc", budget=budget), seed, threads=threads)
    rows = []
    witness = None
    for n, rhs in zip(ns, rhs_tails):
        rows.append(CounterexampleRow(n=n, lhs=lhs.value, rhs=kappa * rhs.value))
        if witness is None and n > 1 and compare_tails(lhs, rhs, kappa) == "violated":
            witness = n
    return CounterexampleTable(delta=delta, kappa=kappa, lam=lam,
                               rows=tuple(rows), witness=witness, method="mc")
