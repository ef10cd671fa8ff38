"""Majorisation order, constructive mixtures, and weighted-sum experiments."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import levy_stable

import domlab.dominance as dominance
import domlab.majorisation as majorisation
from domlab import (Estimator, FiniteSupportDist, ParameterError,
                    PreconditionError, WBParams, absolute_value,
                    counterexample_experiment, decompose, euclidean,
                    pareto_tail, scale_norm, schur_convexity_check,
                    weighted_domination_constants, weighted_domination_experiment)
from domlab.rng import CHUNK, map_chunks


def _random_majorised_pair(rng, n):
    """a = convex mixture of random permutations of b, hence a < b."""
    b = np.sort(rng.standard_normal(n))[::-1]
    k = int(rng.integers(2, 5))
    w = rng.random(k)
    w /= w.sum()
    a = np.zeros(n)
    for wi in w:
        a += wi * rng.permutation(b)
    return a, b


def _uniform_random_pair(seed, n):
    """a = 1/n against normalised uniform-random b: a < b always."""
    b = np.random.default_rng(seed).random(n)
    return np.full(n, 1.0 / n), b / b.sum()


def _bench_pair(kind, n, i):
    """The benchmark's pairs: mixtures at n = 8 and 12, uniform against random at n = 30."""
    if kind == "mixture":
        return _random_majorised_pair(np.random.default_rng([1000 + n, i]), n)
    return _uniform_random_pair(i, n)


BENCH_PAIRS = ([("mixture", 8, i) for i in range(3)] + [("mixture", 12, i) for i in range(3)]
               + [("uniform", 30, seed) for seed in (3000, 3001)])


def _assert_valid_mixture(mix, a, b):
    n = len(a)
    weights = np.array([w for _, w in mix.terms])
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    assert np.max(np.abs(mix.reconstruct() - a)) <= 1e-9 * scale
    assert weights.min() >= -1e-12
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert len(mix.terms) <= n
    for perm, _ in mix.terms:
        assert sorted(perm) == list(range(n))


# ---------------------------------------------------------------------------
# the order itself


def test_is_majorised_basic():
    violation = majorisation._majorisation_violation
    assert violation([0.5, 0.5], [1.0, 0.0]) is None
    assert violation([1.0, 0.0], [1.0, 0.0]) is None
    assert violation([1.0, 0.0], [0.5, 0.5]) == 1
    assert violation([0.6, 0.6], [1.0, 0.0]) == 2  # totals differ: partial sum n
    # [DERIVED] partial sums 0.9 > 0.5 and totals 1.2 != 1.0: the first is named
    assert violation([0.9, 0.3], [0.5, 0.5]) == 1


def test_is_majorised_permutation_invariant():
    assert majorisation._majorisation_violation([0.2, 0.5, 0.3], [0.0, 1.0, 0.0]) is None
    assert majorisation._majorisation_violation([0.3, 0.5, 0.2], [1.0, 0.0, 0.0]) is None


def test_is_majorised_within_a_tolerance_relative_to_the_largest_entry():
    violation = majorisation._majorisation_violation
    # [DERIVED] partial sum 1 is 5e-10 > 0, far beyond 1e-9 * 5e-10: an absolute
    # 1e-9 once called this pair majorised.
    assert violation([5e-10, -5e-10], [0.0, 0.0]) == 1
    assert violation([0.0, 0.0], [0.0, 0.0]) is None
    # A total off by 2e-9 of the largest entry is not majorised at any scale,
    # one off by 0.5e-9 of it is.
    for scale in (1e-300, 1e-12, 1.0, 1e6, 1e300):
        assert violation([0.5 * scale, 0.5 * scale], [scale, 2e-9 * scale]) == 2
        assert violation([0.5 * scale, 0.5 * scale], [scale, 0.5e-9 * scale]) is None


# A valid n = 8 mixture pair, scaled: at 1e-12 the T-transform chain once failed
# ("majorisation chain failed", or an uncaught IndexError), at 1e6 the pair was
# called not majorised or its mixture did not reconstruct a within an absolute 1e-9.
@pytest.mark.parametrize("seed, scale", [(3, 1e-12), (5, 1e-12), (0, 1e6), (54, 1e6)])
def test_decompose_does_not_depend_on_the_scale(seed, scale):
    a, b = _random_majorised_pair(np.random.default_rng(seed), 8)
    assert majorisation._majorisation_violation(a * scale, b * scale) is None
    _assert_valid_mixture(decompose(a * scale, b * scale), a * scale, b * scale)


def test_mixture_check_is_relative_to_the_largest_entry():
    # [DERIVED] at scale 1e-12 the mixture reconstructs [1e-12, 0] and a is
    # [0.5e-12, 0.5e-12]: off by 5e-13, within an absolute 1e-9 but not relative to 1e-12.
    with pytest.raises(ParameterError, match="does not reconstruct"):
        majorisation.PermutationMixture(a=(0.5e-12, 0.5e-12), b=(1e-12, 0.0),
                                        terms=(((0, 1), 1.0),))


def test_is_majorised_shape_validation():
    with pytest.raises(ParameterError):
        majorisation._majorisation_violation([1.0], [1.0, 0.0])
    # Unequal lengths are rejected before any partial sum is compared, by
    # every entry point that takes a pair of weight vectors.
    a, b = [0.6, 0.2, 0.2], [0.9, 0.1]
    with pytest.raises(ParameterError, match="equal-length"):
        weighted_domination_experiment(a, b, pareto_tail(2.0),
                                       WBParams(C=1.0, delta=2.0, theta=0.5),
                                       norms=[absolute_value()],
                                       estimator=Estimator("mc", budget=10))
    with pytest.raises(ParameterError, match="equal-length"):
        schur_convexity_check(a, b, FiniteSupportDist.rademacher(), absolute_value())


# ---------------------------------------------------------------------------
# the constructive decomposition


def test_decompose_edge_oracle():
    # [DERIVED] (2, 3, 1) and (3, 2, 1) differ by one swap of the top two entries,
    # so they span an edge of the permutohedron of b = (3, 2, 1), and
    # a = 0.75 (2, 3, 1) + 0.25 (3, 2, 1) = (2.25, 2.75, 1) lies inside it.  A point
    # inside a face is a mixture of that face's vertices only: these two, with
    # these weights.
    mix = decompose([2.25, 2.75, 1.0], [3.0, 2.0, 1.0])
    assert len(mix.terms) == 2
    weights = dict(mix.terms)
    assert weights[(1, 0, 2)] == pytest.approx(0.75, abs=1e-15)
    assert weights[(0, 1, 2)] == pytest.approx(0.25, abs=1e-15)


def test_decompose_two_point_oracle():
    # [DERIVED] (0.5, 0.5) from (0.9, 0.1): T = [[.5,.5],[.5,.5]] splits into
    # identity and swap with weight 1/2 each.
    mix = decompose([0.5, 0.5], [0.9, 0.1])
    weights = {perm: w for perm, w in mix.terms}
    assert weights[(0, 1)] == pytest.approx(0.5, abs=1e-12)
    assert weights[(1, 0)] == pytest.approx(0.5, abs=1e-12)


def test_decompose_identity_case():
    mix = decompose([0.9, 0.1], [0.9, 0.1])
    assert mix.terms == (((0, 1), 1.0),)


def test_decompose_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        a, b = _random_majorised_pair(rng, n)
        _assert_valid_mixture(decompose(a, b), a, b)


# Valid pairs on which peeling with an absolute support cut found no perfect
# matching: mixture pairs from default_rng([seed, n]), and the benchmark's
# uniform-against-random pairs at n = 30.
@pytest.mark.parametrize("seed, n", [(10, 8), (318, 8), (590, 8),
                                     (4, 12), (6, 12), (8, 12), (22, 12)])
def test_decompose_mixture_regressions(seed, n):
    a, b = _random_majorised_pair(np.random.default_rng([seed, n]), n)
    _assert_valid_mixture(decompose(a, b), a, b)


@pytest.mark.parametrize("seed", [3000, 3001])
def test_decompose_uniform_against_random_n30(seed):
    a, b = _uniform_random_pair(seed, 30)
    _assert_valid_mixture(decompose(a, b), a, b)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       uniform=st.booleans(), exponent=st.integers(-300, 300))
def test_decompose_always_extracts(n, seed, uniform, exponent):
    if uniform:
        a, b = _uniform_random_pair(seed, n)
    else:
        a, b = _random_majorised_pair(np.random.default_rng(seed), n)
    scale = 10.0 ** exponent
    _assert_valid_mixture(decompose(a * scale, b * scale), a * scale, b * scale)


def test_decompose_rejects_non_majorised():
    with pytest.raises(PreconditionError, match="partial sum"):
        decompose([1.0, 0.0], [0.5, 0.5])


@pytest.mark.parametrize("pair", BENCH_PAIRS)
def test_decompose_bench_pairs_take_at_most_n_terms_and_repeat(pair):
    a, b = _bench_pair(*pair)
    mix = decompose(a, b)
    _assert_valid_mixture(mix, a, b)
    assert decompose(a, b).terms == mix.terms


def test_decompose_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(majorisation.__file__))
    code = ("import sys, domlab; domlab.decompose([0.2, 0.5, 0.3], [0.0, 1.0, 0.0]); "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"


def _reconstruct_loop(mix):
    b = np.asarray(mix.b, dtype=float)
    out = np.zeros_like(b)
    for perm, w in mix.terms:
        out += w * b[list(perm)]
    return out


def test_reconstruct_adds_the_terms_in_order_from_zero():
    # 0.0 + (-0.0) is 0.0: a -0.0 entry of b reconstructs as 0.0, as the loop gives.
    b = [2.0, -0.0, -1.0]
    mix = decompose(b, b)
    assert mix.terms == (((0, 1, 2), 1.0),)
    assert _reconstruct_loop(mix).tobytes() == mix.reconstruct().tobytes()
    assert np.signbit(mix.reconstruct()).tolist() == [False, False, True]
    rng = np.random.default_rng(5)
    for n in (2, 8, 12, 30):
        b = rng.standard_normal(n)
        b[n // 2] = -0.0
        a = sum(w * rng.permutation(b) for w in (0.2, 0.3, 0.5))
        for mix in (decompose(a, b), decompose(*_uniform_random_pair(n, n))):
            assert len(mix.terms) > 1
            assert _reconstruct_loop(mix).tobytes() == mix.reconstruct().tobytes()


def test_mixture_serialization():
    mix = decompose([0.5, 0.5], [1.0, 0.0])
    blob = mix.to_json()
    assert blob["a"] == [0.5, 0.5]
    assert sum(t["weight"] for t in blob["terms"]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# convexity along the order


def test_schur_convexity_two_point():
    comp = FiniteSupportDist.rademacher()
    rep = schur_convexity_check([0.5, 0.5], [1.0, 0.0], comp, absolute_value())
    assert rep.holds
    # [DERIVED] lhs: |S| in {0, 1}; (|S|-1)_+ = 0. rhs: |S| = 1 surely; 0.
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)


def test_schur_convexity_with_slack():
    comp = FiniteSupportDist.rademacher(2.0)
    rep = schur_convexity_check([0.5, 0.5], [1.0, 0.0], comp, absolute_value())
    # [DERIVED] lhs: |S| in {0, 2} each w.p. 1/2 -> E(|S|-1)_+ = 1/2;
    #           rhs: |S| = 2 surely -> 1.
    assert rep.lhs == pytest.approx(0.5, abs=1e-15)
    assert rep.rhs == pytest.approx(1.0, abs=1e-15)
    assert rep.holds


def test_schur_convexity_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a, b = _random_majorised_pair(rng, n)
        comp = FiniteSupportDist.symmetric_pairs(rng.standard_normal((2, 2)),
                                                 [0.5, 0.3], zero_prob=0.2)
        assert schur_convexity_check(a, b, comp, euclidean(2)).holds


def test_schur_convexity_all_zero_weights():
    # [DERIVED] lhs: the sum is 0 surely, so (0 - 1)_+ = 0; rhs: e1 - e2 is
    # +-2 with mass 1/4 each and 0 with mass 1/2, so E(|S| - 1)_+ = 1/2.
    rep = schur_convexity_check([0.0, 0.0], [1.0, -1.0], FiniteSupportDist.rademacher(),
                                absolute_value())
    assert (rep.lhs, rep.rhs, rep.verdict) == (0.0, 0.5, "holds")


def test_schur_convexity_precondition():
    comp = FiniteSupportDist.rademacher()
    with pytest.raises(PreconditionError):
        schur_convexity_check([1.0, 0.0], [0.5, 0.5], comp, absolute_value())


# ---------------------------------------------------------------------------
# the weighted-domination constant


def test_weighted_domination_constants_delta_two():
    # [DERIVED] max{2/theta, 96 C 9^delta, 12 C 9^delta/(delta-1)}
    #         = max{4, 7776, 972} = 7776 for C = 1, delta = 2, theta = 0.5.
    out = weighted_domination_constants(WBParams(C=1.0, delta=2.0, theta=0.5))
    assert out["kappa"] == pytest.approx(7776.0, abs=1e-9)
    assert out["kappa_direct"] == pytest.approx(out["kappa_derived"], rel=1e-14)
    assert out["lambda"] == 2.0


def test_weighted_domination_constants_theta_dominates():
    out = weighted_domination_constants(WBParams(C=1.0, delta=2.0, theta=1e-5))
    assert out["kappa"] == pytest.approx(2e5, rel=1e-12)


def test_weighted_domination_constants_needs_delta_above_one():
    with pytest.raises(ParameterError, match="delta"):
        weighted_domination_constants(WBParams(C=1.0, delta=0.5, theta=0.5))


def test_weighted_domination_constants_reject_an_overflowing_delta():
    # 9.0 ** 400 once raised OverflowError before the inherited constants were formed.
    with pytest.raises(ParameterError, match="delta = 400.0 is too large"):
        weighted_domination_constants(WBParams(C=1.0, delta=400.0, theta=0.5))


def test_weighted_domination_no_violation():
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    a = np.array([0.5, 0.5])
    b = np.array([1.0, 0.0])
    rep = weighted_domination_experiment(
        a, b, pareto_tail(2.0), params,
        norms=[scale_norm(absolute_value(), 0.05)],
        estimator=Estimator("mc", budget=100_000), seed=7)
    assert "violated" not in rep.verdicts()
    assert rep.kappa == pytest.approx(7776.0)
    assert rep.lam == 2.0


def test_weighted_domination_all_zero_weights():
    # The all-zero weights give the point mass at 0, whose tail is exactly 0.
    rep = weighted_domination_experiment(
        [0.0, 0.0], [1.0, -1.0], pareto_tail(2.0), WBParams(C=1.0, delta=2.0, theta=0.5),
        norms=[absolute_value()], estimator=Estimator("mc", budget=1000), seed=3)
    (rec,) = rep.records
    assert rec.px.exact and rec.px.value == 0.0
    assert rep.verdicts() == ["holds"]


def test_weighted_domination_precondition():
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    with pytest.raises(PreconditionError):
        weighted_domination_experiment([1.0, 0.0], [0.5, 0.5], pareto_tail(2.0),
                                       params, norms=[absolute_value()],
                                       estimator=Estimator("mc", budget=10))


# ---------------------------------------------------------------------------
# the heavy-tail counterexample


def test_counterexample_mc_witness_on_the_true_law():
    # [DERIVED] for delta = 1/2 and lambda = 1 the rhs threshold is n itself;
    # 100 P(|X| > n) = 200 levy_stable.sf(n, 0.5, 0) first drops below
    # P(|X| > 1) = 0.543 at n = 65536 (0.311; 0.621 at n = 16384).
    budget = 100_000
    table = counterexample_experiment(0.5, [4 ** k for k in range(9)], kappa=100.0,
                                      lam=1.0, budget=budget, seed=1)
    assert table.method == "mc"
    assert table.witness == 65536
    assert table.to_json()["expected_violation"] is True
    for row in table.rows:
        for value, t in ((row.lhs, 1.0), (row.rhs / 100.0, float(row.n))):
            p = 2.0 * float(levy_stable.sf(t, 0.5, 0.0))
            assert abs(value - p) < 5.0 * math.sqrt(p * (1.0 - p) / budget)


def test_counterexample_mc_path():
    table = counterexample_experiment(0.7, [2, 4096, 1048576], kappa=10.0,
                                      lam=1.0, budget=200_000, seed=5)
    assert table.method == "mc"
    assert table.witness is not None


def test_counterexample_mc_witness_needs_separated_intervals():
    # At 500 samples the n = 64 point estimates cross (lhs > rhs), but the
    # 99% Clopper-Pearson intervals still overlap, so no witness is claimed.
    table = counterexample_experiment(0.7, [1, 4, 16, 64], kappa=2.0, lam=1.0,
                                      budget=500, seed=1)
    assert table.rows[-1].lhs > table.rows[-1].rhs
    assert table.witness is None
    assert table.to_json()["expected_violation"] is False


def test_counterexample_threads_leave_the_report_unchanged(monkeypatch):
    # Three rng.CHUNK chunks, counted on 1 and on 3 worker threads.
    seen = []

    def spy(fn, count, threads=1):
        seen.append(threads)
        return map_chunks(fn, count, threads)
    monkeypatch.setattr(dominance, "map_chunks", spy)
    reports = [json.dumps(counterexample_experiment(
        0.7, [1, 64, 4096], kappa=10.0, lam=1.0, budget=3 * CHUNK, seed=2,
        threads=threads).to_json()) for threads in (1, 3)]
    assert seen == [1, 3]
    assert reports[0] == reports[1]


def test_counterexample_validation():
    with pytest.raises(ParameterError):
        counterexample_experiment(1.5, [2], kappa=10.0, lam=1.0)
    with pytest.raises(ParameterError):
        counterexample_experiment(0.5, [2], kappa=0.5, lam=1.0)


@pytest.mark.parametrize("bad", [-1, 0, 2.5, True, "4"])
def test_counterexample_n_grid_needs_positive_integers(bad):
    with pytest.raises(ParameterError, match=r"n_grid\[1\] must be an integer >= 1"):
        counterexample_experiment(0.7, [4, bad], kappa=10.0, lam=1.0, budget=100)
