"""Majorisation order, constructive mixtures, and weighted-sum experiments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import levy_stable

from domlab import (Estimator, FiniteSupportDist, ParameterError,
                    PreconditionError, WBParams, absolute_value,
                    counterexample_experiment, decompose, euclidean,
                    is_majorised, pareto_tail, scale_norm, schur_convexity_check,
                    weighted_domination_constants, weighted_domination_experiment)


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


def _assert_valid_mixture(mix, a, b):
    n = len(a)
    weights = np.array([w for _, w in mix.terms])
    assert np.max(np.abs(mix.reconstruct() - a)) <= 1e-9
    assert weights.min() >= -1e-12
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert len(mix.terms) <= (n - 1) ** 2 + 1
    for perm, _ in mix.terms:
        assert sorted(perm) == list(range(n))


# ---------------------------------------------------------------------------
# the order itself


def test_is_majorised_basic():
    assert is_majorised([0.5, 0.5], [1.0, 0.0])
    assert is_majorised([1.0, 0.0], [1.0, 0.0])
    assert not is_majorised([1.0, 0.0], [0.5, 0.5])
    assert not is_majorised([0.6, 0.6], [1.0, 0.0])  # totals differ


def test_is_majorised_permutation_invariant():
    assert is_majorised([0.2, 0.5, 0.3], [0.0, 1.0, 0.0])
    assert is_majorised([0.3, 0.5, 0.2], [1.0, 0.0, 0.0])


def test_is_majorised_shape_validation():
    with pytest.raises(ParameterError):
        is_majorised([1.0], [1.0, 0.0])
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
       uniform=st.booleans())
def test_decompose_always_extracts(n, seed, uniform):
    if uniform:
        a, b = _uniform_random_pair(seed, n)
    else:
        a, b = _random_majorised_pair(np.random.default_rng(seed), n)
    _assert_valid_mixture(decompose(a, b), a, b)


def test_decompose_rejects_non_majorised():
    with pytest.raises(PreconditionError, match="partial sum"):
        decompose([1.0, 0.0], [0.5, 0.5])


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


def test_counterexample_validation():
    with pytest.raises(ParameterError):
        counterexample_experiment(1.5, [2], kappa=10.0, lam=1.0)
    with pytest.raises(ParameterError):
        counterexample_experiment(0.5, [2], kappa=0.5, lam=1.0)


@pytest.mark.parametrize("bad", [-1, 0, 2.5, True, "4"])
def test_counterexample_n_grid_needs_positive_integers(bad):
    with pytest.raises(ParameterError, match="positive integers"):
        counterexample_experiment(0.7, [4, bad], kappa=10.0, lam=1.0, budget=100)
