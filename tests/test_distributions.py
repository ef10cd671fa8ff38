"""Sources, sampling determinism, enumeration and analytic tail oracles."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import levy_stable

from domlab import (CapacityError, FiniteSupportDist, ParameterError, ProductLaw,
                    analytic_survival, enumerate_product,
                    enumerate_sum, gaussian, pareto_tail, sample, sample_outcomes,
                    sample_sum, scaled_source, sum_of, symmetric_stable, thin)


# ---------------------------------------------------------------------------
# finite-support laws


def test_rademacher_atoms():
    law = FiniteSupportDist.rademacher()
    assert law.support_size == 2
    assert sorted(v for (v,), _ in law.atoms) == [-1.0, 1.0]
    assert all(p == 0.5 for _, p in law.atoms)


def test_rejects_missing_mirror():
    with pytest.raises(ParameterError, match="mirror"):
        FiniteSupportDist.from_pairs([[1.0], [2.0]], [0.5, 0.5])


def test_rejects_unbalanced_mirror():
    with pytest.raises(ParameterError, match="mirror"):
        FiniteSupportDist.from_pairs([[1.0], [-1.0]], [0.25, 0.75])


def test_rejects_bad_probability_sum():
    with pytest.raises(ParameterError, match="sum to"):
        FiniteSupportDist.from_pairs([[1.0], [-1.0]], [0.3, 0.3])


def test_rejects_duplicate_atoms():
    with pytest.raises(ParameterError, match="duplicate"):
        FiniteSupportDist.from_pairs([[1.0], [1.0], [-1.0]], [0.25, 0.25, 0.5])


def test_rejects_excess_dimension():
    with pytest.raises(ParameterError, match="dimension"):
        FiniteSupportDist.from_pairs([[0.0] * 17], [1.0])


def test_symmetric_pairs_with_zero_atom():
    law = FiniteSupportDist.symmetric_pairs([[1.0, 0.0]], [0.8], zero_prob=0.2)
    assert law.support_size == 3
    assert abs(law.probs().sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# enumeration oracles


def test_enumerate_product_matches_itertools_oracle():
    # [DERIVED] independent oracle: itertools.product over atom lists.
    comps = (FiniteSupportDist.rademacher(1.0),
             FiniteSupportDist.symmetric_pairs([[2.0]], [0.6], zero_prob=0.4),
             FiniteSupportDist.rademacher(0.5))
    law = ProductLaw(comps)
    outcomes, probs = enumerate_product(law)
    expected = {}
    for combo in itertools.product(*[c.atoms for c in comps]):
        key = tuple(v[0] for v, _ in combo)
        expected[key] = math.prod(p for _, p in combo)
    got = {tuple(outcomes[m, :, 0]): probs[m] for m in range(len(probs))}
    assert set(got) == set(expected)
    for key in expected:
        assert got[key] == pytest.approx(expected[key], abs=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumerate_sum_three_rademacher_tail():
    # [DERIVED] P(|e1+e2+e3| > 1) = 2/8: only the two all-equal patterns.
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 3)
    vectors, probs = enumerate_sum(law)
    tail = probs[np.abs(vectors[:, 0]) > 1.0].sum()
    assert tail == pytest.approx(0.25, abs=1e-15)


def test_enumerate_product_cap():
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 4)
    with pytest.raises(CapacityError, match="cap"):
        enumerate_product(law, cap=15)


# ---------------------------------------------------------------------------
# sampling determinism


def test_sample_deterministic_in_seed():
    src = gaussian(np.eye(2))
    a = sample(src, 1000, seed=5)
    b = sample(src, 1000, seed=5)
    c = sample(src, 1000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_thread_count_invariant():
    src = sum_of([gaussian(np.eye(3)), scaled_source(gaussian(np.eye(3)), 2.0)])
    a = sample(src, 200_000, seed=11, threads=1)
    b = sample(src, 200_000, seed=11, threads=8)
    assert np.array_equal(a, b)


def test_sample_streams_are_independent():
    src = pareto_tail(2.0)
    a = sample(src, 1000, seed=7, stream=(1,))
    b = sample(src, 1000, seed=7, stream=(2,))
    assert not np.array_equal(a, b)


def test_sample_prefix_stability():
    # Chunked substreams: the first chunk of a longer run equals a shorter run.
    src = gaussian([[1.0]])
    short = sample(src, 1 << 16, seed=3)
    long = sample(src, (1 << 16) + 500, seed=3)
    assert np.array_equal(short, long[: 1 << 16])


def test_sample_outcomes_columns_differ():
    law = ProductLaw((gaussian(np.eye(1)), gaussian(np.eye(1))))
    out = sample_outcomes(law, 1000, seed=1)
    assert out.shape == (1000, 2, 1)
    assert not np.array_equal(out[:, 0, :], out[:, 1, :])
    total = sample_sum(law, 1000, seed=1)
    assert np.allclose(total, out.sum(axis=1))


# ---------------------------------------------------------------------------
# sampler families against analytic oracles


def _empirical_tail(xs, t):
    return np.count_nonzero(np.abs(xs) > t) / len(xs)


def test_gaussian_sampler_matches_covariance():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    xs = sample(gaussian(cov), 200_000, seed=42)
    assert np.allclose(np.cov(xs.T), cov, atol=0.05)
    assert abs(xs.mean()) < 0.01


def test_gaussian_rejects_non_psd():
    with pytest.raises(ParameterError, match="positive semidefinite"):
        gaussian([[1.0, 2.0], [2.0, 1.0]])


def test_pareto_tail_sampler_matches_survival():
    # [DERIVED] P(|X| > t) = t^-2 for the exponent-2 source.
    xs = sample(pareto_tail(2.0), 400_000, seed=9)[:, 0]
    surv = analytic_survival(pareto_tail(2.0))
    for t in (1.0, 2.0, 5.0):
        assert _empirical_tail(xs, t) == pytest.approx(surv(t), abs=0.01)
    assert surv(2.0) == pytest.approx(0.25, abs=1e-15)
    assert surv(0.5) == 1.0


def test_stable_half_sampler_matches_levy_stable():
    # [DERIVED] index 1/2 is sampled by Chambers-Mallows-Stuck like every
    # index; its two-sided tail is 2 levy_stable.sf(t, 0.5, 0), heavy enough
    # that P(|X| > 100) ~ 0.077.  No closed form is offered for any index.
    xs = sample(symmetric_stable(0.5, scale=1.0), 400_000, seed=13)[:, 0]
    for t in (0.5, 1.0, 4.0, 100.0):
        assert _empirical_tail(xs, t) == pytest.approx(
            2.0 * float(levy_stable.sf(t, 0.5, 0.0)), abs=0.01)
    for index in (0.5, 0.7, 1.0, 2.0):
        assert analytic_survival(symmetric_stable(index)) is None


def test_stable_two_is_gaussian_variance_two():
    # [DERIVED] index 2 with unit scale is N(0, 2).
    xs = sample(symmetric_stable(2.0), 400_000, seed=17)[:, 0]
    assert xs.var() == pytest.approx(2.0, abs=0.05)
    assert abs(xs.mean()) < 0.01


def test_stable_one_is_cauchy():
    # [DERIVED] index 1 is standard Cauchy: P(|X| > 1) = 1/2.
    xs = sample(symmetric_stable(1.0), 400_000, seed=19)[:, 0]
    assert _empirical_tail(xs, 1.0) == pytest.approx(0.5, abs=0.01)


def test_stable_index_validation():
    with pytest.raises(ParameterError):
        symmetric_stable(0.0)
    with pytest.raises(ParameterError):
        symmetric_stable(2.5)


def test_scaled_and_thinned_survival():
    base = pareto_tail(2.0)
    surv = analytic_survival(scaled_source(base, 3.0))
    assert surv(6.0) == pytest.approx((6.0 / 3.0) ** -2, abs=1e-15)
    surv = analytic_survival(thin(base, 0.5))
    assert surv(2.0) == pytest.approx(0.5 * 0.25, abs=1e-15)
    assert analytic_survival(gaussian(np.eye(2))) is None


def test_thin_finite_exact():
    law = thin(FiniteSupportDist.rademacher(), 0.25)
    masses = dict(law.atoms)
    assert masses[(0.0,)] == pytest.approx(0.75, abs=1e-15)
    assert masses[(1.0,)] == pytest.approx(0.125, abs=1e-15)
    assert masses[(-1.0,)] == pytest.approx(0.125, abs=1e-15)


def test_thin_keep_one_is_identity():
    law = FiniteSupportDist.rademacher()
    assert thin(law, 1.0) is law

