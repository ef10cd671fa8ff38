"""Norm evaluators: axioms, serialization round-trips, random families."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import (EllipsoidNorm, LpNorm, ParameterError, PolytopeGauge,
                    ScaledNorm, WeightedLpNorm, absolute_value, euclidean,
                    norm_from_spec, norm_to_spec, random_norm_family, scale_norm)
from domlab.inequalities import signed_mean_over_outcomes

FAMILY = random_norm_family(seed=123, d=3, size=12)


# ---------------------------------------------------------------------------
# point values


def test_lp_values():
    n1 = LpNorm(dimension=2, p=1.0)
    n2 = LpNorm(dimension=2, p=2.0)
    ninf = LpNorm(dimension=2, p=np.inf)
    x = np.array([3.0, -4.0])
    assert n1.evaluate(x) == pytest.approx(7.0)
    assert n2.evaluate(x) == pytest.approx(5.0)
    assert ninf.evaluate(x) == pytest.approx(4.0)


def test_weighted_lp_values():
    n = WeightedLpNorm(dimension=2, p=1.0, weights=(2.0, 0.5))
    assert n.evaluate(np.array([1.0, 4.0])) == pytest.approx(4.0)


def test_ellipsoid_values():
    n = EllipsoidNorm(matrix=((4.0, 0.0), (0.0, 1.0)))
    assert n.evaluate(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert n.evaluate(np.array([0.0, 3.0])) == pytest.approx(3.0)


def test_polytope_values():
    n = PolytopeGauge(directions=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    assert n.evaluate(np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_scaled_values():
    n = scale_norm(euclidean(2), 10.0)
    assert n.evaluate(np.array([3.0, 4.0])) == pytest.approx(50.0)


def test_absolute_value_is_scalar_modulus():
    n = absolute_value()
    assert n.evaluate(np.array([-2.5])) == pytest.approx(2.5)


def test_batch_matches_single():
    xs = np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [3.0, -3.0, 0.5]])
    for norm in FAMILY:
        batch = np.atleast_1d(norm.evaluate(xs))
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(norm.evaluate(x), rel=1e-12)


# ---------------------------------------------------------------------------
# column-major kernels against the row-major formulas they replaced


def _row_major(norm, x):
    """The kernels' previous formulas, reducing over the last axis of an (m, d) batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(norm, ScaledNorm):
        return norm.factor * _row_major(norm.inner, x)
    if isinstance(norm, LpNorm):
        return np.linalg.norm(x, ord=norm.p, axis=-1)
    if isinstance(norm, WeightedLpNorm):
        return np.linalg.norm(x * np.asarray(norm.weights), ord=norm.p, axis=-1)
    if isinstance(norm, EllipsoidNorm):
        q = np.einsum("md,de,me->m", x, np.array(norm.matrix, dtype=float), x)
        return np.sqrt(np.maximum(q, 0.0))
    return np.abs(x @ np.array(norm.directions, dtype=float).T).max(axis=-1)


def _column_major(norm, x):
    """The column-major formulas that the row-wise kernels replaced, on the
    (d, m) transpose of an (m, d) batch."""
    xt = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float)).T)
    if isinstance(norm, ScaledNorm):
        return norm.factor * _column_major(norm.inner, x)
    if isinstance(norm, LpNorm):
        return np.linalg.norm(xt, ord=norm.p, axis=0)
    if isinstance(norm, WeightedLpNorm):
        return np.linalg.norm(xt * np.asarray(norm.weights)[:, None], ord=norm.p, axis=0)
    if isinstance(norm, EllipsoidNorm):
        q = np.zeros(xt.shape[1])
        for a_i, x_i in zip(np.array(norm.matrix, dtype=float), xt):
            q += x_i * (a_i @ xt)
        return np.sqrt(np.maximum(q, 0.0))
    y = np.array(norm.directions, dtype=float) @ xt
    return np.abs(y).max(axis=0)


def _kernel_cases(d, rng):
    ps = [1.0, 1.5, 2.0, 3.0, np.inf]
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (q * 10.0 ** rng.uniform(-1.0, 2.0, size=d)) @ q.T
    norms = [LpNorm(dimension=d, p=p) for p in ps]
    norms += [WeightedLpNorm(dimension=d, p=p, weights=tuple(10.0 ** rng.uniform(-1, 1, d)))
              for p in ps]
    norms.append(PolytopeGauge(directions=tuple(map(tuple, rng.standard_normal((4 * d, d))))))
    norms.append(EllipsoidNorm(matrix=tuple(map(tuple, (a + a.T) / 2.0))))
    return norms + [scale_norm(n, 10.0 ** rng.uniform(-1, 1)) for n in norms]


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16])
def test_column_major_kernels_match_row_major_formulas(d):
    # Exact wherever the arithmetic is unchanged: max reductions, and sums
    # and matmul entries over fewer than 8 coordinates, which numpy and BLAS
    # add in coordinate order for either layout.  From 8 coordinates on,
    # numpy sums a short contiguous last axis pairwise but a long axis row by
    # row, and BLAS may block a matmul differently by shape, so lp sums and
    # gauge entries may move in the last bits; the ellipsoid's x^T A x is now
    # summed row by row instead of by einsum.  Those get a relative tolerance
    # of 1e-12, far above the few ulps per coordinate that reordering costs.
    rng = np.random.default_rng(d)
    x = rng.standard_normal((257, d)) * 10.0 ** rng.uniform(-3, 3, size=(257, d))
    x[5] = 0.0
    for norm in _kernel_cases(d, rng):
        leaf = norm.inner if isinstance(norm, ScaledNorm) else norm
        exact = not isinstance(leaf, EllipsoidNorm) and (
            d < 8 or getattr(leaf, "p", None) == np.inf)
        got_c = norm.evaluate(x)
        assert np.array_equal(norm.evaluate(np.asfortranarray(x)), got_c)
        single = norm.evaluate(x[7])
        assert isinstance(single, float)
        # the row-wise kernels keep every bit of the column-major formulas on
        # a batch, and an lp kernel gives a single vector its batch row's bits
        assert np.array_equal(got_c.view(np.uint64), _column_major(norm, x).view(np.uint64))
        want = (got_c[7] if isinstance(leaf, (LpNorm, WeightedLpNorm))
                else _column_major(norm, x[7])[0])
        assert np.float64(single).view(np.uint64) == np.float64(want).view(np.uint64), norm
        assert norm.evaluate(np.empty((0, d))).shape == (0,)
        for got, ref in ((got_c, _row_major(norm, x)), (single, _row_major(norm, x[7])[0])):
            if exact:
                assert np.array_equal(got, ref), norm
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=repr(norm))


def test_single_vector_has_its_batch_row_bits_in_one_dimension():
    # tail_table evaluates a single vector only on its closed-form path, d = 1;
    # there no variant has a matrix product whose BLAS path depends on the
    # number of columns, so one vector gets the bits of its batch row.
    rng = np.random.default_rng(0)
    xs = rng.choice([-1.0, 1.0], 303) * 10.0 ** rng.uniform(-8.0, 8.0, 303)
    xs[:2] = 1e-8, 1e8
    norms = [norm for seed in range(30) for norm in random_norm_family(seed, 1, 12)]
    leaves = {type(n.inner if isinstance(n, ScaledNorm) else n) for n in norms}
    assert leaves == {LpNorm, WeightedLpNorm, EllipsoidNorm, PolytopeGauge}
    assert any(isinstance(n, ScaledNorm) for n in norms)
    for norm in norms:
        batch = norm.evaluate(xs[:, None])
        single = np.array([norm.evaluate(xs[k:k + 1]) for k in range(len(xs))])
        assert np.array_equal(single.view(np.uint64), batch.view(np.uint64)), norm


def test_one_dimensional_p2_norms_neither_underflow_nor_overflow():
    # On R^1, sqrt(x * x) underflowed to 0 below about 1.5e-154 and overflowed
    # to inf above about 1.3e154; |x w| is exact there, and equal to it between.
    xs = np.array([5e-324, 1e-170, 1.5e-154, 2.0, 1.3e154, 1.35e154, 1e300])
    assert absolute_value().evaluate(np.array([1e-170])) == 1e-170
    assert absolute_value().evaluate(np.array([1.35e154])) == 1.35e154
    for norm in (absolute_value(), WeightedLpNorm(dimension=1, p=2.0, weights=(0.5,)),
                 scale_norm(absolute_value(), 3.0)):
        factor = norm.evaluate(np.array([1.0]))
        for x in (xs, -xs):
            assert np.array_equal(norm.evaluate(x[:, None]), factor * xs), norm
    middle = np.random.default_rng(4).uniform(-1e3, 1e3, 1000)
    assert np.array_equal(absolute_value().evaluate(middle[:, None]),
                          np.sqrt(middle * middle))


# Peak traced allocation, MiB, of signed_mean_over_outcomes on (4096, 8, 2)
# outcomes under norms 0, 3, 4, 5, 6 of random_norm_family(77, 2, 20): one
# 128-pattern block of sums is 8 MiB, so a copy of it per norm call exceeds
# these bounds.  The row-major kernels peaked at 24, 20, 40, 28 and 20 MiB.
SIGNED_MEAN_PEAK_MIB = {0: 25, 3: 21, 4: 29, 5: 29, 6: 21}


def test_signed_mean_over_outcomes_makes_no_batch_copy():
    family = random_norm_family(77, 2, 20)
    outcomes = np.random.default_rng(0).standard_normal((4096, 8, 2))
    for index, bound in SIGNED_MEAN_PEAK_MIB.items():
        tracemalloc.start()
        try:
            signed_mean_over_outcomes(outcomes, family[index])
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= bound, (index, peak)


def test_parameter_arrays_stay_out_of_eq_hash_and_repr():
    for norm in FAMILY:
        clone = norm_from_spec(norm_to_spec(norm))
        assert clone == norm and hash(clone) == hash(norm)
        assert not any(f"{name}=" in repr(norm) for name in ("_w", "_a", "_u"))


# ---------------------------------------------------------------------------
# validation


def test_lp_requires_p_geq_one():
    with pytest.raises(ParameterError):
        LpNorm(dimension=2, p=0.5)


def test_ellipsoid_requires_positive_definite():
    with pytest.raises(ParameterError):
        EllipsoidNorm(matrix=((1.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ParameterError):
        EllipsoidNorm(matrix=((1.0, 2.0), (0.0, 1.0)))
    with pytest.raises(ParameterError, match="symmetric"):  # the kernel reads both triangles
        EllipsoidNorm(matrix=((1e-12, 5e-11), (0.0, 1e-12)))


def test_polytope_requires_spanning():
    with pytest.raises(ParameterError):
        PolytopeGauge(directions=((1.0, 0.0), (2.0, 0.0)))


def test_scaled_requires_positive_factor():
    with pytest.raises(ParameterError):
        ScaledNorm(inner=euclidean(2), factor=0.0)


def test_dimension_mismatch():
    with pytest.raises(ParameterError, match="dimension"):
        euclidean(2).evaluate(np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# norm axioms on the adversarial family (property-based)

vectors3 = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(x=vectors3, c=st.floats(-100.0, 100.0, allow_nan=False))
def test_homogeneity(x, c):
    x = np.asarray(x)
    for norm in FAMILY:
        assert norm.evaluate(c * x) == pytest.approx(
            abs(c) * norm.evaluate(x), rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(x=vectors3, y=vectors3)
def test_triangle_inequality(x, y):
    x, y = np.asarray(x), np.asarray(y)
    for norm in FAMILY:
        lhs = norm.evaluate(x + y)
        rhs = norm.evaluate(x) + norm.evaluate(y)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-9


@settings(max_examples=60, deadline=None)
@given(x=vectors3)
def test_symmetry_and_positivity(x):
    x = np.asarray(x)
    for norm in FAMILY:
        v = norm.evaluate(x)
        assert v >= 0.0
        assert norm.evaluate(-x) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_definiteness():
    rng = np.random.default_rng(5)
    for norm in FAMILY:
        assert norm.evaluate(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
        for _ in range(5):
            x = rng.standard_normal(3)
            assert norm.evaluate(x) > 0.0


# ---------------------------------------------------------------------------
# serialization


def test_spec_round_trip():
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((20, 3))
    for norm in FAMILY:
        clone = norm_from_spec(norm_to_spec(norm))
        assert np.allclose(np.atleast_1d(clone.evaluate(xs)),
                           np.atleast_1d(norm.evaluate(xs)), rtol=1e-15)


def test_spec_round_trip_infinity():
    spec = norm_to_spec(LpNorm(dimension=4, p=np.inf))
    assert spec["p"] == "inf"
    assert np.isinf(norm_from_spec(spec).p)


def test_unknown_variant_rejected():
    with pytest.raises(ParameterError, match="variant"):
        norm_from_spec({"variant": "banana"})


# ---------------------------------------------------------------------------
# random families


def test_family_deterministic():
    a = random_norm_family(seed=9, d=2, size=10)
    b = random_norm_family(seed=9, d=2, size=10)
    assert [norm_to_spec(n) for n in a] == [norm_to_spec(n) for n in b]


def test_family_dimension_is_capped():
    # A random ellipsoid draws a d x d matrix, so the cap is checked before any draw.
    with pytest.raises(ParameterError, match="dimension must be in"):
        random_norm_family(seed=1, d=17, size=4)


def test_spec_numbers_are_stored_as_floats():
    # Integer parameters are read as the floats a spec with 3.0 or [1.0, 2.0] gives.
    lp = {"variant": "lp", "dimension": 2, "p": None}
    pairs = [({"variant": "lp", "dimension": 2, "p": 3}, 3.0),
             ({"variant": "weighted_lp", "dimension": 2, "p": 1, "weights": [1, 2]},
              [1.0, 2.0]),
             ({"variant": "ellipsoid", "matrix": [[2, 0], [0, 1]]}, [[2.0, 0.0], [0.0, 1.0]]),
             ({"variant": "polytope_gauge", "directions": [[1, 0], [0, 1]]},
              [[1.0, 0.0], [0.0, 1.0]]),
             ({"variant": "scaled", "factor": 2, "inner": lp}, 2.0)]
    for spec, floats in pairs:
        key = [k for k in ("p", "weights", "matrix", "directions", "factor") if k in spec][-1]
        got = json.dumps(norm_to_spec(norm_from_spec(spec)), sort_keys=True)
        want = json.dumps(norm_to_spec(norm_from_spec(dict(spec, **{key: floats}))),
                          sort_keys=True)
        assert got == want
    for bad in (True, "2", [2.0]):
        with pytest.raises(ParameterError, match="lp exponent must be a finite number"):
            norm_from_spec({"variant": "lp", "dimension": 2, "p": bad})


def test_family_opens_with_l2_l1_linf():
    fam = random_norm_family(seed=1, d=4, size=5)
    ps = [n.p for n in fam[:3]]
    assert ps[0] == 2.0 and ps[1] == 1.0 and np.isinf(ps[2])
    assert len(fam) == 5
