"""Sources, sampling determinism, enumeration and analytic tail oracles."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from scipy.stats import levy_stable

import domlab.distributions as distributions
from domlab import (EXACT, CapacityError, Estimator, FiniteSupportDist, ParameterError,
                    ProductLaw, absolute_value, analytic_survival, enumerate_sign_classes,
                    enumerate_sum, gaussian, pareto_tail, scaled_source,
                    symmetric_stable, tail_table)
from domlab.distributions import _draw, _draw_chunk, _signs, sample_sum_chunk
from domlab.rng import CHUNK, Workspace, map_chunks, seed_sequence, substream, workspace


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


def test_mirror_masses_agree_relative_to_the_larger_mass():
    # 9e-13 at +2 against 1e-13 at -2 differ by less than 1e-12 but by 89 % of
    # the larger mass: not symmetric.
    with pytest.raises(ParameterError, match="unbalanced mirror"):
        FiniteSupportDist.from_pairs([[2.0], [-2.0], [0.0]], [9e-13, 1e-13, 1.0 - 1e-12])
    # a relative difference of 1e-13 is rounding
    law = FiniteSupportDist.from_pairs([[2.0], [-2.0], [0.0]],
                                       [3e-13 * (1.0 + 1e-13), 3e-13, 1.0 - 6e-13])
    assert law.support_size == 3


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


def test_atom_arrays_are_read_once_and_read_only():
    law = FiniteSupportDist.symmetric_pairs([[1.0, 0.0], [0.5, 2.0]], [0.6, 0.4])
    assert law.vectors() is law.vectors() and law.probs() is law.probs()
    assert not law.vectors().flags.writeable and not law.probs().flags.writeable
    assert law.vectors().tolist() == [list(v) for v, _ in law.atoms]
    assert law.probs().tolist() == [p for _, p in law.atoms]
    with pytest.raises(ValueError):
        law.vectors()[0, 0] = 9.0
    twin = FiniteSupportDist.symmetric_pairs([[1.0, 0.0], [0.5, 2.0]], [0.6, 0.4])
    assert law == twin and hash(law) == hash(twin)


def test_scaled_finite_law_stays_finite():
    law = scaled_source(FiniteSupportDist.rademacher(), 2.0)
    assert law == FiniteSupportDist.rademacher(2.0)
    assert scaled_source(FiniteSupportDist.rademacher(), -0.5) == FiniteSupportDist.from_pairs(
        [[-0.5], [0.5]], [0.5, 0.5])


def test_finite_is_one_predicate_through_nested_sums():
    rad = FiniteSupportDist.rademacher()
    assert rad.finite and not pareto_tail(2.0).finite
    assert ProductLaw((ProductLaw((rad, rad)), rad)).finite
    assert not ProductLaw((ProductLaw((rad, pareto_tail(2.0))), rad)).finite
    assert not scaled_source(ProductLaw((rad, pareto_tail(2.0))), 2.0).finite


def test_constructors_keep_finite_laws_finite():
    rad = FiniteSupportDist.rademacher()
    # c (X_1 + X_2) = c X_1 + c X_2
    assert scaled_source(ProductLaw((rad, rad)), 2.0) == ProductLaw(
        (FiniteSupportDist.rademacher(2.0),) * 2)


def test_a_sampler_source_has_no_sum_family():
    rad = FiniteSupportDist.rademacher()
    # a sum is only ever a ProductLaw
    with pytest.raises(ParameterError, match="unknown sampler family 'sum_of'"):
        sample_sum_chunk(distributions.SamplerSource(1, "sum_of", {"parts": (rad, rad)}),
                         0, 10, 1, (), np.empty((10, 1)))


# ---------------------------------------------------------------------------
# enumeration oracles


def test_enumerate_sum_three_rademacher_tail():
    # [DERIVED] P(|e1+e2+e3| > 1) = 2/8: only the two all-equal patterns.
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 3)
    vectors, probs = enumerate_sum(law)
    tail = probs[np.abs(vectors[:, 0]) > 1.0].sum()
    assert tail == pytest.approx(0.25, abs=1e-15)


def _merged_sum_oracle(comps):
    # [DERIVED] independent oracle: itertools.product over atom lists, each
    # tuple added left to right in Python floats, equal sums merged in a dict.
    masses = {}
    for combo in itertools.product(*[c.atoms for c in comps]):
        total = combo[0][0]
        for vec, _ in combo[1:]:
            total = tuple(a + b for a, b in zip(total, vec))
        masses[total] = masses.get(total, 0.0) + math.prod(p for _, p in combo)
    return masses


def test_enumerate_sum_matches_merged_itertools_oracle():
    rng = np.random.default_rng(3)
    lattice = FiniteSupportDist.symmetric_pairs([[1.0, 0.0], [1.0, 1.0]], [0.3, 0.5],
                                                zero_prob=0.2)
    generic = FiniteSupportDist.symmetric_pairs(rng.standard_normal((2, 2)), [0.6, 0.4])
    square = FiniteSupportDist.from_pairs([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0],
                                           [-1.0, -1.0]], [0.25] * 4)
    rad = FiniteSupportDist.rademacher()
    cases = [(ProductLaw(comps), comps)
             for comps in ((lattice,) * 4, (square,) * 5, (lattice, generic, square, lattice),
                           (FiniteSupportDist.rademacher(0.1),) * 7)]
    # a nested sum is convolved left to right as the flat sum of its parts is
    cases += [(ProductLaw((ProductLaw((rad, rad)), rad)), (rad,) * 3),
              (ProductLaw((ProductLaw((lattice, generic)), square)), (lattice, generic, square))]
    for law, comps in cases:
        vectors, probs = enumerate_sum(law)
        got = {tuple(v): p for v, p in zip(vectors.tolist(), probs)}
        expected = _merged_sum_oracle(comps)
        assert len(got) == len(vectors)  # every atom is distinct
        assert set(got) == set(expected)  # bit-identical atom locations
        for key, p in expected.items():
            assert got[key] == pytest.approx(p, rel=1e-14)


def _lexsort_merge(vectors, probs):
    # The merge as np.lexsort orders it: the oracle for every d.
    order = np.lexsort(vectors.T[::-1])
    vectors, probs = vectors[order], probs[order]
    first = np.ones(len(probs), dtype=bool)
    first[1:] = np.any(vectors[1:] != vectors[:-1], axis=1)
    return vectors[first], np.bincount(np.cumsum(first) - 1, weights=probs)


def test_merge_atoms_in_the_plane_keeps_the_lexsort_bits():
    rng = np.random.default_rng(6)
    zeros = [[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [1.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]
    cases = [np.array([[0.5, -2.0]]),  # a single atom
             np.array(zeros),  # +-0.0 in either coordinate: equal, the first one kept
             np.array(zeros[::-1]),
             np.array([[1.0, 3.0], [1.0, -3.0], [1.0, 3.0], [-1.0, 3.0], [1.0, 2.0]]),
             # many duplicates and equal first coordinates, +-0.0 mixed in
             rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(5000, 2)),
             rng.standard_normal((3000, 2))]
    for vectors in cases:
        probs = rng.random(len(vectors))
        want = _lexsort_merge(vectors, probs)
        for got_array, want_array in zip(distributions._merge_atoms(vectors, probs), want):
            assert got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes()
    # a non-contiguous input, as a slice of a wider array
    wide = np.repeat(rng.integers(-1, 2, size=(400, 2)).astype(float), 2, axis=1)
    probs = rng.random(400)
    got = distributions._merge_atoms(wide[:, ::2], probs)
    want = _lexsort_merge(wide[:, ::2], probs)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_enumerate_sum_tie_on_a_threshold_stays_outside_the_tail():
    # [DERIVED] e1/2 + e2/2 + e3/2 takes +-1/2 with mass 3/4 and +-3/2 with
    # mass 1/4; atoms exactly at t = 1/2 or t = 3/2 are not above it.
    law = ProductLaw((FiniteSupportDist.rademacher(0.5),) * 3)
    vectors, probs = enumerate_sum(law)
    assert sorted(vectors[:, 0]) == [-1.5, -0.5, 0.5, 1.5]
    (tie, clear, top_tie), = tail_table(law, [absolute_value()], [0.5, 0.25, 1.5], EXACT)
    assert (tie.value, clear.value, top_tie.value) == (0.25, 1.0, 0.0)


def test_enumerate_sum_is_exact_far_above_the_tuple_cap():
    # [DERIVED] P(|e_1 + ... + e_40| > 10) = sum over |2k - 40| > 10 of
    # C(40, k) / 2^40: 2^40 tuples, far too many to build, and 41 atoms.
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 40)
    vectors, probs = enumerate_sum(law)
    assert len(probs) == 41
    expected = sum(math.comb(40, k) for k in range(41) if abs(2 * k - 40) > 10) / 2**40
    (tail,), = tail_table(law, [absolute_value()], [10.0], EXACT)
    assert tail.value == expected and tail.exact


def test_enumerate_sum_caps_the_atoms_formed_before_a_merge(monkeypatch):
    # Generic atoms never merge: 6 * 6 = 36 atoms, then 36 * 6 = 216 > 200.
    monkeypatch.setattr(distributions, "PRODUCT_SUPPORT_CAP", 200)
    rng = np.random.default_rng(4)
    comps = tuple(FiniteSupportDist.symmetric_pairs(rng.standard_normal((3, 2)),
                                                    [0.2, 0.3, 0.5]) for _ in range(3))
    assert len(enumerate_sum(ProductLaw(comps[:2]))[1]) == 36
    with pytest.raises(CapacityError, match="216 atoms before merging exceed .* cap 200"):
        enumerate_sum(ProductLaw(comps))


def test_enumerate_sign_classes_keeps_one_atom_per_pair(monkeypatch):
    comp = FiniteSupportDist.symmetric_pairs([[2.0, 1.0], [0.0, 1.0]], [0.6, 0.3],
                                             zero_prob=0.1)
    outcomes, probs = enumerate_sign_classes(ProductLaw((comp,)))
    assert outcomes.shape == (3, 1, 2)
    got = {tuple(o[0]): p for o, p in zip(outcomes.tolist(), probs)}
    assert got == {(2.0, 1.0): 0.3 + 0.3, (0.0, 1.0): 0.15 + 0.15, (0.0, 0.0): 0.1}
    outcomes, probs = enumerate_sign_classes(ProductLaw((comp,) * 2))
    assert len(probs) == 9 and probs.sum() == pytest.approx(1.0, abs=1e-15)
    rad = ProductLaw((FiniteSupportDist.rademacher(3.0),) * 20)
    outcomes, probs = enumerate_sign_classes(rad)  # 2^20 tuples, one class
    assert outcomes.tolist() == [[[3.0]] * 20] and probs.tolist() == [1.0]
    monkeypatch.setattr(distributions, "PRODUCT_SUPPORT_CAP", 8)
    with pytest.raises(CapacityError, match="sign-class count 9 exceeds cap 8"):
        enumerate_sign_classes(ProductLaw((comp,) * 2))


# ---------------------------------------------------------------------------
# sampling determinism


def _new_sum_chunk(law, j, size, seed, stream):
    return sample_sum_chunk(law, j, size, seed, stream, np.empty((size, law.dimension)))


def _sample(law, count, seed, threads=1, stream=(), draw=_new_sum_chunk):
    """The count rows of draw's chunks over map_chunks, joined into one array."""
    return np.concatenate(map_chunks(lambda j, lo, hi: draw(law, j, hi - lo, seed, stream),
                                     count, threads))


def test_sample_deterministic_in_seed():
    src = gaussian(np.eye(2))
    a = _sample(src, 1000, seed=5)
    b = _sample(src, 1000, seed=5)
    c = _sample(src, 1000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_thread_count_invariant():
    src = ProductLaw((gaussian(np.eye(3)), scaled_source(gaussian(np.eye(3)), 2.0)))
    a = _sample(src, 200_000, seed=11, threads=1, draw=_draw_chunk)
    b = _sample(src, 200_000, seed=11, threads=8, draw=_draw_chunk)
    assert np.array_equal(a, b)


def test_sample_streams_are_independent():
    src = pareto_tail(2.0)
    a = _sample(src, 1000, seed=7, stream=(1,))
    b = _sample(src, 1000, seed=7, stream=(2,))
    assert not np.array_equal(a, b)


def test_sample_prefix_stability():
    # Chunked substreams: the first chunk of a longer run equals a shorter run.
    src = gaussian([[1.0]])
    short = _sample(src, CHUNK, seed=3)
    long = _sample(src, CHUNK + 500, seed=3)
    assert np.array_equal(short, long[:CHUNK])


def test_nested_sums_keep_their_draws():
    # Every single source of a sum, nested or scaled, draws on its own path
    # (seed, *stream, i, ..., j), and the sources are added in order, depth
    # first; these Monte Carlo counts are _allocating_sum's, which pin those draws.
    est = Estimator("mc", budget=5000)
    scaled = scaled_source(ProductLaw((pareto_tail(2.0), symmetric_stable(1.5))), 2.0)
    nested = ProductLaw((ProductLaw((gaussian([[1.0]]), pareto_tail(3.0))), pareto_tail(2.0)))
    for law, thresholds, seed, stream, counts in ((scaled, [1.0, 4.0], 1, (0,), [4383, 2347]),
                                                   (nested, [2.0, 8.0], 3, (5,), [2525, 103])):
        reference = np.abs(_allocating_sum(law, 5000, seed, stream, 0))
        assert [np.count_nonzero(reference > t) for t in thresholds] == counts
        (row,) = tail_table(law, [absolute_value()], thresholds, est, seed, stream)
        assert [p.value for p in row] == [k / 5000 for k in counts]


def test_finite_parts_of_a_sampled_sum_draw_as_finite_laws():
    # A scaled finite sum is the sum of its scaled parts, each drawn on its
    # own path; these Monte Carlo counts are _allocating_sum's.
    est = Estimator("mc", budget=5000)
    rad = FiniteSupportDist.rademacher()
    law = ProductLaw((scaled_source(ProductLaw((rad, rad)), 2.0), pareto_tail(2.0)))
    reference = np.abs(_allocating_sum(law, 5000, 1, (0,), 0))
    assert [np.count_nonzero(reference > t) for t in (3.0, 6.0)] == [1604, 401]
    (row,) = tail_table(law, [absolute_value()], [3.0, 6.0], est, 1, (0,))
    assert [p.value for p in row] == [1604 / 5000, 401 / 5000]


def test_sample_outcomes_columns_differ():
    law = ProductLaw((gaussian(np.eye(1)), gaussian(np.eye(1))))
    out = _sample(law, 1000, seed=1, draw=_draw_chunk)
    assert out.shape == (1000, 2, 1)
    assert not np.array_equal(out[:, 0, :], out[:, 1, :])
    total = _sample(law, 1000, seed=1)
    assert np.allclose(total, out.sum(axis=1))


# ---------------------------------------------------------------------------
# in-place draws against the allocating formulas they replaced


def _allocating_draw(source, n, ss):
    """n vectors of a single source drawn on ss by fresh-array numpy formulas, as
    _draw drew them before it wrote into a caller's buffer; a scaled source
    draws its inner source on ss too."""
    rng = np.random.Generator(np.random.Philox(ss))
    if isinstance(source, FiniteSupportDist):
        return source.vectors()[rng.choice(source.support_size, size=n, p=source.probs())]
    par = source.params
    if source.family == "gaussian":
        return rng.standard_normal((n, source.dimension)) @ par["factor"].T
    if source.family == "pareto_tail":
        mag = rng.random(n) ** (-1.0 / par["exponent"])
        sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
        return (sign * mag)[:, None]
    if source.family == "symmetric_stable":
        alpha = par["index"]
        sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
        v = rng.uniform(-np.pi / 2, np.pi / 2, size=n)
        if alpha == 1.0:
            x = np.tan(v)
        else:
            w = rng.exponential(1.0, size=n)
            x = (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
                 * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))
        return (par["scale"] * sign * x)[:, None]
    return par["factor"] * _allocating_draw(par["inner"], n, ss)


def _allocating_sum(law, n, seed, path, j):
    """n vectors of chunk j of law by _allocating_draw on the path rule: component
    i of a sum at path p sits at (*p, i), and a single source at p draws on
    (seed, *p, j); the single sources are added in order, depth first."""
    def leaves(law, path):
        if isinstance(law, ProductLaw):
            return [x for i, c in enumerate(law.components) for x in leaves(c, (*path, i))]
        return [_allocating_draw(law, n, seed_sequence(seed, *path, j))]
    return functools.reduce(operator.add, leaves(law, path))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


PARITY_LAWS = [
    pareto_tail(2.0), pareto_tail(1.0), pareto_tail(0.7),
    *(symmetric_stable(alpha, 1.3) for alpha in (0.5, 1.0, 1.5, 2.0)),
    *(gaussian(np.eye(d) + 0.4) for d in (1, 2, 3)),
    FiniteSupportDist.symmetric_pairs([[1.0, 2.0], [0.5, -1.0]], [0.6, 0.3], zero_prob=0.1),
    scaled_source(symmetric_stable(0.7), -2.5),
    scaled_source(scaled_source(gaussian(np.eye(2) + 0.4), 3.0), -0.5),
]
RAD = FiniteSupportDist.rademacher()
# nested, scaled and partly finite sums
PARITY_SUMS = [
    ProductLaw((ProductLaw((gaussian([[1.0]]), pareto_tail(3.0))),
                scaled_source(pareto_tail(2.0), 3.0))),
    scaled_source(ProductLaw((pareto_tail(2.0), ProductLaw((symmetric_stable(1.5), RAD)))), 2.0),
    ProductLaw((pareto_tail(1.5), ProductLaw((RAD, ProductLaw((RAD, gaussian([[2.0]])))))))
]


@pytest.mark.parametrize("n", [1, 7, 2304, CHUNK])
def test_in_place_draws_keep_the_allocating_bits(n):
    ws = Workspace()
    for law in PARITY_LAWS:
        got = _draw(law, np.empty((n, law.dimension)), seed_sequence(4, 2, 9), ws)
        assert _same_bits(got, _allocating_draw(law, n, seed_sequence(4, 2, 9))), law
    for law in PARITY_SUMS:
        for out in (np.empty((n, 1)), np.empty((n, 1), order="F")):
            got = sample_sum_chunk(law, 9, n, 4, (2,), out)
            assert _same_bits(got, _allocating_sum(law, n, 4, (2,), 9)), law


@pytest.mark.parametrize("n", [1, 2, 7, 8, 2303, 2304])
def test_signs_are_the_integers_formula_and_leave_later_draws(n):
    raw, ref = substream(5, 1), substream(5, 1)
    assert _same_bits(_signs(raw, np.empty(n)), ref.integers(0, 2, size=n) * 2.0 - 1.0)
    assert _same_bits(raw.random(9), ref.random(9))
    assert _same_bits(raw.standard_exponential(9), ref.standard_exponential(9))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 7, 8, 9])
def test_in_place_sums_keep_the_stacked_sum(d, n):
    # Parts of magnitudes 1e-3 to 1e3, so that any other order of the adds
    # moves low bits; one-dimensional sums mix in heavy tails.
    scalar = [pareto_tail(2.0), symmetric_stable(0.7), gaussian([[1.0]])]
    parts = [scaled_source(scalar[i % 3] if d == 1 else gaussian(np.eye(d) + 0.2 * i),
                           10.0 ** (i % 7 - 3)) for i in range(n)]
    law = ProductLaw(tuple(parts))
    draws = [_allocating_draw(c, 2304, seed_sequence(6, 1, i, 3)) for i, c in enumerate(parts)]
    in_order = draws[0].copy()
    for x in draws[1:]:
        in_order += x
    assert _same_bits(sample_sum_chunk(law, 3, 2304, 6, (1,), np.empty((2304, d))), in_order)
    stacked = np.stack(draws, axis=1).sum(axis=1)
    assert _same_bits(_draw_chunk(law, 3, 2304, 6, (1,)).sum(axis=1), stacked)
    # sum(axis=1) adds in order too, except eight or more one-dimensional
    # parts, which numpy adds pairwise
    assert _same_bits(in_order, stacked) == (d > 1 or n < 8)


@pytest.mark.parametrize("law", [ProductLaw(tuple(gaussian(np.eye(2) + 0.3 * i) for i in range(3))),
                                 ProductLaw(tuple(pareto_tail(a) for a in (2.0, 1.5, 0.9)))],
                         ids=["gaussian-d2", "pareto"])
def test_sums_of_parts_keep_the_bits_of_the_fortran_ordered_total(law):
    # The formula of a sum that adds C-ordered parts into a Fortran-ordered
    # total: the first part copied in, each later one added in place.
    shape = (CHUNK, law.dimension)
    want = np.empty(shape, order="F")
    for i, c in enumerate(law.components):
        x = _draw(c, np.empty(shape), seed_sequence(6, 2, i, 1), Workspace())
        if i == 0:
            want[...] = x
        else:
            want += x
    for out in (np.empty(shape, order="F"), np.empty(shape)):
        assert sample_sum_chunk(law, 1, CHUNK, 6, (2,), out) is out
        assert _same_bits(out, want)
    got, = map_chunks(lambda j, lo, hi: sample_sum_chunk(
        law, 1, CHUNK, 6, (2,), workspace().array("sum", shape, order="F")).copy(), CHUNK)
    assert _same_bits(got, want)


def test_one_workspace_per_worker_for_the_length_of_a_call():
    law = ProductLaw((pareto_tail(2.0), symmetric_stable(0.7)))

    def chunk(j, lo, hi):
        ws = workspace()
        total = sample_sum_chunk(law, j, hi - lo, 1, (), ws.array("sum", (hi - lo, 1)))
        return ws, total, ws.array("part", (hi - lo, 1))
    (ws0, total0, part0), (ws1, total1, part1) = map_chunks(chunk, 2 * CHUNK)
    # both chunks were drawn and summed in the same arrays
    assert ws0 is ws1
    assert np.shares_memory(total0, total1) and np.shares_memory(part0, part1)
    # a finished call hands its workspace on to the next call
    assert map_chunks(lambda j, lo, hi: workspace(), CHUNK) == [ws0]
    # _draw_chunk returns new arrays
    a, b = map_chunks(lambda j, lo, hi: _draw_chunk(law, j, hi - lo, 1, ()), 2 * CHUNK)
    assert not np.shares_memory(a, b)
    # off a worker, every call gets a new workspace
    assert workspace() is not workspace()


# ---------------------------------------------------------------------------
# sampler families against analytic oracles


def _empirical_tail(xs, t):
    return np.count_nonzero(np.abs(xs) > t) / len(xs)


def test_gaussian_sampler_matches_covariance():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    xs = _sample(gaussian(cov), 200_000, seed=42)
    assert np.allclose(np.cov(xs.T), cov, atol=0.05)
    assert abs(xs.mean()) < 0.01


def test_gaussian_rejects_non_psd():
    # Tiny scales once passed absolute floors: [[-1e-12]] reached math.sqrt in
    # analytic_survival, 1e-12 [[1, 2], [2, 1]] (eigenvalues -1e-12, 3e-12) was
    # sampled as its clipped part, and the asymmetric matrix by its lower triangle.
    for cov, message in [([[1.0, 2.0], [2.0, 1.0]], "positive semidefinite"),
                         ([[-1e-12]], "positive semidefinite"),
                         (1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]]), "positive semidefinite"),
                         ([[1e-12, 5e-11], [0.0, 1e-12]], "symmetric")]:
        with pytest.raises(ParameterError, match=message):
            gaussian(cov)


def test_gaussian_accepts_tiny_and_zero_psd_scales():
    for scale in (1e-12, 1e-300, 0.0):
        cov = gaussian(scale * np.ones((2, 2))).params["covariance"]
        assert np.array_equal(cov, scale * np.ones((2, 2)))


def test_pareto_tail_sampler_matches_survival():
    # [DERIVED] P(|X| > t) = t^-2 for the exponent-2 source.
    xs = _sample(pareto_tail(2.0), 400_000, seed=9)[:, 0]
    surv = analytic_survival(pareto_tail(2.0))
    for t in (1.0, 2.0, 5.0):
        assert _empirical_tail(xs, t) == pytest.approx(surv(t), abs=0.01)
    assert surv(2.0) == pytest.approx(0.25, abs=1e-15)
    assert surv(0.5) == 1.0


def test_stable_half_sampler_matches_levy_stable():
    # [DERIVED] index 1/2 is sampled by Chambers-Mallows-Stuck like every
    # index; its two-sided tail is 2 levy_stable.sf(t, 0.5, 0), heavy enough
    # that P(|X| > 100) ~ 0.077.  No closed form is offered for any index.
    xs = _sample(symmetric_stable(0.5, scale=1.0), 400_000, seed=13)[:, 0]
    for t in (0.5, 1.0, 4.0, 100.0):
        assert _empirical_tail(xs, t) == pytest.approx(
            2.0 * float(levy_stable.sf(t, 0.5, 0.0)), abs=0.01)
    for index in (0.5, 0.7, 1.0, 2.0):
        assert analytic_survival(symmetric_stable(index)) is None


def test_stable_two_is_gaussian_variance_two():
    # [DERIVED] index 2 with unit scale is N(0, 2).
    xs = _sample(symmetric_stable(2.0), 400_000, seed=17)[:, 0]
    assert xs.var() == pytest.approx(2.0, abs=0.05)
    assert abs(xs.mean()) < 0.01


def test_stable_one_is_cauchy():
    # [DERIVED] index 1 is standard Cauchy: P(|X| > 1) = 1/2.
    xs = _sample(symmetric_stable(1.0), 400_000, seed=19)[:, 0]
    assert _empirical_tail(xs, 1.0) == pytest.approx(0.5, abs=0.01)


def test_stable_index_validation():
    with pytest.raises(ParameterError):
        symmetric_stable(0.0)
    with pytest.raises(ParameterError):
        symmetric_stable(2.5)


def test_scaled_survival():
    surv = analytic_survival(scaled_source(pareto_tail(2.0), 3.0))
    assert surv(6.0) == pytest.approx((6.0 / 3.0) ** -2, abs=1e-15)
    assert analytic_survival(gaussian(np.eye(2))) is None

