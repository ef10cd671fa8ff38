"""Tail comparisons, the proxy functional, and domination experiments."""

import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import domlab.dominance as dominance
from domlab import (PRODUCT_SUPPORT_CAP, CapacityError, DominationQuery, EllipsoidNorm,
                    Estimator, FiniteSupportDist, LpNorm, ParameterError, PolytopeGauge,
                    PreconditionError, ProductLaw, TailEstimate, WBParams, WeightedLpNorm,
                    absolute_value, check_domination, check_wb, euclidean, gaussian,
                    pareto_tail, proxy_bound_check, proxy_exact, proxy_mc,
                    random_norm_family, scale_norm, scaled_source, signed_mean_over_outcomes,
                    symmetric_stable, tail_method, tail_table, tensorisation_experiment)
from domlab.distributions import enumerate_sum, sample_sum_chunk
from domlab.geometry import monotone_in_abs
from domlab.rng import CHUNK, map_chunks

EXACT = Estimator("exact")

RAD = FiniteSupportDist.rademacher()
HALF = FiniteSupportDist.rademacher(0.5)
FAMILY1 = random_norm_family(seed=31, d=1, size=6)


# ---------------------------------------------------------------------------
# tail probabilities


def test_tail_exact_finite():
    # [DERIVED] P(|e1 + e2 + e3| > t) = 1/4 for t in [1, 3).
    (p1, p2), = tail_table(ProductLaw((RAD,) * 3), [absolute_value()], [1.0, 2.0], EXACT)
    assert p1.exact and p1.value == pytest.approx(0.25, abs=1e-15)
    assert p2.exact and p2.value == 0.25


def test_tail_analytic_scalar_with_scaled_norm():
    # P(c|X| > 1) = P(|X| > 1/c) via the closed-form survival function.
    src = pareto_tail(2.0)
    norm = scale_norm(absolute_value(), 0.25)
    (p,), = tail_table(src, [norm], [1.0], EXACT)
    assert p.exact and p.value == pytest.approx(4.0 ** -2, abs=1e-15)


def test_tail_mc_matches_analytic():
    src = pareto_tail(2.0)
    est = Estimator("mc", budget=400_000)
    (p,), = tail_table(gaussian(np.eye(2)), [euclidean(2)], [1.0], est, seed=2)
    assert not p.exact
    # [DERIVED] chi-square(2): P(||Z|| > 1) = exp(-1/2).
    assert p.lo <= np.exp(-0.5) <= p.hi
    assert p.value == pytest.approx(np.exp(-0.5), abs=0.005)
    (q,), = tail_table(src, [absolute_value()], [2.0], est, seed=2)
    assert q.exact


def test_tail_table_samples_a_scaled_vector_source():
    # No closed form in d = 2, so the cell is sampled through the scaled draw.
    law = scaled_source(gaussian(np.eye(2)), 2.0)
    (cell,), = tail_table(law, [euclidean(2)], [1.0], Estimator("mc", budget=200_000),
                          seed=3)
    assert not cell.exact
    # [DERIVED] P(||2 Z|| > 1) = P(||Z||^2 > 1/4) = exp(-1/8) for Z standard in R^2.
    assert cell.lo <= np.exp(-1 / 8) <= cell.hi


def test_tail_requires_mc_when_no_exact_path():
    with pytest.raises(ParameterError, match="mc"):
        tail_table(gaussian(np.eye(2)), [euclidean(2)], [1.0], EXACT)


def test_exact_capable():
    # tail_method is the one exactness test: every law but "mc" has an exact path.
    for law in (RAD, ProductLaw((RAD, HALF)), scaled_source(RAD, 2.0)):
        assert tail_method(law, EXACT) == "enumeration"
    assert tail_method(pareto_tail(2.0), EXACT) == "closed-form"
    mc = Estimator("mc")
    assert tail_method(gaussian(np.eye(2)), mc) == "mc"
    assert tail_method(ProductLaw((gaussian(np.eye(2)),) * 2), mc) == "mc"


def test_nested_and_scaled_finite_laws_are_enumerated():
    # [DERIVED] brute force: e_1 + e_2 + e_3 exceeds 2 only at +-3 (mass 1/4);
    # 2 (e_1 + e_2) is +-4 with mass 1/4 each.
    cases = ((ProductLaw((ProductLaw((RAD, RAD)), RAD)), [2.0], [0.25]),
             (scaled_source(ProductLaw((RAD, RAD)), 2.0), [3.9, 4.0], [0.5, 0.0]))
    for law, thresholds, expected in cases:
        assert tail_method(law, EXACT) == "enumeration"
        (row,) = tail_table(law, [absolute_value()], thresholds, EXACT)
        assert [p.value for p in row] == expected and all(p.exact for p in row)


# ---------------------------------------------------------------------------
# the tail engine


def test_tail_table_exact_cells_are_masked_sums():
    comps = (FiniteSupportDist.symmetric_pairs([[1.0, 0.0], [0.3, 0.7]], [0.6, 0.3],
                                               zero_prob=0.1),
             FiniteSupportDist.symmetric_pairs([[0.5, -0.5]], [1.0]))
    law = ProductLaw(comps + comps)
    norms = random_norm_family(seed=4, d=2, size=5)
    thresholds = [0.25, 1.0, 1.7]
    table = tail_table(law, norms, thresholds, Estimator("exact"))
    # [DERIVED] the sum law by brute force over every tuple of atoms.
    outcomes = [(np.sum([v for v, _ in tup], axis=0), np.prod([p for _, p in tup]))
                for tup in itertools.product(*(c.atoms for c in law.components))]
    for norm, row in zip(norms, table):
        for t, cell in zip(thresholds, row):
            ref = sum(p for v, p in outcomes if norm.evaluate(np.array(v)) > t)
            assert cell.exact and cell.value == pytest.approx(ref, abs=1e-14)


def test_tail_table_closed_form_cells():
    norms = [absolute_value(), scale_norm(absolute_value(), 0.25)]
    table = tail_table(pareto_tail(2.0), norms, [0.5, 1.0, 3.0], Estimator("exact"))
    # [DERIVED] P(c|X| > t) = min(1, (t/c)^-2) for the exponent-2 source.
    for c, row in zip((1.0, 0.25), table):
        assert [cell.value for cell in row] == pytest.approx(
            [min(1.0, (t / c) ** -2) for t in (0.5, 1.0, 3.0)], abs=1e-15)
        assert all(cell.exact for cell in row)


def test_tail_table_mc_cells_are_counts_on_one_batch():
    law = ProductLaw((gaussian([[1.0, 0.2], [0.2, 0.5]]),) * 2)
    norms = random_norm_family(seed=6, d=2, size=4)
    thresholds = [0.5, 1.0, 2.5]
    est = Estimator("mc", budget=CHUNK + 4_000, confidence=0.95)
    table = tail_table(law, norms, thresholds, est, seed=8, stream=(7,), threads=2)
    samples = np.concatenate(map_chunks(
        lambda j, lo, hi: sample_sum_chunk(law, j, hi - lo, 8, (7,),
                                   np.empty((hi - lo, law.dimension))), est.budget))
    for norm, row in zip(norms, table):
        vals = norm.evaluate(samples)
        assert row == [TailEstimate.from_counts(int(np.count_nonzero(vals > t)),
                                                est.budget, 0.95)
                       for t in thresholds]


# Every norm variant on R^1: the lp-type ones with p in {1, 2, inf}, scaled or
# not, are counted by level; p = 1.5 and 3, the ellipsoid and the gauge by evaluate.
SCALAR_NORMS = [LpNorm(dimension=1, p=1.0), absolute_value(), LpNorm(dimension=1, p=np.inf),
                WeightedLpNorm(dimension=1, p=1.0, weights=(0.3,)),
                WeightedLpNorm(dimension=1, p=2.0, weights=(2.5,)),
                WeightedLpNorm(dimension=1, p=np.inf, weights=(7.0,)),
                WeightedLpNorm(dimension=1, p=1.5, weights=(2.0,)),
                LpNorm(dimension=1, p=3.0), EllipsoidNorm(matrix=((0.7,),)),
                PolytopeGauge(directions=((1.0,), (-0.4,))),
                scale_norm(absolute_value(), 1.0 / 300.123),
                scale_norm(scale_norm(LpNorm(dimension=1, p=np.inf), 3.0), 0.1),
                scale_norm(WeightedLpNorm(dimension=1, p=1.5, weights=(0.5,)), 2.0)]
EDGE_THRESHOLDS = [-1.0, 0.0, 1e-300, 1.0, 1.0, 2.7, 1e300]


def test_scalar_lp_norms_are_counted_by_level():
    by_level = [True] * 6 + [False] * 4 + [True] * 2 + [False]
    assert [monotone_in_abs(n) for n in SCALAR_NORMS] == by_level
    assert not monotone_in_abs(euclidean(2))
    assert not monotone_in_abs(scale_norm(LpNorm(dimension=2, p=1.0), 2.0))


def test_tail_table_mc_cells_are_counts_on_one_batch_in_one_dimension():
    law = ProductLaw((pareto_tail(2.0), symmetric_stable(0.7)))
    est = Estimator("mc", budget=CHUNK + 4_000, confidence=0.95)
    table = tail_table(law, SCALAR_NORMS, EDGE_THRESHOLDS, est, seed=8, stream=(7,),
                       threads=2)
    samples = np.concatenate(map_chunks(
        lambda j, lo, hi: sample_sum_chunk(law, j, hi - lo, 8, (7,),
                                   np.empty((hi - lo, law.dimension))), est.budget))
    for norm, row in zip(SCALAR_NORMS, table):
        vals = norm.evaluate(samples)
        assert row == [TailEstimate.from_counts(int(np.count_nonzero(vals > t)),
                                                est.budget, 0.95)
                       for t in EDGE_THRESHOLDS]
        # every sample is above a negative threshold and 0, none above 1e300
        assert [cell.value for cell in row[:2]] == [1.0, 1.0] and row[-1].value == 0.0


def test_levels_split_planted_samples_as_the_norm_does():
    # Samples at 3 ulps either side of each level, of both signs, count the same
    # by level as by evaluate; the thresholds include norm values themselves,
    # where ties decide.
    checks = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        for norm in random_norm_family(seed, 1, 12) + SCALAR_NORMS:
            if not monotone_in_abs(norm):
                continue
            ties = norm.evaluate(10.0 ** rng.uniform(-6, 6, (4, 1)))
            thresholds = [*ties, *10.0 ** rng.uniform(-6, 6, 4), *EDGE_THRESHOLDS, 5e-324]
            for t, s in zip(thresholds, dominance._abs_levels(norm, thresholds)):
                bits = np.float64(max(s, 0.0)).view(np.int64) + np.arange(-3, 4)
                x = np.clip(bits, 0, None).view(float)
                x = np.concatenate([x, -x, [0.0, -0.0, 1.0, np.inf]])[:, None]
                with np.errstate(over="ignore"):
                    above = norm.evaluate(x) > t
                assert np.array_equal(above, np.abs(x[:, 0]) > s), (norm, t, s)
                checks += 1
    assert checks > 5000


def test_level_search_settles_in_the_first_round_or_bisects(monkeypatch):
    # t / norm(1) is within 8 ulps of the level for plain thresholds, so one
    # evaluate settles them; a norm whose factor misleads the guess still gets
    # its exact level, by bisection.
    rounds = []
    real = LpNorm.evaluate

    def counting(self, x):
        rounds.append(np.size(x))
        return real(self, x)

    monkeypatch.setattr(LpNorm, "evaluate", counting)
    thresholds = np.array([0.5, 1.0, 3.0, 9.0, 27.0])
    norm = scale_norm(absolute_value(), 1.0 / 317.5)
    levels = dominance._abs_levels(norm, thresholds)
    assert rounds == [1, 5 * 17]
    edges = np.stack([levels, np.nextafter(levels, np.inf)], axis=1)
    assert (norm.evaluate(edges[:, :1]) <= thresholds).all()
    assert (norm.evaluate(edges[:, 1:]) > thresholds).all()
    rounds.clear()
    (level,) = dominance._abs_levels(norm, [5e-324])
    assert len(rounds) > 2  # subnormal: the guess is 318 ulps, the level 476
    edge = np.array([[level], [np.nextafter(level, np.inf)]])
    assert list(norm.evaluate(edge) > 5e-324) == [False, True]
    rounds.clear()
    # |x| > 0 exactly when x != 0: the level of 0 is 0, settled in one round
    assert dominance._abs_levels(absolute_value(), [0.0]).tolist() == [0.0]
    assert rounds == [1, 17]


def test_tail_table_counts_each_distinct_threshold_once(monkeypatch):
    compared = []
    real = dominance.np.count_nonzero

    def counting(a, *args, **kwargs):
        compared.append(1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(dominance.np, "count_nonzero", counting)
    est = Estimator("mc", budget=CHUNK)
    table = tail_table(symmetric_stable(0.7), [absolute_value(), LpNorm(dimension=1, p=3.0)],
                       [1.0, 1.0, 3.0, 1.0], est, seed=1)
    assert len(compared) == 2 + 2  # 2 levels of |x|, 2 thresholds of the l3 norm
    assert table[0][0] == table[0][1] == table[0][3] and table[1][0] == table[1][3]


def test_tail_table_mc_memory_is_bounded_and_thread_free():
    # Samples are streamed chunk by chunk: a 16x larger budget must not
    # raise the traced peak, and the counts must not depend on threads.
    law = ProductLaw((pareto_tail(2.0),) * 3)
    norms, thresholds = [absolute_value()], [1.0, 10.0]

    def peak(budget):
        tracemalloc.start()
        try:
            tail_table(law, norms, thresholds, Estimator("mc", budget=budget), seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(CHUNK)  # the first call in a process allocates the worker's workspace
    assert peak(64 * CHUNK) <= 2 * peak(4 * CHUNK)
    est = Estimator("mc", budget=4 * CHUNK + 123)
    assert (tail_table(law, norms, thresholds, est, seed=2, threads=1)
            == tail_table(law, norms, thresholds, est, seed=2, threads=3))


def test_tail_tables_are_the_same_on_1_2_and_8_threads():
    # Each worker draws and sums its chunks in its own workspace; the last
    # chunk is partial.
    est = Estimator("mc", budget=3 * CHUNK + 777)
    cases = ((ProductLaw((gaussian([[1.0, 0.3], [0.3, 0.6]]),) * 3), random_norm_family(5, 2, 6)),
             (ProductLaw((pareto_tail(2.0),) * 3), [absolute_value()]),
             (symmetric_stable(0.7), [absolute_value(), scale_norm(absolute_value(), 0.1)]))
    for law, norms in cases:
        tables = [tail_table(law, norms, [0.5, 2.0], est, seed=3, stream=(4,), threads=threads)
                  for threads in (1, 2, 8)]
        assert tables[0] == tables[1] == tables[2]


def test_concurrent_tail_tables_never_share_a_workspace():
    # Four calls on three workers each, with thread switches forced often: a
    # workspace handed to two workers at once would mix their draws.
    law = ProductLaw((pareto_tail(2.0), symmetric_stable(0.7)))
    est = Estimator("mc", budget=4 * CHUNK)
    want = tail_table(law, [absolute_value()], [1.0, 5.0], est, seed=9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            futures = [ex.submit(tail_table, law, [absolute_value()], [1.0, 5.0], est, 9,
                                 (), 3) for _ in range(4)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 4


def test_tail_table_exact_estimator_needs_an_exact_path():
    with pytest.raises(ParameterError, match="no exact tail path"):
        tail_table(gaussian(np.eye(2)), [euclidean(2)], [1.0], EXACT)


def test_tail_table_rejects_a_norm_family_member_that_is_not_a_norm():
    with pytest.raises(ParameterError, match="'l2' is not a norm"):
        tail_table(RAD, ["l2"], [1.0], EXACT)


def test_check_domination_enumerates_each_law_once(monkeypatch):
    calls = []
    real = dominance.enumerate_sum

    def counting(law, *args, **kwargs):
        calls.append(law)
        return real(law, *args, **kwargs)

    monkeypatch.setattr(dominance, "enumerate_sum", counting)
    x, y = ProductLaw((HALF,) * 3), ProductLaw((RAD,) * 3)
    query = DominationQuery(x=x, y=y, kappa=1.0, lam=1.0, norms=tuple(FAMILY1),
                            estimator=EXACT)
    assert check_domination(query).overall == "holds"
    assert calls == [x, y]


def test_check_wb_evaluates_each_norm_once_per_sample(monkeypatch):
    rows = []
    real = LpNorm.evaluate

    def counting(self, x):
        rows.append(len(np.atleast_2d(x)))
        return real(self, x)

    monkeypatch.setattr(LpNorm, "evaluate", counting)
    norms = [euclidean(2), LpNorm(dimension=2, p=1.0)]
    est = Estimator("mc", budget=3_000)
    for grid in ([1.0], [1.0, 2.0, 3.0, 5.0]):
        rows.clear()
        rep = check_wb(gaussian(np.eye(2)), WBParams(C=2.0, delta=1.0, theta=0.9),
                       norms, grid, est, seed=3)
        assert not rep.skipped and len(rep.cells) == len(norms) * len(grid)
        assert sum(rows) == len(norms) * est.budget


# ---------------------------------------------------------------------------
# domination checks


def test_domination_query_needs_a_norm():
    with pytest.raises(ParameterError, match="nonempty"):
        DominationQuery(x=HALF, y=RAD, kappa=1.0, lam=1.0, norms=(), estimator=EXACT)


def test_halved_law_is_dominated():
    query = DominationQuery(x=HALF, y=RAD, kappa=1.0, lam=1.0,
                            norms=tuple(FAMILY1), estimator=EXACT)
    rep = check_domination(query)
    assert rep.overall == "holds"


def test_domination_violated_in_reverse():
    # X = Rademacher(1) is NOT (1,1)-dominated by Y = Rademacher(1/2):
    # under ||x|| = |x|, P(|X| > 1) would need to be <= P(|Y| > 1) = 0... both
    # are 0 at threshold 1; use a scaled norm 1.5|x| to separate the atoms.
    norm = scale_norm(absolute_value(), 1.5)
    query = DominationQuery(x=RAD, y=HALF, kappa=1.0, lam=1.0,
                            norms=(norm,), estimator=EXACT)
    rep = check_domination(query)
    assert rep.overall == "violated"


def test_domination_lambda_rescues():
    norm = scale_norm(absolute_value(), 1.5)
    query = DominationQuery(x=RAD, y=HALF, kappa=1.0, lam=2.0,
                            norms=(norm,), estimator=EXACT)
    assert check_domination(query).overall == "holds"


def test_domination_mc_three_valued():
    x = gaussian([[1.0, 0.0], [0.0, 1.0]])
    query = DominationQuery(x=x, y=x, kappa=1.0, lam=1.0,
                            norms=(euclidean(2),),
                            estimator=Estimator("mc", budget=50_000))
    rep = check_domination(query, seed=4)
    assert rep.records[0].verdict in ("holds", "inconclusive")
    assert rep.overall != "violated"


def test_domination_query_validation():
    with pytest.raises(ParameterError):
        DominationQuery(x=RAD, y=RAD, kappa=0.5, lam=1.0, norms=(),
                        estimator=EXACT)
    with pytest.raises(ParameterError, match="dimension"):
        DominationQuery(x=RAD, y=gaussian(np.eye(2)), kappa=1.0, lam=1.0,
                        norms=(), estimator=EXACT)


# ---------------------------------------------------------------------------
# the proxy


def test_proxy_exact_three_rademacher():
    # E_eps(|S|-1)_+ = (1/4)(3-1) = 1/2 for every outcome of signs of ones.
    law = ProductLaw((RAD,) * 3)
    assert proxy_exact(law, absolute_value()).value == pytest.approx(0.5, abs=1e-15)


def _tuple_integrand(law, norm):
    # [DERIVED] the tuple-based computation: g on every outcome tuple from
    # itertools.product over the atom lists, with the product of its masses.
    combos = list(itertools.product(*[c.atoms for c in law.components]))
    outcomes = np.array([[v for v, _ in combo] for combo in combos], dtype=float)
    probs = np.array([math.prod(p for _, p in combo) for combo in combos])
    return signed_mean_over_outcomes(outcomes, norm), probs


def _sign_class_oracle_laws():
    rng = np.random.default_rng(21)

    def two_pairs():
        w = rng.uniform(0.2, 0.8)
        return FiniteSupportDist.symmetric_pairs(rng.standard_normal((2, 2)) * 0.6,
                                                 [w, 1.0 - w])

    def with_zero():
        return FiniteSupportDist.symmetric_pairs(rng.standard_normal((1, 2)), [0.7],
                                                 zero_prob=0.3)

    rad = FiniteSupportDist.from_pairs([[0.8, 0.3], [-0.8, -0.3]], [0.5, 0.5])
    return [ProductLaw(tuple(two_pairs() for _ in range(4))),
            ProductLaw((with_zero(), two_pairs(), rad, with_zero())),
            ProductLaw((rad, two_pairs(), with_zero(), two_pairs(), rad))]


SIGN_CLASS_NORMS = [euclidean(2), *random_norm_family(seed=8, d=2, size=6)]


def test_proxy_exact_reads_a_nested_sum_as_one_finite_summand():
    inner = ProductLaw((RAD, HALF))
    flat = FiniteSupportDist.from_pairs(*enumerate_sum(inner))
    for norm in (absolute_value(), scale_norm(absolute_value(), 0.4)):
        assert (proxy_exact(ProductLaw((inner, RAD)), norm)
                == proxy_exact(ProductLaw((flat, RAD)), norm))


def test_proxy_exact_matches_the_tuple_enumeration():
    for law in _sign_class_oracle_laws():
        for norm in SIGN_CLASS_NORMS:
            g, probs = _tuple_integrand(law, norm)
            expected = float(probs @ np.minimum(g, 1.0))
            assert 0.0 < expected < 1.0
            assert proxy_exact(law, norm).value == pytest.approx(expected, rel=1e-14)


def test_proxy_exact_far_above_the_tuple_cap():
    # 12 four-atom components: 4^12 = 16.7M tuples, 2^12 = 4096 sign classes.
    # [DERIVED] oracle: the proxy summed class by class, each class's inner
    # mean by brute force over all 2^12 sign patterns and its mass the product
    # of pair masses.
    rng = np.random.default_rng(12)
    pairs = rng.standard_normal((12, 2, 2)) * 0.4
    weights = rng.uniform(0.2, 0.8, 12)
    law = ProductLaw(tuple(FiniteSupportDist.symmetric_pairs(pairs[i], [w, 1.0 - w])
                           for i, w in enumerate(weights)))
    assert math.prod(c.support_size for c in law.components) > PRODUCT_SUPPORT_CAP
    norm = euclidean(2)
    eps = np.array(list(itertools.product((-1.0, 1.0), repeat=12)))
    expected = 0.0
    for choice in itertools.product((0, 1), repeat=12):
        mass = np.prod([w if c == 0 else 1.0 - w for w, c in zip(weights, choice)])
        sums = eps @ pairs[np.arange(12), list(choice)]
        inner = np.maximum(norm.evaluate(sums) - 1.0, 0.0).mean()
        expected += mass * min(inner, 1.0)
    assert proxy_exact(law, norm).value == pytest.approx(expected, rel=1e-13)


def test_proxy_mc_matches_exact():
    law = ProductLaw((RAD,) * 3)
    mc = proxy_mc(law, absolute_value(), outer_budget=20_000, seed=6)
    assert mc.value == pytest.approx(0.5, abs=0.005)


def test_proxy_mc_past_the_sign_cap_raises_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("proxy_mc drew outcomes past the sign cap")
    monkeypatch.setattr(dominance, "_draw_chunk", no_draws)
    with pytest.raises(CapacityError, match="23 summands exceed"):
        proxy_mc(ProductLaw((RAD,) * 23), absolute_value(), outer_budget=10, seed=1)


def test_proxy_mc_columns_are_the_components_sums(monkeypatch):
    # Column i of proxy_mc's outcomes is component i's sum, nested or scaled,
    # drawn on path (3, i).
    law = ProductLaw((ProductLaw((pareto_tail(2.0), RAD)),
                      scaled_source(ProductLaw((symmetric_stable(0.7), HALF)), 3.0), HALF))
    drawn = []
    real = dominance._draw_chunk

    def keeping(*args):
        drawn.append((args, real(*args)))
        return drawn[-1][1]
    monkeypatch.setattr(dominance, "_draw_chunk", keeping)
    proxy_mc(law, absolute_value(), outer_budget=CHUNK + 77, seed=4)
    assert [args[1:] for args, _ in drawn] == [(0, CHUNK, 4, (3,)), (1, 77, 4, (3,))]
    for (_, j, size, _, _), outcomes in drawn:
        for i, component in enumerate(law.components):
            want = sample_sum_chunk(component, j, size, 4, (3, i), np.empty((size, 1)))
            assert np.array_equal(outcomes[:, i], want)


def test_nothing_spawns_a_seed_sequence(monkeypatch):
    # Every draw, of nested and scaled sums too, is on a (seed, path, chunk)
    # substream: none comes from SeedSequence.spawn.
    nested = ProductLaw((ProductLaw((pareto_tail(2.0), symmetric_stable(1.5))),
                         scaled_source(ProductLaw((pareto_tail(3.0), RAD)), 2.0)))
    scaled = scaled_source(scaled_source(symmetric_stable(0.7), -2.0), 0.5)
    est = Estimator("mc", budget=CHUNK + 10)

    def run():
        return [tail_table(law, [absolute_value()], [1.0, 5.0], est, seed=2, threads=2)
                for law in (nested, scaled, ProductLaw((scaled, nested)))] + [
            proxy_mc(ProductLaw((nested, scaled, nested)), absolute_value(), CHUNK + 10, 2)]

    class Unspawnable(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("a seed sequence spawned")
    want = run()
    monkeypatch.setattr(np.random, "SeedSequence", Unspawnable)
    with pytest.raises(AssertionError, match="spawned"):
        np.random.SeedSequence(1).spawn(1)
    assert run() == want


def test_proxy_mc_is_thread_free():
    # An outer budget with a partial last chunk.
    law = ProductLaw((HALF, RAD, HALF))
    runs = [proxy_mc(law, absolute_value(), outer_budget=CHUNK + 77, seed=4,
                     threads=threads) for threads in (1, 3)]
    assert runs[0] == runs[1]
    assert 0.0 < runs[0].value < 1.0


def test_proxy_bounds_random_laws():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        comps = tuple(
            FiniteSupportDist.symmetric_pairs(rng.standard_normal((2, 2)),
                                              [0.5, 0.3], zero_prob=0.2)
            for _ in range(n))
        law = ProductLaw(comps)
        for alpha in (0.25, 0.5, 1.0):
            lower, upper = proxy_bound_check(law, euclidean(2), alpha)
            assert lower.holds and upper.holds


def test_proxy_bound_alpha_validation():
    law = ProductLaw((RAD,))
    with pytest.raises(ParameterError):
        proxy_bound_check(law, absolute_value(), 0.0)


# ---------------------------------------------------------------------------
# full-size experiments


def test_tensorisation_holds_on_finite_pairs():
    pairs = [(HALF, RAD), (HALF, RAD), (FiniteSupportDist.rademacher(0.25), RAD)]
    rep = tensorisation_experiment(pairs, kappa=1.0, lam=1.0, alpha=1.0,
                                   norms=FAMILY1, estimator=EXACT, seed=1)
    assert rep.overall == "holds"
    assert rep.kappa == 16.0 and rep.lam == 2.0
    assert rep.meta["experiment"] == "tensorisation"


def test_tensorisation_constants_alpha_half():
    pairs = [(HALF, RAD)]
    rep = tensorisation_experiment(pairs, kappa=1.5, lam=1.0, alpha=0.5,
                                   norms=FAMILY1[:2], estimator=EXACT, seed=1)
    # kappa' = 16/alpha * ceil(kappa) = 64, lambda' = (1+alpha) ceil(kappa) = 3.
    assert rep.kappa == 64.0 and rep.lam == 3.0


def test_tensorisation_recheck_catches_bad_pair():
    pairs = [(RAD, HALF)]
    with pytest.raises(PreconditionError, match="premise"):
        tensorisation_experiment(pairs, kappa=1.0, lam=1.0, alpha=1.0,
                                 norms=(scale_norm(absolute_value(), 1.5),),
                                 estimator=EXACT, seed=1)


# the three pairs of acceptance criterion 4: Cov(Y) - Cov(X) is positive definite
GAUSS_PAIRS = [
    (gaussian([[0.5, 0.1], [0.1, 0.4]]), gaussian([[1.0, 0.2], [0.2, 0.8]])),
    (gaussian([[0.3, 0.0], [0.0, 0.3]]), gaussian([[0.6, 0.0], [0.0, 0.9]])),
    (gaussian([[0.2, 0.05], [0.05, 0.2]]), gaussian([[0.4, 0.1], [0.1, 0.5]])),
]


def _gauss_tensorisation(pairs=GAUSS_PAIRS, budget=4000):
    return tensorisation_experiment(pairs, kappa=1.0, lam=1.0, alpha=1.0,
                                    norms=random_norm_family(77, 2, 5),
                                    estimator=Estimator("mc", budget=budget), seed=5)


def test_certified_gaussian_premises_build_no_tail_table(monkeypatch):
    calls = []

    def counted(law, *args, **kwargs):
        calls.append(law)
        return tail_table(law, *args, **kwargs)
    monkeypatch.setattr(dominance, "tail_table", counted)
    certified = _gauss_tensorisation()
    assert len(calls) == 2 and all(isinstance(law, ProductLaw) for law in calls)
    # the premise never reaches the report, and the sums draw on their own streams
    monkeypatch.setattr(dominance, "_covariance_ordered", lambda *args: False)
    rechecked = _gauss_tensorisation()
    assert len(calls) == 2 + 2 * len(GAUSS_PAIRS) + 2
    assert certified.to_json() == rechecked.to_json()


def test_covariance_order_certificate():
    eye = np.eye(2)
    cov = [[1.0, 0.3], [0.3, 0.5]]
    assert dominance._covariance_ordered(gaussian(cov), gaussian(cov), 1.0)
    assert dominance._covariance_ordered(gaussian(2.0 * np.array(cov)), gaussian(cov), 1.5)
    assert not dominance._covariance_ordered(gaussian(2.0 * np.array(cov)), gaussian(cov), 1.4)
    # the tolerance is relative: rounding does not certify a tiny scale
    assert not dominance._covariance_ordered(gaussian(2e-20 * eye), gaussian(1e-20 * eye), 1.0)
    assert dominance._covariance_ordered(gaussian(0.0 * eye), gaussian(0.0 * eye), 1.0)
    assert not dominance._covariance_ordered(HALF, RAD, 1.0)
    assert not dominance._covariance_ordered(gaussian([[0.25]]),
                                             scaled_source(gaussian([[1.0]]), 1.0), 1.0)


def test_unordered_gaussian_pair_is_still_rechecked():
    # X ~ N(0, 4I) is not (1,1)-dominated by Y ~ N(0, I): every norm's tail of X is larger
    pairs = [(gaussian(4.0 * np.eye(2)), gaussian(np.eye(2)))] + GAUSS_PAIRS[1:]
    assert not dominance._covariance_ordered(*pairs[0], 1.0)
    with pytest.raises(PreconditionError, match="^pair 0 fails its .*premise"):
        _gauss_tensorisation(pairs, budget=2000)


def test_report_serialization():
    query = DominationQuery(x=HALF, y=RAD, kappa=1.0, lam=1.0,
                            norms=tuple(FAMILY1[:2]), estimator=EXACT)
    rep = check_domination(query)
    blob = rep.to_json()
    assert blob["overall"] == "holds"
    assert len(blob["records"]) == 2
    assert len(rep.scatter_rows()) == 2
