"""Tail comparisons, the proxy functional, and domination experiments."""

import itertools
import tracemalloc

import numpy as np
import pytest

import domlab.dominance as dominance
from domlab import (DominationQuery, Estimator, FiniteSupportDist, LpNorm,
                    ParameterError, PreconditionError, ProductLaw, TailEstimate,
                    WBParams, absolute_value, bernoulli_thinned, check_domination,
                    check_wb, conditional_convexity_check, euclidean, exact_capable,
                    gaussian, pareto_tail, proxy_bound_check, proxy_exact,
                    proxy_mc, random_norm_family, removedelta_check, sample_sum,
                    scale_norm, scaled_source, tail_probability, tail_table,
                    tensorisation_experiment, thin)
from domlab.dominance import REMOVEDELTA_CAP
from domlab.rng import CHUNK

EXACT = Estimator("exact")

RAD = FiniteSupportDist.rademacher()
HALF = FiniteSupportDist.rademacher(0.5)
FAMILY1 = random_norm_family(seed=31, d=1, size=6)


# ---------------------------------------------------------------------------
# tail probabilities


def test_tail_exact_finite():
    law = ProductLaw((RAD,) * 3)
    p = tail_probability(law, absolute_value(), 1.0, EXACT)
    assert p.exact and p.value == pytest.approx(0.25, abs=1e-15)


def test_tail_analytic_scalar_with_scaled_norm():
    # P(c|X| > 1) = P(|X| > 1/c) via the closed-form survival function.
    src = pareto_tail(2.0)
    norm = scale_norm(absolute_value(), 0.25)
    p = tail_probability(src, norm, 1.0, EXACT)
    assert p.exact and p.value == pytest.approx(4.0 ** -2, abs=1e-15)


def test_tail_mc_matches_analytic():
    src = pareto_tail(2.0)
    est = Estimator("mc", budget=400_000)
    p = tail_probability(gaussian(np.eye(2)), euclidean(2), 1.0, est, seed=2)
    assert not p.exact
    # [DERIVED] chi-square(2): P(||Z|| > 1) = exp(-1/2).
    assert p.lo <= np.exp(-0.5) <= p.hi
    assert p.value == pytest.approx(np.exp(-0.5), abs=0.005)
    assert tail_probability(src, absolute_value(), 2.0, est, seed=2).exact


def test_tail_table_samples_a_thinned_vector_source():
    # No closed form in d = 2, so the cell is sampled through the thinning draw.
    law = bernoulli_thinned(gaussian(np.eye(2)), 0.3)
    (cell,), = tail_table(law, [euclidean(2)], [1.0], Estimator("mc", budget=200_000),
                          seed=3)
    assert not cell.exact
    # [DERIVED] P(||delta Z|| > 1) = 0.3 P(||Z|| > 1) = 0.3 exp(-1/2).
    assert cell.lo <= 0.3 * np.exp(-0.5) <= cell.hi


def test_tail_requires_mc_when_no_exact_path():
    with pytest.raises(ParameterError, match="mc"):
        tail_probability(gaussian(np.eye(2)), euclidean(2), 1.0, EXACT)


def test_exact_capable():
    assert exact_capable(RAD)
    assert exact_capable(ProductLaw((RAD, HALF)))
    assert exact_capable(pareto_tail(2.0))
    assert not exact_capable(gaussian(np.eye(2)))
    assert not exact_capable(ProductLaw((gaussian(np.eye(2)),) * 2))


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
    samples = sample_sum(law, est.budget, 8, stream=(7,))
    for norm, row in zip(norms, table):
        vals = norm.evaluate(samples)
        assert row == [TailEstimate.from_counts(int(np.count_nonzero(vals > t)),
                                                est.budget, 0.95)
                       for t in thresholds]


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

    assert peak(64 * CHUNK) <= 2 * peak(4 * CHUNK)
    est = Estimator("mc", budget=4 * CHUNK + 123)
    assert (tail_table(law, norms, thresholds, est, seed=2, threads=1)
            == tail_table(law, norms, thresholds, est, seed=2, threads=3))


def test_tail_table_exact_estimator_needs_an_exact_path():
    with pytest.raises(ParameterError, match="no exact tail path"):
        tail_table(gaussian(np.eye(2)), [euclidean(2)], [1.0], EXACT)


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


def test_proxy_mc_matches_exact():
    law = ProductLaw((RAD,) * 3)
    mc = proxy_mc(law, absolute_value(), outer_budget=20_000, seed=6)
    assert mc.value == pytest.approx(0.5, abs=0.005)
    assert mc.inner == "exact"


def test_proxy_mc_rejects_a_bad_inner_budget():
    law = ProductLaw((RAD,) * 23)  # past the sign cap: the inner mean is MC
    for bad in (-3, 0):
        with pytest.raises(ParameterError, match="inner budget"):
            proxy_mc(law, absolute_value(), outer_budget=10, seed=1, inner_budget=bad)
    mc = proxy_mc(law, absolute_value(), outer_budget=10, seed=1, inner_budget=64)
    assert mc.value == 1.0 and mc.inner == "mc(64)"


def test_proxy_mc_is_thread_free():
    # Both inner branches, and an outer budget with a partial last chunk.
    for law, inner in ((ProductLaw((HALF, RAD, HALF)), "exact"),
                       (ProductLaw((FiniteSupportDist.rademacher(0.1),) * 23), "mc(8)")):
        runs = [proxy_mc(law, absolute_value(), outer_budget=CHUNK + 77, seed=4,
                         inner_budget=8, threads=threads) for threads in (1, 3)]
        assert runs[0] == runs[1]
        assert runs[0].inner == inner and 0.0 < runs[0].value < 1.0


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
# conditional convexity of the proxy integrand


def test_integrand_domination_under_thinning():
    # Thinning makes a source more peaked, so the integrand's law drops.
    ys = tuple(FiniteSupportDist.rademacher(v) for v in (1.0, 0.8, 1.2))
    xs = tuple(thin(y, 0.5) for y in ys)
    reports = conditional_convexity_check(
        ProductLaw(xs), ProductLaw(ys), absolute_value(),
        t_grid=[0.0, 0.25, 0.5, 1.0], precheck_norms=FAMILY1)
    for rep in reports:
        assert rep.holds, rep.name


def test_integrand_precheck_failure():
    with pytest.raises(PreconditionError, match="dominated"):
        conditional_convexity_check(
            ProductLaw((RAD,)), ProductLaw((HALF,)), absolute_value(),
            t_grid=[0.0], precheck_norms=(scale_norm(absolute_value(), 1.5),))


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


def test_reduction_routes():
    pairs = [(HALF, RAD), (HALF, RAD)]
    split = tensorisation_experiment(pairs, kappa=1.0, lam=1.0, alpha=1.0,
                                     route="split", norms=FAMILY1[:3],
                                     estimator=EXACT, seed=1)
    thin_rep = tensorisation_experiment(pairs, kappa=1.0, lam=1.0, alpha=1.0,
                                        route="thin", norms=FAMILY1[:3],
                                        estimator=EXACT, seed=1)
    assert split.kappa == 16.0 and split.lam == 2.0
    assert thin_rep.kappa == 64.0 and thin_rep.lam == 4.0
    assert split.overall == "holds" and thin_rep.overall == "holds"
    with pytest.raises(ParameterError, match="route"):
        tensorisation_experiment(pairs, kappa=1.0, lam=1.0, alpha=1.0,
                                 route="other", norms=FAMILY1[:1],
                                 estimator=EXACT)


def test_removedelta_holds():
    rng = np.random.default_rng(11)
    for _ in range(5):
        vectors = rng.standard_normal((6, 2))
        for p in (0.25, 0.5, 1.0):
            assert removedelta_check(vectors, euclidean(2), p).holds


def test_removedelta_cap():
    vectors = np.ones((REMOVEDELTA_CAP + 1, 1))
    with pytest.raises(Exception, match="cap"):
        removedelta_check(vectors, absolute_value(), 0.5)


def test_report_serialization():
    query = DominationQuery(x=HALF, y=RAD, kappa=1.0, lam=1.0,
                            norms=tuple(FAMILY1[:2]), estimator=EXACT)
    rep = check_domination(query)
    blob = rep.to_json()
    assert blob["overall"] == "holds"
    assert len(blob["records"]) == 2
    assert len(rep.scatter_rows()) == 2
