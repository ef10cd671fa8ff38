"""Sign-pattern enumeration against brute-force oracles; classical verifiers."""

import itertools
import tracemalloc

import numpy as np
import pytest

from domlab import (EXACT, CapacityError, Estimator, FiniteSupportDist, LpNorm,
                    ParameterError, ProductLaw, SignInstance, absolute_value,
                    euclidean, gaussian, pareto_tail, sign_mean_exact,
                    sign_tail_exact, sign_tail_mc, signed_mean_over_outcomes,
                    verify_L1L2, verify_PZ, verify_contraction, verify_kahane,
                    verify_sum_inequalities)
from domlab.rng import CHUNK


def _brute_tail(vectors, norm, t):
    # [DERIVED] independent oracle: all 2^n sign patterns via itertools.
    n = len(vectors)
    hits = 0
    for eps in itertools.product((-1.0, 1.0), repeat=n):
        s = np.einsum("i,id->d", np.array(eps), vectors)
        if norm.evaluate(s) > t:
            hits += 1
    return hits / 2 ** n


def _brute_mean(vectors, norm, f):
    n = len(vectors)
    acc = 0.0
    for eps in itertools.product((-1.0, 1.0), repeat=n):
        s = np.einsum("i,id->d", np.array(eps), vectors)
        acc += f(norm.evaluate(s))
    return acc / 2 ** n


def test_sign_tail_exact_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        vectors = rng.standard_normal((n, 2))
        inst = SignInstance(vectors, euclidean(2))
        for t in (0.5, 1.0, 2.0):
            assert sign_tail_exact(inst, t) == pytest.approx(
                _brute_tail(vectors, euclidean(2), t), abs=1e-12)


def test_sign_tail_three_rademacher():
    # [DERIVED] P(|e1+e2+e3| > 1) = 1/4.
    inst = SignInstance(np.ones((3, 1)), absolute_value())
    assert sign_tail_exact(inst, 1.0) == 0.25
    assert sign_tail_exact(inst, -0.5) == 1.0
    assert sign_tail_exact(inst, 3.0) == 0.0


def test_sign_mean_exact_matches_brute_force():
    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((5, 3))
    inst = SignInstance(vectors, euclidean(3))
    assert sign_mean_exact(inst, "identity") == pytest.approx(
        _brute_mean(vectors, euclidean(3), lambda v: v), abs=1e-12)
    assert sign_mean_exact(inst, "square") == pytest.approx(
        _brute_mean(vectors, euclidean(3), lambda v: v * v), abs=1e-12)
    assert sign_mean_exact(inst, ("shifted_plus", 1.0)) == pytest.approx(
        _brute_mean(vectors, euclidean(3), lambda v: max(v - 1.0, 0.0)), abs=1e-12)


def test_sign_tail_mc_covers_exact():
    inst = SignInstance(np.ones((4, 1)), absolute_value())
    exact = sign_tail_exact(inst, 1.0)
    est = sign_tail_mc(inst, 1.0, budget=200_000, seed=3)
    assert est.lo <= exact <= est.hi
    assert est.value == pytest.approx(exact, abs=0.01)


def test_enumeration_cap_enforced():
    inst = SignInstance(np.ones((23, 1)), absolute_value())
    with pytest.raises(CapacityError, match="cap"):
        sign_tail_exact(inst, 1.0)


def test_signed_mean_over_outcomes_matches_per_instance():
    rng = np.random.default_rng(2)
    outcomes = rng.standard_normal((6, 4, 2))
    norm = euclidean(2)
    batch = signed_mean_over_outcomes(outcomes, norm)
    for m in range(6):
        single = sign_mean_exact(SignInstance(outcomes[m], norm),
                                 ("shifted_plus", 1.0))
        assert batch[m] == pytest.approx(single, abs=1e-12)


# ---------------------------------------------------------------------------
# classical sign inequalities


def test_kahane_equality_case():
    # v = (1,1,1), s = t = 1: both sides equal 1/4 exactly.
    inst = SignInstance(np.ones((3, 1)), absolute_value())
    rep = verify_kahane(inst, s=1.0, t=1.0)
    assert rep.holds
    assert rep.lhs == 0.25 and rep.rhs == 0.25
    assert rep.slack == 0.0


def test_kahane_random_instances_hold():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        inst = SignInstance(rng.standard_normal((n, 2)), euclidean(2))
        assert verify_kahane(inst, s=0.7, t=1.1).holds


def test_kahane_rejects_nonpositive_levels():
    inst = SignInstance(np.ones((2, 1)), absolute_value())
    with pytest.raises(ParameterError):
        verify_kahane(inst, s=0.0, t=1.0)


def test_l1l2_holds_and_matches_moments():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        inst = SignInstance(rng.standard_normal((n, 3)), euclidean(3))
        rep = verify_L1L2(inst)
        assert rep.holds
        m1 = sign_mean_exact(inst, "identity")
        assert rep.lhs == pytest.approx(sign_mean_exact(inst, "square"), abs=1e-12)
        assert rep.rhs == pytest.approx(2.0 * m1 * m1, abs=1e-12)


def test_paley_zygmund_holds():
    rng = np.random.default_rng(6)
    for theta in (0.25, 0.5, 0.75):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            inst = SignInstance(rng.standard_normal((n, 2)), euclidean(2))
            rep = verify_PZ(inst, theta)
            assert rep.holds
            assert rep.lhs == pytest.approx(0.5 * (1.0 - theta) ** 2, abs=1e-15)


def test_sign_verifiers_evaluate_the_norm_once_per_pattern(monkeypatch):
    rows = []
    real = LpNorm.evaluate

    def counting(self, x):
        rows.append(len(np.atleast_2d(x)))
        return real(self, x)

    monkeypatch.setattr(LpNorm, "evaluate", counting)
    n = 16  # two _eps_blocks blocks of half-patterns
    inst = SignInstance(np.random.default_rng(9).standard_normal((n, 2)), euclidean(2))
    for verify in (lambda: verify_kahane(inst, s=0.7, t=1.1),
                   lambda: verify_L1L2(inst), lambda: verify_PZ(inst, 0.5)):
        rows.clear()
        assert verify().holds
        assert sum(rows) == 1 << (n - 1)


def test_contraction_holds_and_validates():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((5, 2))
    a = np.array([0.1, 0.5, 0.2, 0.9, 0.0])
    b = np.array([1.0, 0.5, 0.4, 1.1, 0.3])
    assert verify_contraction(vectors, a, b, euclidean(2)).holds
    with pytest.raises(ParameterError, match="contraction"):
        verify_contraction(vectors, b, a, euclidean(2))


# ---------------------------------------------------------------------------
# sum inequalities for independent symmetric vectors


def _brute_sum_reports(law, norm, levels):
    # [DERIVED] brute-force oracle on the enumerated product support.
    from domlab import enumerate_product

    outcomes, probs = enumerate_product(law)
    m, n, d = outcomes.shape
    s, t, u = levels["s"], levels["t"], levels["u"]
    xn = np.array([[norm.evaluate(outcomes[i, j]) for j in range(n)]
                   for i in range(m)])
    sn = np.array([[norm.evaluate(outcomes[i, : j + 1].sum(axis=0))
                    for j in range(n)] for i in range(m)])
    out = {
        "levy_lhs": probs[sn.max(axis=1) > t].sum(),
        "levy_rhs": 2.0 * probs[sn[:, -1] > t].sum(),
        "max_lhs": probs[xn.max(axis=1) > t].sum(),
    }
    return out


def test_sum_inequalities_exact_against_oracle():
    comp = FiniteSupportDist.symmetric_pairs([[1.0], [0.5]], [0.5, 0.4],
                                             zero_prob=0.1)
    law = ProductLaw((comp,) * 3)
    levels = {"s": 0.5, "t": 0.5, "u": 0.5}
    reports = verify_sum_inequalities(law, absolute_value(), levels)
    oracle = _brute_sum_reports(law, absolute_value(), levels)
    assert reports["levy"].lhs == pytest.approx(oracle["levy_lhs"], abs=1e-12)
    assert reports["levy"].rhs == pytest.approx(oracle["levy_rhs"], abs=1e-12)
    assert reports["max_summand"].lhs == pytest.approx(oracle["max_lhs"], abs=1e-12)
    for name in ("levy", "max_summand", "hoffmann_jorgensen", "summand_tails"):
        assert reports[name].holds, name


def test_sum_inequalities_random_exact_instances():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        comps = tuple(
            FiniteSupportDist.symmetric_pairs(rng.standard_normal((2, 2)),
                                              [0.4, 0.5], zero_prob=0.1)
            for _ in range(n))
        law = ProductLaw(comps)
        reports = verify_sum_inequalities(law, euclidean(2),
                                          {"s": 0.4, "t": 0.6, "u": 0.8})
        for name, rep in reports.items():
            assert rep.holds, name
            assert rep.method == "exact"


def test_sum_inequalities_skip_when_rhs_infinite():
    # Every |X_j| = 1 surely, so P(X* > 0.5) = 1 and p/(1-p) is infinite.
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 2)
    reports = verify_sum_inequalities(law, absolute_value(),
                                      {"s": 0.5, "t": 0.5, "u": 0.5})
    assert reports["summand_tails"].note == "skipped"


def test_sum_inequalities_mc_path():
    law = ProductLaw((gaussian([[1.0]]),) * 3)
    reports = verify_sum_inequalities(law, absolute_value(),
                                      {"s": 1.0, "t": 1.0, "u": 1.0},
                                      estimator=Estimator("mc", budget=100_000),
                                      seed=5)
    for name, rep in reports.items():
        assert rep.method == "mc"
        assert rep.holds or rep.note == "inconclusive", name
    with pytest.raises(ParameterError, match="estimator"):
        verify_sum_inequalities(law, absolute_value(),
                                {"s": 1.0, "t": 1.0, "u": 1.0})


def test_sum_inequalities_follow_the_estimator_kind():
    levels = {"s": 1.0, "t": 1.0, "u": 1.0}
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 3)
    exact = verify_sum_inequalities(law, absolute_value(), levels, estimator=EXACT)
    default = verify_sum_inequalities(law, absolute_value(), levels)
    assert all(rep.method == "exact" and rep.samples == 0 for rep in exact.values())
    assert {k: r.to_json() for k, r in exact.items()} == \
        {k: r.to_json() for k, r in default.items()}
    gauss = ProductLaw((gaussian([[1.0]]),) * 3)
    for est in (EXACT, Estimator("exact", budget=1000)):
        with pytest.raises(ParameterError, match="no exact tail path"):
            verify_sum_inequalities(gauss, absolute_value(), levels, estimator=est)


def test_sum_inequalities_mc_memory_is_bounded_and_unchanged():
    # Outcome tuples are drawn and counted one CHUNK at a time: a 16x larger
    # budget must not raise the traced peak.  The draws are those of
    # sample_outcomes(law, budget, seed), so the integer counts, and with
    # them the reports, are pinned to the values of the whole-batch code.
    law = ProductLaw((pareto_tail(2.0),) * 3)
    levels = {"s": 2.0, "t": 3.0, "u": 4.0}

    def run(budget):
        return verify_sum_inequalities(law, absolute_value(), levels,
                                       estimator=Estimator("mc", budget=budget), seed=2)

    def peak(budget):
        tracemalloc.start()
        try:
            run(budget)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64 * CHUNK) <= 2 * peak(4 * CHUNK)
    reports = run(4 * CHUNK + 123)
    assert {name: (rep.lhs, rep.rhs, rep.verdict, rep.samples)
            for name, rep in reports.items()} == {
        "levy": (0.5317138641155769, 0.8383365044020026, "holds", 262267),
        "max_summand": (0.2971551891774413, 0.8383365044020026, "holds", 262267),
        "hoffmann_jorgensen": (0.053182443845394195, 0.8945297760613833, "holds", 262267),
        "summand_tails": (0.3328020681214182, 0.4227891913005268, "holds", 262267)}
