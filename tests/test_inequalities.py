"""Sign-pattern enumeration against brute-force oracles; classical verifiers."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from domlab import (CapacityError, EllipsoidNorm, FiniteSupportDist, LpNorm,
                    ParameterError, PolytopeGauge, ProductLaw, SignInstance,
                    WeightedLpNorm, absolute_value, euclidean, gaussian, scale_norm,
                    sign_mean_exact, sign_tail_exact, sign_tail_mc,
                    signed_mean_over_outcomes, verify_L1L2, verify_PZ,
                    verify_contraction, verify_kahane, verify_sum_inequalities)
from domlab import inequalities
from domlab.distributions import enumerate_sum
from domlab.inequalities import _SIGN_BLOCK, _eps_blocks, _mean, _sign_norms
from domlab.rng import CHUNK, substream


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
    assert sign_mean_exact(inst) == pytest.approx(
        _brute_mean(vectors, euclidean(3), lambda v: v), abs=1e-12)
    assert verify_L1L2(inst).lhs == pytest.approx(
        _brute_mean(vectors, euclidean(3), lambda v: v * v), abs=1e-12)
    (shifted,) = signed_mean_over_outcomes(vectors[None], euclidean(3))
    assert shifted == pytest.approx(
        _brute_mean(vectors, euclidean(3), lambda v: max(v - 1.0, 0.0)), abs=1e-12)


def test_sign_tail_mc_covers_exact():
    inst = SignInstance(np.ones((4, 1)), absolute_value())
    exact = sign_tail_exact(inst, 1.0)
    est = sign_tail_mc(inst, 1.0, budget=200_000, seed=3)
    assert est.lo <= exact <= est.hi
    assert est.value == pytest.approx(exact, abs=0.01)


def test_sign_tail_mc_draws_the_integers_signs():
    # Chunk j's signs are integers(0, 2, size=(m, n)) * 2 - 1 on substream
    # (seed, 0, j); the second chunk's m * n = 5005 is odd.
    inst = SignInstance(np.random.default_rng(8).standard_normal((5, 2)), euclidean(2))
    budget = CHUNK + 1001
    est = sign_tail_mc(inst, 3.0, budget=budget, seed=11)
    count = sum(int(np.count_nonzero(inst.norm.evaluate(
        (substream(11, 0, j).integers(0, 2, size=(m, 5)) * 2.0 - 1.0) @ inst.vectors) > 3.0))
        for j, m in enumerate((CHUNK, 1001)))
    assert round(est.value * budget) == count == 41734


def test_enumeration_cap_enforced():
    inst = SignInstance(np.ones((23, 1)), absolute_value())
    with pytest.raises(CapacityError, match="cap"):
        sign_tail_exact(inst, 1.0)


def _explicit_column(col, lo, hi):
    # [DERIVED] pattern k: +1 in column 0, 2 * bit_j(k) - 1 in column j + 1.
    if col == 0:
        return np.ones(hi - lo)
    return ((np.arange(lo, hi) >> (col - 1)) & 1) * 2.0 - 1.0


def _explicit_eps(n, lo, hi):
    return np.column_stack([_explicit_column(col, lo, hi) for col in range(n)])


@pytest.mark.parametrize("max_block", [1, 2, 8, 1 << 14])
def test_eps_blocks_match_the_explicit_table(max_block):
    # Blocks may share one array, so each is copied out before the next is drawn.
    # One- and two-row blocks flip every column pattern, n = 8 included (where
    # numpy 2.4.6's in-place negate skips entries), well below n = 14.
    for n in range(1, 21 if max_block > 2 else 15):
        half = 1 << (n - 1)
        block = min(half, max_block)
        got = np.empty((half, n))
        lo = 0
        for eps in _eps_blocks(n, max_block):
            assert eps.shape == (min(block, half - lo), n)
            got[lo:lo + len(eps)] = eps
            lo += len(eps)
        assert lo == half
        for col in range(n):  # one column at a time keeps the oracle small
            want = _explicit_column(col, 0, half)
            assert np.array_equal(got[:, col].view(np.uint64), want.view(np.uint64)), (n, col)


def _five_norms(rng, d):
    # one norm of each variant: lp, weighted_lp, ellipsoid, polytope_gauge, scaled
    z = rng.standard_normal((d, d))
    u = np.vstack([rng.standard_normal((2 * d, d)), np.eye(d)])
    return [LpNorm(d, float(rng.choice([1.0, 1.5, 2.0, np.inf]))),
            WeightedLpNorm(d, 3.0, tuple(rng.uniform(0.5, 2.0, d))),
            EllipsoidNorm(tuple(map(tuple, z @ z.T + np.eye(d)))),
            PolytopeGauge(tuple(map(tuple, u))),
            scale_norm(euclidean(d), 0.3)]


def test_sign_norms_bit_identical_to_blocks_built_from_scratch():
    rng = np.random.default_rng(10)
    for n in range(1, 21):
        d = 1 + n % 3
        vectors = rng.standard_normal((n, d))
        half = 1 << (n - 1)
        for norm in _five_norms(rng, d):
            want = np.concatenate([
                norm.evaluate(_explicit_eps(n, lo, min(lo + _SIGN_BLOCK, half)) @ vectors)
                for lo in range(0, half, _SIGN_BLOCK)])
            got = _sign_norms(SignInstance(vectors, norm))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, norm)


def test_signed_mean_over_outcomes_matches_per_instance():
    rng = np.random.default_rng(2)
    outcomes = rng.standard_normal((6, 4, 2))
    norm = euclidean(2)
    batch = signed_mean_over_outcomes(outcomes, norm)
    for m in range(6):
        single = _brute_mean(outcomes[m], norm, lambda v: max(v - 1.0, 0.0))
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
        m1 = sign_mean_exact(inst)
        assert rep.lhs == pytest.approx(
            _brute_mean(inst.vectors, euclidean(3), lambda v: v * v), abs=1e-12)
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


def test_sign_verifiers_in_a_row_evaluate_the_norm_once_per_pattern(monkeypatch):
    rows = []
    real = LpNorm.evaluate

    def counting(self, x):
        rows.append(len(np.atleast_2d(x)))
        return real(self, x)

    monkeypatch.setattr(LpNorm, "evaluate", counting)
    n = 16  # two _eps_blocks blocks of half-patterns
    inst = SignInstance(np.random.default_rng(9).standard_normal((n, 2)), euclidean(2))
    assert verify_kahane(inst, s=0.7, t=1.1).holds
    assert verify_L1L2(inst).holds
    assert verify_PZ(inst, 0.5).holds
    assert 0.0 < sign_tail_exact(inst, 1.0) < 1.0 < sign_mean_exact(inst)
    assert sum(rows) == 1 << (n - 1)
    # a fresh instance with equal contents is enumerated again
    rows.clear()
    assert verify_L1L2(SignInstance(inst.vectors, inst.norm)).holds
    assert sum(rows) == 1 << (n - 1)


def test_sign_norms_keep_one_read_only_table_of_the_last_instance(monkeypatch):
    rng = np.random.default_rng(11)
    a = SignInstance(rng.standard_normal((10, 2)), euclidean(2))
    b = SignInstance(rng.standard_normal((12, 3)), LpNorm(3, 1.0))
    # fresh enumerations, on fresh instances with equal contents
    want = {inst: _sign_norms(SignInstance(inst.vectors, inst.norm)).copy() for inst in (a, b)}
    held = weakref.ref(_sign_norms(a))
    alive = []
    real = LpNorm.evaluate

    def watching(self, x):
        alive.append(held() is not None)
        return real(self, x)
    monkeypatch.setattr(LpNorm, "evaluate", watching)
    _sign_norms(b)
    assert alive and not any(alive)  # a's table went before b's was built
    for inst in (a, b, a):
        got = _sign_norms(inst)
        assert np.array_equal(got.view(np.uint64), want[inst].view(np.uint64))
        assert _sign_norms(inst) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    _sign_norms(b)
    kept = weakref.ref(a)
    del a, inst, got, want
    gc.collect()
    assert kept() is None  # the memo holds b alone


def test_l1l2_moments_keep_the_bits_of_squaring_a_copy():
    rng = np.random.default_rng(12)
    for n in range(1, 21):
        d = 1 + n % 3
        vectors = rng.standard_normal((n, d))
        for norm in _five_norms(rng, d):
            inst = SignInstance(vectors, norm)
            rep = verify_L1L2(inst)
            vals = _sign_norms(inst).copy()
            m1 = _mean(vals)
            vals *= vals
            assert rep.lhs.hex() == _mean(vals).hex(), (n, norm)
            assert rep.rhs.hex() == (2.0 * m1 * m1).hex(), (n, norm)


def test_sign_instance_compares_by_identity():
    vectors = np.ones((2, 1))
    inst = SignInstance(vectors, absolute_value())
    assert inst == inst
    assert inst != SignInstance(vectors, absolute_value())
    assert hash(inst) == hash(inst) and len({inst, inst}) == 1


def test_sign_instance_checks_its_norm_at_construction():
    with pytest.raises(ParameterError, match="'l2' is not a norm"):
        SignInstance(np.ones((2, 2)), "l2")
    with pytest.raises(ParameterError, match="norm dimension 3 != law dimension 2"):
        SignInstance(np.ones((2, 2)), euclidean(3))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "1"])
def test_sign_tails_read_the_threshold_as_a_finite_number(t, monkeypatch):
    inst = SignInstance(np.ones((3, 1)), absolute_value())
    with pytest.raises(ParameterError, match="threshold"):
        sign_tail_exact(inst, t)

    def no_draws(*args):
        raise AssertionError("drew before the threshold was checked")
    monkeypatch.setattr(inequalities, "substream", no_draws)
    with pytest.raises(ParameterError, match="threshold"):
        sign_tail_mc(inst, t, budget=10, seed=0)


def test_contraction_holds_and_validates():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((5, 2))
    a = np.array([0.1, 0.5, 0.2, 0.9, 0.0])
    b = np.array([1.0, 0.5, 0.4, 1.1, 0.3])
    assert verify_contraction(vectors, a, b, euclidean(2)).holds
    with pytest.raises(ParameterError, match="contraction"):
        verify_contraction(vectors, b, a, euclidean(2))


def test_contraction_reads_coefficients_as_finite_reals():
    vectors, ones = np.eye(3), [1.0, 1.0, 1.0]
    with pytest.raises(ParameterError, match=r"contraction coefficients\[0\]\[1\] must be a "
                                             "finite number, got nan"):
        verify_contraction(vectors, [0.1, math.nan, 0.1], ones, euclidean(3))
    with pytest.raises(ParameterError, match=r"contraction coefficients\[1\]\[2\].*inf"):
        verify_contraction(vectors, [0.1, 0.1, 0.1], [1.0, 1.0, math.inf], euclidean(3))
    with pytest.raises(ParameterError, match=r"coefficients\[0\]\[0\].*got True"):
        verify_contraction(vectors, [True, 0.1, 0.1], ones, euclidean(3))
    with pytest.raises(ParameterError, match="length mismatch"):
        verify_contraction(vectors, [0.1, 0.1], [1.0, 1.0], euclidean(3))


# ---------------------------------------------------------------------------
# sum inequalities for independent symmetric vectors


def _tuples(law):
    # [DERIVED] every outcome tuple via itertools.product over the atom
    # lists, shape (M, n, d), with the product of its masses.
    combos = list(itertools.product(*[c.atoms for c in law.components]))
    outcomes = np.array([[v for v, _ in combo] for combo in combos], dtype=float)
    probs = np.array([math.prod(p for _, p in combo) for combo in combos])
    return outcomes, probs


def _brute_sum_reports(law, norm, levels):
    # [DERIVED] brute-force oracle: both sides of every report, each event
    # read off every outcome tuple and its partial sums.
    outcomes, probs = _tuples(law)
    m, n, d = outcomes.shape
    s, t, u = levels["s"], levels["t"], levels["u"]
    xn = np.array([[norm.evaluate(outcomes[i, j]) for j in range(n)]
                   for i in range(m)])
    sn = np.array([[norm.evaluate(outcomes[i, : j + 1].sum(axis=0))
                    for j in range(n)] for i in range(m)])

    def p(event):
        return probs[event].sum()
    p_xstar, p_last_t = p(xn.max(axis=1) > t), p(sn[:, -1] > t)
    return {
        "levy": (p(sn.max(axis=1) > t), 2.0 * p_last_t),
        "max_summand": (p_xstar, 2.0 * p_last_t),
        "hoffmann_jorgensen": (p(sn.max(axis=1) > s + t + u),
                               p(xn.max(axis=1) > s)
                               + 2.0 * p(sn.max(axis=1) > t) * p(sn[:, -1] > u)),
        "summand_tails": (sum(p(xn[:, j] > t) for j in range(n)),
                          p_xstar / p(xn.max(axis=1) <= t)),
    }


def _sum_oracle_cases():
    comp = FiniteSupportDist.symmetric_pairs([[1.0], [0.5]], [0.5, 0.4],
                                             zero_prob=0.1)
    cases = [(ProductLaw((comp,) * 3), absolute_value(), {"s": 0.5, "t": 0.5, "u": 0.5})]
    rng = np.random.default_rng(13)
    for norm in (euclidean(2), LpNorm(2, 1.0), WeightedLpNorm(2, 3.0, (0.7, 1.6))):
        comps = tuple(FiniteSupportDist.symmetric_pairs(rng.standard_normal((2, 2)),
                                                        [w, 0.9 - w], zero_prob=0.1)
                      for w in rng.uniform(0.2, 0.7, int(rng.integers(3, 5))))
        cases.append((ProductLaw(comps), norm, {"s": 0.6, "t": 1.5, "u": 0.9}))
    return cases


def test_sum_inequalities_exact_against_oracle():
    for law, norm, levels in _sum_oracle_cases():
        reports = verify_sum_inequalities(law, norm, levels)
        oracle = _brute_sum_reports(law, norm, levels)
        assert set(reports) == set(oracle)
        for name, (lhs, rhs) in oracle.items():
            rep = reports[name]
            assert rep.method == "exact", name
            assert rep.lhs == pytest.approx(lhs, rel=1e-14, abs=1e-300), name
            assert rep.rhs == pytest.approx(rhs, rel=1e-14, abs=1e-300), name
            assert rep.holds, name


def test_sum_inequalities_exact_far_above_the_tuple_cap():
    # 40 Rademacher summands: 2^40 outcome tuples.  [DERIVED] oracle: a dict
    # dynamic programme over (walk position, S* > t, S* > s+t+u), each step
    # splitting a mass in two.  |X_j| = 1 surely, so X* > t never holds and
    # X* > s always does.  Every mass is a multiple of 2^-40, so sums are exact.
    n, s, t, u = 40, 0.5, 1.5, 2.5
    walk = {(0, False, False): 1.0}
    for _ in range(n):
        step = {}
        for (pos, above_t, above_stu), mass in walk.items():
            for nxt in (pos - 1, pos + 1):
                key = (nxt, above_t or abs(nxt) > t, above_stu or abs(nxt) > s + t + u)
                step[key] = step.get(key, 0.0) + mass / 2

        walk = step

    def p(event):
        return sum(mass for key, mass in walk.items() if event(*key))
    p_sstar_t, p_last_t = p(lambda pos, a, b: a), p(lambda pos, a, b: abs(pos) > t)
    expected = {
        "levy": (p_sstar_t, 2.0 * p_last_t),
        "max_summand": (0.0, 2.0 * p_last_t),
        "hoffmann_jorgensen": (p(lambda pos, a, b: b),
                               1.0 + 2.0 * p_sstar_t * p(lambda pos, a, b: abs(pos) > u)),
        "summand_tails": (0.0, 0.0)}
    law = ProductLaw((FiniteSupportDist.rademacher(),) * n)
    reports = verify_sum_inequalities(law, absolute_value(), {"s": s, "t": t, "u": u})
    assert {name: (rep.lhs, rep.rhs) for name, rep in reports.items()} == expected
    assert all(rep.method == "exact" and rep.holds for rep in reports.values())


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


def test_sum_inequalities_read_a_nested_sum_as_one_finite_summand():
    rad, half = FiniteSupportDist.rademacher(), FiniteSupportDist.rademacher(0.5)
    inner = ProductLaw((rad, half))
    flat = FiniteSupportDist.from_pairs(*enumerate_sum(inner))
    levels = {"s": 0.5, "t": 1.2, "u": 0.9}
    nested = verify_sum_inequalities(ProductLaw((inner, rad)), absolute_value(), levels)
    assert nested == verify_sum_inequalities(ProductLaw((flat, rad)), absolute_value(), levels)
    assert "summand_tails" in nested


def test_summand_tails_rhs_keeps_precision_near_certainty():
    # Each X_j is +-2 with total mass 1 - 1e-3 and 0 with mass 1e-3, so at
    # t = 0.5, P(X* <= t) = 1e-9.  [DERIVED] rhs = P(X* > t) / P(X* <= t)
    # = (1 - 1e-9) / 1e-9; 1 - P(X* > t) would cancel to a few digits.
    comp = FiniteSupportDist.symmetric_pairs([[2.0]], [1.0 - 1e-3], zero_prob=1e-3)
    reports = verify_sum_inequalities(ProductLaw((comp,) * 3), absolute_value(),
                                      {"s": 0.5, "t": 0.5, "u": 0.5})
    rep = reports["summand_tails"]
    assert rep.rhs == pytest.approx((1.0 - 1e-9) / 1e-9, rel=1e-12)
    assert rep.lhs == pytest.approx(3.0 * (1.0 - 1e-3), rel=1e-14)
    assert rep.method == "exact" and rep.holds


def test_sum_inequalities_skip_when_rhs_infinite():
    # Every |X_j| = 1 surely, so P(X* <= 0.5) = 0 and the summand-tail rhs is
    # infinite: that entry is left out, and the other three are reported.
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 2)
    reports = verify_sum_inequalities(law, absolute_value(),
                                      {"s": 0.5, "t": 0.5, "u": 0.5})
    assert set(reports) == {"levy", "max_summand", "hoffmann_jorgensen"}


def test_sum_inequalities_need_finite_components():
    law = ProductLaw((gaussian([[1.0]]),) * 3)
    with pytest.raises(ParameterError, match="finite-support"):
        verify_sum_inequalities(law, absolute_value(), {"s": 1.0, "t": 1.0, "u": 1.0})
