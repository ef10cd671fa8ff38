"""Acceptance suite: ten end-to-end criteria with pinned oracle values.

Each test prints a single PASS line on success; a failed assertion makes
pytest print the FAIL for that criterion.  Tolerances are pinned in the
asserts and never derived from the code under test.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import levy_stable

from domlab import (Estimator, FiniteSupportDist, ProductLaw, SignInstance,
                    WBParams, absolute_value, check_wb, counterexample_experiment,
                    decompose, euclidean, gaussian, pareto_tail,
                    proxy_bound_check, proxy_exact, proxy_mc,
                    random_norm_family, recursion_bound, scale_norm,
                    schur_convexity_check, sign_tail_exact, sign_tail_mc,
                    tensorisation_experiment, verify_L1L2, verify_PZ,
                    verify_contraction, verify_kahane, verify_sum_inequalities,
                    wb_sum_experiment)
from domlab.cli import main as cli_main


def _report(i, label, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {i} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {i} ({label}): PASS [{elapsed:.1f}s]")


def _random_finite_component(rng, d, pairs):
    vecs = rng.standard_normal((pairs, d))
    w = rng.random(pairs) + 0.1
    w = 0.9 * w / w.sum()
    return FiniteSupportDist.symmetric_pairs(vecs, w, zero_prob=0.1)


def _random_majorised_pair(rng, n):
    b = np.sort(rng.standard_normal(n))[::-1]
    w = rng.random(int(rng.integers(2, 5)))
    w /= w.sum()
    a = np.zeros(n)
    for wi in w:
        a += wi * rng.permutation(b)
    return a, b


def test_criterion_01_exact_oracles_and_mc():
    started = time.monotonic()
    inst = SignInstance(np.ones((3, 1)), absolute_value())
    assert sign_tail_exact(inst, 1.0) == 0.25
    law = ProductLaw((FiniteSupportDist.rademacher(),) * 3)
    assert proxy_exact(law, absolute_value()).value == 0.5
    mc_tail = sign_tail_mc(inst, 1.0, budget=10**6, seed=1)
    assert abs(mc_tail.value - 0.25) < 0.002
    mc_proxy = proxy_mc(law, absolute_value(), outer_budget=10**6, seed=1)
    assert abs(mc_proxy.value - 0.5) < 0.002
    _report(1, "exact oracles, MC within 0.002", started, 2.0)


def test_criterion_02_proxy_sandwich():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        comps = tuple(
            _random_finite_component(rng, d, pairs=int(rng.integers(1, 4)))
            for _ in range(n))
        law = ProductLaw(comps)
        for alpha in (0.25, 0.5, 1.0):
            lower, upper = proxy_bound_check(law, euclidean(d), alpha)
            assert lower.holds and upper.holds
    _report(2, "proxy sandwich, 200 laws x 3 alphas, zero violations",
            started, 60.0)


def test_criterion_03_classical_inequalities():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        inst = SignInstance(rng.standard_normal((n, d)) / math.sqrt(n),
                            euclidean(d))
        assert verify_kahane(inst, s=0.5, t=0.5).holds
        assert verify_L1L2(inst).holds
        assert verify_PZ(inst, theta=0.5).holds
        a = rng.random(n)
        b = a + rng.random(n)
        assert verify_contraction(inst.vectors, a, b, inst.norm).holds
    # pinned equality case: v = (1,1,1), s = t = 1, slack exactly 0
    eq = verify_kahane(SignInstance(np.ones((3, 1)), absolute_value()),
                       s=1.0, t=1.0)
    assert eq.holds and eq.slack == 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        comps = tuple(_random_finite_component(rng, d, pairs=2)
                      for _ in range(n))
        reports = verify_sum_inequalities(ProductLaw(comps), euclidean(d),
                                          {"s": 0.4, "t": 0.6, "u": 0.8})
        for name, rep in reports.items():
            assert rep.holds, name
            assert rep.method == "exact"
    _report(3, "500 sign + 100 sum instances, exact, zero violations",
            started, 120.0)


_GAUSS_PAIRS = [
    (gaussian([[0.5, 0.1], [0.1, 0.4]]), gaussian([[1.0, 0.2], [0.2, 0.8]])),
    (gaussian([[0.3, 0.0], [0.0, 0.3]]), gaussian([[0.6, 0.0], [0.0, 0.9]])),
    (gaussian([[0.2, 0.05], [0.05, 0.2]]), gaussian([[0.4, 0.1], [0.1, 0.5]])),
]


def _run_gaussian_tensorisation(threads):
    norms = random_norm_family(seed=77, d=2, size=50)
    return tensorisation_experiment(
        _GAUSS_PAIRS, kappa=1.0, lam=1.0, alpha=1.0, norms=norms,
        estimator=Estimator("mc", budget=10**6), seed=100, threads=threads)


def test_criterion_04_gaussian_tensorisation():
    started = time.monotonic()
    rep = _run_gaussian_tensorisation(threads=1)
    assert rep.kappa == 16.0 and rep.lam == 2.0
    assert len(rep.records) == 50
    assert "violated" not in rep.verdicts()
    _report(4, "Gaussian pairs, (16, 2) sum domination, 50 norms, MC 1e6",
            started, 300.0)


def test_criterion_05_tail_recursion():
    started = time.monotonic()
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    rows = recursion_bound(1e-3, params, K=10)
    assert rows[1]["recursive"] == pytest.approx(0.006004, abs=1e-15)
    p0 = 1.0 / (96.0 * 81.0)
    for row in recursion_bound(p0, params, K=10):
        assert row["within_closed_form"]
        assert row["closed_form"] == pytest.approx(
            108.0 * 3.0 ** (-2 * row["k"]) * p0 if row["k"] else p0, rel=1e-12)
    # the k = 1 multiplier crosses 1 exactly at p0 = theta' = (96 C 9^2)^-1
    assert recursion_bound(p0, params, K=1)[1]["multiplier"] == \
        pytest.approx(1.0, abs=1e-14)
    _report(5, "recursion 0.006004 exact, closed form, gate threshold",
            started, 1.0)


def test_criterion_06_wb_sum_tensorisation():
    started = time.monotonic()
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    norms = [scale_norm(absolute_value(), 1.0 / c) for c in (200.0, 300.0, 500.0)]
    lam_grid = [1, 3, 9, 27]
    rep = wb_sum_experiment([pareto_tail(2.0)] * 3, params, norms, lam_grid,
                            Estimator("mc", budget=10**7), seed=200)
    assert rep.params.C == pytest.approx(972.0)
    assert rep.params.theta == pytest.approx(min(0.25, 1.0 / 7776.0))
    assert rep.skipped == ()
    assert "violated" not in rep.verdicts()
    # component check: closed-form tails sit exactly on the C = 1 bound
    comp_rep = check_wb(pareto_tail(2.0), params, norms, lam_grid,
                        Estimator("exact"))
    assert comp_rep.overall == "holds"
    for cell in comp_rep.cells:
        assert cell.p_lam.exact
        assert cell.p_lam.value == pytest.approx(cell.bound, rel=1e-12)
    _report(6, "3 iid pareto sum vs WB(972, 2, 1/7776), MC 1e7, no violation",
            started, 300.0)


def test_criterion_07_majorisation_decomposition():
    started = time.monotonic()
    rng = np.random.default_rng(707)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a, b = _random_majorised_pair(rng, n)
        mix = decompose(a, b)
        assert np.max(np.abs(mix.reconstruct() - a)) <= 1e-9
        assert all(w >= -1e-12 for _, w in mix.terms)
        assert abs(sum(w for _, w in mix.terms) - 1.0) <= 1e-12
        assert len(mix.terms) <= (n - 1) ** 2 + 1
    _report(7, "200 mixtures reconstruct within 1e-9", started, 10.0)


def test_criterion_08_schur_convexity():
    started = time.monotonic()
    rng = np.random.default_rng(808)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        a, b = _random_majorised_pair(rng, n)
        d = int(rng.integers(1, 3))
        comp = _random_finite_component(rng, d, pairs=2)
        assert schur_convexity_check(a, b, comp, euclidean(d)).holds
    _report(8, "200 exact monotone-moment checks, zero violations",
            started, 60.0)


def test_criterion_09_counterexample_witness(tmp_path):
    started = time.monotonic()
    grid = [4 ** k for k in range(1, 10)]  # 4 ... 262,144
    budget = 10**6
    table = counterexample_experiment(0.5, grid, kappa=100.0, lam=2.0, budget=budget)
    assert table.method == "mc"
    assert table.witness == 65536

    # [DERIVED] the true index-1/2 law, from scipy's levy_stable: the witness
    # is the first grid point where kappa P(|X| > n / lambda) < P(|X| > 1).
    def oracle(t):
        return 2.0 * float(levy_stable.sf(t, 0.5, 0.0))
    lhs = oracle(1.0)
    assert abs(lhs - 0.54256) < 1e-5
    assert 100.0 * oracle(65536 / 2.0) < lhs <= 100.0 * oracle(16384 / 2.0)
    se = math.sqrt(lhs * (1.0 - lhs) / budget)
    assert abs(table.rows[0].lhs - lhs) < 5.0 * se
    row = [r for r in table.rows if r.n == 65536][0]
    p = oracle(65536 / 2.0)
    assert abs(row.rhs / 100.0 - p) < 5.0 * math.sqrt(p * (1.0 - p) / budget)
    cfg = {"kind": "counterexample", "seed": 1, "delta": 0.5, "n_grid": grid,
           "kappa": 100.0, "lambda": 2.0, "budget": budget}
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["expected_violation"] is True
    assert report["witness"] == 65536
    _report(9, "witness n = 65536 on the true law, CLI exit 2 with "
            "expected-violation flag", started, 30.0)


def test_criterion_10_determinism(tmp_path):
    started = time.monotonic()
    cfg = {
        "kind": "domination", "seed": 4,
        "x": {"family": "gaussian", "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "y": {"family": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        "kappa": 2.0, "lambda": 1.0,
        "norms": {"random": {"seed": 5, "dimension": 2, "size": 10}},
        "estimator": {"kind": "mc", "budget": 300000},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for name in ("a", "b"):
        assert cli_main(["run", str(path), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "scatter.csv").read_bytes() == \
        (tmp_path / "b" / "scatter.csv").read_bytes()
    # the Gaussian tensorisation fixture gives identical numbers at 1 / 8 workers
    one = _run_gaussian_tensorisation(threads=1)
    eight = _run_gaussian_tensorisation(threads=8)
    assert one.to_json() == eight.to_json()
    _report(10, "byte-identical reports; 1 vs 8 workers identical", started,
            300.0)
