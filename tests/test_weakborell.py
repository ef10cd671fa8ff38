"""Polynomial tail-decay checks, the scalar recursion, and sum tensorisation."""

import pytest

from domlab import (Estimator, ParameterError, PreconditionError, WBParams,
                    absolute_value, check_wb, pareto_tail, recursion_bound,
                    scale_norm, wb_sum_experiment, wb_tensorize_constants)

EXACT = Estimator("exact")


def test_params_validation():
    with pytest.raises(ParameterError):
        WBParams(C=0.5, delta=2.0, theta=0.5)
    with pytest.raises(ParameterError):
        WBParams(C=1.0, delta=0.0, theta=0.5)
    with pytest.raises(ParameterError):
        WBParams(C=1.0, delta=2.0, theta=1.0)


def test_tensorized_constants_delta_two():
    # C' = 12 * 9^2 * 1 = 972; theta' = min(1/4, 1/(96*81)) = 1/7776.
    out = wb_tensorize_constants(WBParams(C=1.0, delta=2.0, theta=0.5))
    assert out.C == pytest.approx(972.0, abs=1e-12)
    assert out.delta == 2.0
    assert out.theta == pytest.approx(1.0 / 7776.0, abs=1e-18)


def test_tensorized_constants_generic():
    params = WBParams(C=2.0, delta=1.5, theta=0.1)
    out = wb_tensorize_constants(params)
    nine = 9.0 ** 1.5
    assert out.C == pytest.approx(12.0 * nine * 2.0, rel=1e-15)
    assert out.theta == pytest.approx(min(0.05, 1.0 / (96.0 * 2.0 * nine)),
                                      rel=1e-15)


def test_tensorized_constants_reject_a_delta_whose_9_to_delta_overflows():
    # 9.0 ** 400 once raised OverflowError; the largest delta that fits stays valid.
    params = WBParams(C=1.0, delta=400.0, theta=0.5)
    for call in (lambda: wb_tensorize_constants(params),
                 lambda: recursion_bound(0.1, params, 3)):
        with pytest.raises(ParameterError, match="delta = 400.0 is too large"):
            call()
    assert wb_tensorize_constants(WBParams(C=1.0, delta=320.0, theta=0.5)).C < 1e308


def test_constants_are_read_as_floats():
    params = WBParams(C=1, delta=2, theta=0.5)
    assert params.to_json() == {"C": 1.0, "delta": 2.0, "theta": 0.5}
    assert all(type(v) is float for v in params.to_json().values())
    for bad in (True, "2", [2.0], None, float("nan")):
        with pytest.raises(ParameterError, match="delta must be a finite number"):
            WBParams(C=1.0, delta=bad, theta=0.5)


# ---------------------------------------------------------------------------
# single-vector checks


def test_check_wb_pareto_exact_equality():
    # P(|X| > lam/c) / P(|X| > 1/c) = lam^-2 exactly: holds with C = 1,
    # and every cell sits exactly on the bound (slack 0).
    src = pareto_tail(2.0)
    norm = scale_norm(absolute_value(), 0.1)
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    rep = check_wb(src, params, [norm], [1, 3, 9, 27, 81], EXACT)
    assert rep.overall == "holds"
    for cell in rep.cells:
        assert cell.p_lam.value == pytest.approx(cell.bound, rel=1e-12)
    assert rep.skipped == ()


def test_check_wb_gate_skips_hot_norms():
    # Under the unscaled modulus P(|X| > 1) = 1 >= theta: premise fails.
    src = pareto_tail(2.0)
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    rep = check_wb(src, params, [absolute_value()], [1, 3], EXACT)
    assert rep.skipped == (0,)
    assert rep.cells == ()
    assert rep.overall == "holds"


def test_check_wb_detects_violation():
    # A slowly decaying tail (exponent 1) fails the delta = 2 bound.
    src = pareto_tail(1.0)
    norm = scale_norm(absolute_value(), 0.1)
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    rep = check_wb(src, params, [norm], [9.0], EXACT)
    assert rep.overall == "violated"


def test_check_wb_lambda_grid_validation():
    src = pareto_tail(2.0)
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    with pytest.raises(ParameterError):
        check_wb(src, params, [absolute_value()], [], EXACT)
    with pytest.raises(ParameterError):
        check_wb(src, params, [absolute_value()], [0.5], EXACT)


def test_loglog_rows():
    src = pareto_tail(2.0)
    norm = scale_norm(absolute_value(), 0.1)
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    rep = check_wb(src, params, [norm], [1, 3, 9], EXACT)
    rows = rep.loglog_rows()
    assert [r[0] for r in rows] == [1.0, 3.0, 9.0]
    for lam, ratio, bound in rows:
        assert ratio == pytest.approx(lam ** -2, rel=1e-12)
        assert bound == pytest.approx(lam ** -2, rel=1e-12)


# ---------------------------------------------------------------------------
# the scalar recursion


def test_recursion_first_step_value():
    # [DERIVED] q_1 = 6 * 1 * 3^0 * 1e-3 + 4e-6 = 0.006004 exactly.
    rows = recursion_bound(1e-3, WBParams(C=1.0, delta=2.0, theta=0.5), K=3)
    assert rows[0]["recursive"] == 1e-3
    assert rows[1]["recursive"] == pytest.approx(0.006004, abs=1e-18)


def test_recursion_stays_below_closed_form():
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    p0 = 1.0 / (96.0 * 81.0)  # exactly theta'
    rows = recursion_bound(p0, params, K=10)
    for row in rows:
        assert row["within_closed_form"], row
    # closed form at k: 12 * 9 * 3^-2k * p0.
    assert rows[2]["closed_form"] == pytest.approx(108.0 * 3.0 ** -4 * p0, rel=1e-14)


def test_recursion_multiplier_reproduces_gate():
    # The k = 1 induction multiplier equals 1 exactly at p0 = theta'.
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    theta_prime = 1.0 / 7776.0
    rows = recursion_bound(theta_prime, params, K=1)
    assert rows[1]["multiplier"] == pytest.approx(1.0, abs=1e-15)
    below = recursion_bound(theta_prime * 0.5, params, K=1)
    assert below[1]["multiplier"] < 1.0


def test_recursion_premise_flag():
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    assert recursion_bound(1e-5, params, K=1)[0]["premise_ok"]
    assert not recursion_bound(0.4, params, K=1)[0]["premise_ok"]


def test_recursion_validation():
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    with pytest.raises(ParameterError):
        recursion_bound(0.0, params, K=2)
    with pytest.raises(ParameterError):
        recursion_bound(1e-3, params, K=-1)


# ---------------------------------------------------------------------------
# gates and the sum experiment


def test_wb_sum_experiment_holds():
    comps = [pareto_tail(2.0)] * 2
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    norms = [scale_norm(absolute_value(), 0.004)]
    rep = wb_sum_experiment(comps, params, norms, [1, 3, 9],
                            Estimator("mc", budget=300_000), seed=3)
    assert rep.params.C == pytest.approx(972.0)
    assert rep.overall in ("holds", "inconclusive")
    assert "violated" not in rep.verdicts()
    assert rep.meta["experiment"] == "wb_sum"


def test_wb_sum_recheck_catches_bad_component():
    comps = [pareto_tail(1.0)] * 2  # fails the delta = 2 premise
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    norms = [scale_norm(absolute_value(), 0.01)]
    with pytest.raises(PreconditionError, match="component"):
        wb_sum_experiment(comps, params, norms, [9.0],
                          Estimator("mc", budget=10_000), seed=3)


def test_wb_report_serialization():
    src = pareto_tail(2.0)
    params = WBParams(C=1.0, delta=2.0, theta=0.5)
    rep = check_wb(src, params, [scale_norm(absolute_value(), 0.1)], [1, 3], EXACT)
    blob = rep.to_json()
    assert blob["params"]["C"] == 1.0
    assert blob["overall"] == "holds"
    assert len(blob["cells"]) == 2
