"""The one three-valued verdict rule and the reports built on it."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import beta

import domlab
from domlab import (DominationQuery, Estimator, FiniteSupportDist, SlackReport,
                    TailEstimate, WBParams, absolute_value, check_domination,
                    check_wb, clopper_pearson, compare_tails, gaussian, pareto_tail,
                    random_norm_family, scale_norm)
from domlab.stats import EXACT_SLACK_TOL


def _ex(v):
    return TailEstimate.from_exact(v)


def _mc(lo, hi):
    return TailEstimate(value=(lo + hi) / 2.0, lo=lo, hi=hi, exact=False)


# (lhs, rhs, factor, verdict of the claim lhs <= factor * rhs)
RULE_TABLE = [
    # exact: equality, at the 1e-12 * scale slack, and just past it
    (_ex(0.5), _ex(0.25), 2.0, "holds"),
    (_ex(0.5 * (1 + EXACT_SLACK_TOL)), _ex(0.5), 1.0, "holds"),
    (_ex(0.5 + 2.0 * EXACT_SLACK_TOL), _ex(0.5), 1.0, "violated"),
    (_ex(1e6 + 0.5e-6), _ex(1e6), 1.0, "holds"),
    (_ex(1e6 + 2e-6), _ex(1e6), 1.0, "violated"),
    (_ex(0.0), _ex(0.0), 1.0, "holds"),
    # Monte Carlo: disjoint intervals either way, and overlapping ones
    (_mc(0.30, 0.40), _mc(0.10, 0.12), 2.0, "violated"),
    (_mc(0.10, 0.20), _mc(0.15, 0.30), 2.0, "holds"),
    (_mc(0.20, 0.40), _mc(0.10, 0.25), 1.0, "inconclusive"),
    (_mc(0.30, 0.40), _mc(0.10, 0.15), 2.0, "inconclusive"),
    # mixed exact and Monte Carlo: the interval branch, no slack
    (_ex(0.5), _mc(0.10, 0.20), 2.0, "violated"),
    (_ex(0.1), _mc(0.20, 0.30), 1.0, "holds"),
    (_ex(0.3), _mc(0.10, 0.20), 2.0, "inconclusive"),
    (_mc(0.30, 0.40), _ex(0.2), 1.0, "violated"),
    (_mc(0.10, 0.50 + 1e-13), _ex(0.5), 1.0, "inconclusive"),
]


@pytest.mark.parametrize("lhs,rhs,factor,expected", RULE_TABLE)
def test_one_verdict_rule(lhs, rhs, factor, expected):
    assert compare_tails(lhs, rhs, factor) == expected
    if lhs.exact and rhs.exact:
        rep = SlackReport.from_exact("claim", lhs.value, factor * rhs.value)
        assert rep.verdict == expected
        assert rep.holds == (expected != "violated")
        assert rep.method == "exact"


def test_exact_slack_has_no_absolute_floor():
    # X = +-2 at pair mass 1e-13 (else 0) against Y = +-0.5, kappa = lambda = 1,
    # under |x|: P(|X| > 1) = 1e-13 against P(|Y| > 1) = 0 is an infinite ratio.
    x = FiniteSupportDist.symmetric_pairs([[2.0]], [1e-13], zero_prob=1.0 - 1e-13)
    query = DominationQuery(x=x, y=FiniteSupportDist.rademacher(0.5), kappa=1.0, lam=1.0,
                            norms=(absolute_value(),), estimator=Estimator("exact"))
    (record,) = check_domination(query).records
    assert (record.px.value, record.py.value, record.verdict) == (1e-13, 0.0, "violated")
    assert compare_tails(_ex(1e-300), _ex(0.0), 1.0) == "violated"
    assert compare_tails(_ex(1e-300 * (1 + 0.5 * EXACT_SLACK_TOL)), _ex(1e-300), 1.0) == "holds"


def test_check_domination_records_follow_the_rule():
    for x, y, est in [
            (FiniteSupportDist.rademacher(0.5), FiniteSupportDist.rademacher(),
             Estimator("exact")),
            (gaussian([[0.5]]), gaussian([[1.0]]), Estimator("mc", budget=20000))]:
        for kappa in (1.0, 2.0):
            rep = check_domination(DominationQuery(
                x=x, y=y, kappa=kappa, lam=1.0,
                norms=tuple(random_norm_family(seed=3, d=1, size=6)),
                estimator=est), seed=4)
            for rec in rep.records:
                assert rec.verdict == compare_tails(rec.px, rec.py, kappa)


def test_check_wb_cells_follow_the_rule():
    norms = [scale_norm(absolute_value(), f) for f in (0.25, 0.1)]
    for delta in (2.0, 3.0):
        params = WBParams(C=1.0, delta=delta, theta=0.5)
        for est in (Estimator("exact"), Estimator("mc", budget=20000)):
            rep = check_wb(pareto_tail(2.0), params, norms, [1.0, 2.0, 4.0], est,
                           seed=6)
            assert len(rep.cells) == 6
            for cell in rep.cells:
                factor = params.C * cell.lam ** (-params.delta)
                assert cell.verdict == compare_tails(
                    cell.p_lam, rep.p1[cell.norm_index], factor)


def test_clopper_pearson_matches_the_beta_quantiles():
    # [DERIVED] the interval's endpoints are the a and 1 - a quantiles of
    # Beta(k, n - k + 1) and Beta(k + 1, n - k), a = (1 - confidence) / 2.
    rng = np.random.default_rng(14)
    for _ in range(2000):
        n = int(10 ** rng.uniform(0, 7))
        k = int(rng.integers(0, n + 1))
        confidence = float(rng.choice([0.9, 0.95, 0.99, rng.uniform(0.5, 0.999)]))
        a = (1.0 - confidence) / 2.0
        lo = 0.0 if k == 0 else float(beta.ppf(a, k, n - k + 1))
        hi = 1.0 if k == n else float(beta.ppf(1.0 - a, k + 1, n - k))
        assert clopper_pearson(k, n, confidence) == (lo, hi), (k, n, confidence)


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(domlab.__file__))
    code = ("import sys, domlab; "
            "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False False"
