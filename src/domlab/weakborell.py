"""Weak-concentration (polynomial tail decay) checks and their tensorisation.

A symmetric vector X satisfies the weak concentration property with
constants (C, delta, theta) if P(||X|| > lam) <= C lam^-delta P(||X|| > 1)
for all lam >= 1 and every norm with P(||X|| > 1) < theta.  Sums of n
independent such vectors inherit the property with C' = 12 * 9^delta * C
and theta' = min{theta/2, (96 C 9^delta)^-1}; this module checks both the
inherited inequality and the scalar recursion behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .distributions import Law, ProductLaw
from .dominance import _recheck_premises, tail_table
from .errors import ParameterError, _check_count, _check_list, _check_real
from .geometry import norm_to_spec
from .stats import (EXACT_SLACK_TOL, Estimator, TailEstimate, compare_tails,
                    worst_verdict)


@dataclass(frozen=True)
class WBParams:
    C: float
    delta: float
    theta: float

    def __post_init__(self):
        for name, interval in (("C", "[1, inf)"), ("delta", "(0, inf)"), ("theta", "(0, 1)")):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, interval))

    def to_json(self) -> dict:
        return {"C": self.C, "delta": self.delta, "theta": self.theta}


def wb_tensorize_constants(params: WBParams) -> WBParams:
    """Constants inherited by a sum of independent components.

    C' = 12 * 9^delta * C;  theta' = min{theta / 2, (96 C 9^delta)^-1}.
    A delta for which 96 C 9^delta is not a finite float raises.
    """
    nine = 9.0 ** min(params.delta, 323.0)  # 9^323 is finite, 96 * 9^323 is not
    if not math.isfinite(96.0 * params.C * nine):
        raise ParameterError(f"delta = {params.delta} is too large: 96 C 9^delta overflows")
    c_out = 12.0 * nine * params.C
    theta_out = min(params.theta / 2.0, 1.0 / (96.0 * params.C * nine))
    return WBParams(C=c_out, delta=params.delta, theta=theta_out)


def wb_lambda_grid(lambda_grid: Sequence[float]) -> list:
    """The lambda grid as a nonempty list of finite floats >= 1."""
    return [_check_real(l, f"lambda_grid[{i}]", "[1, inf)")
            for i, l in enumerate(_check_list(lambda_grid, "lambda_grid"))]


@dataclass(frozen=True)
class WBCell:
    norm_index: int
    lam: float
    p_lam: TailEstimate
    bound: float  # C * lam^-delta * p1 (point value)
    verdict: str

    def to_json(self) -> dict:
        return {"norm_index": self.norm_index, "lambda": self.lam,
                "p_lambda": self.p_lam.to_json(), "bound": self.bound,
                "verdict": self.verdict}


@dataclass(frozen=True)
class WBReport:
    params: WBParams
    norm_specs: tuple
    p1: tuple  # per-norm TailEstimate of P(||X|| > 1)
    cells: tuple
    skipped: tuple  # norm indices with p1 >= theta (premise fails)
    meta: dict = field(default_factory=dict)

    @property
    def overall(self) -> str:
        return worst_verdict(c.verdict for c in self.cells)

    def verdicts(self):
        return [c.verdict for c in self.cells]

    def to_json(self) -> dict:
        return {"params": self.params.to_json(), "overall": self.overall,
                "norms": list(self.norm_specs),
                "p1": [p.to_json() for p in self.p1],
                "cells": [c.to_json() for c in self.cells],
                "skipped": list(self.skipped), "meta": self.meta}

    def loglog_rows(self):
        """(lambda, p_lambda / p1, C * lambda^-delta) rows for CSV export."""
        rows = []
        for c in self.cells:
            p1 = self.p1[c.norm_index].value
            ratio = c.p_lam.value / p1 if p1 > 0 else float("nan")
            rows.append((c.lam, ratio,
                         self.params.C * c.lam ** (-self.params.delta)))
        return rows


def check_wb(law: Law, params: WBParams, norms, lambda_grid: Sequence[float],
             estimator: Estimator, seed: int = 0, threads: int = 1) -> WBReport:
    """Check P(||X|| > lam) <= C lam^-delta P(||X|| > 1) over norms and lam.

    Norms whose unit-tail probability is at least theta are excluded from
    verdicts (the premise of the property fails there) and listed in the
    report's skipped field.
    """
    lambda_grid = wb_lambda_grid(lambda_grid)
    norms = list(norms)
    table = tail_table(law, norms, [1.0, *lambda_grid], estimator, seed, (5,), threads)
    cells = []
    skipped = []
    for i, (p1, *p_lams) in enumerate(table):
        if p1.value >= params.theta:
            skipped.append(i)
            continue
        for lam, p_lam in zip(lambda_grid, p_lams):
            factor = params.C * lam ** (-params.delta)
            cells.append(WBCell(norm_index=i, lam=lam, p_lam=p_lam,
                                bound=factor * p1.value,
                                verdict=compare_tails(p_lam, p1, factor)))
    return WBReport(params=params, norm_specs=tuple(norm_to_spec(n) for n in norms),
                    p1=tuple(row[0] for row in table),
                    cells=tuple(cells), skipped=tuple(skipped),
                    meta={"lambda_grid": lambda_grid})


def recursion_bound(p0: float, params: WBParams, K: int):
    """Iterate the tail recursion q_k = 6 C 3^{-delta(k-1)} p0 + 4 q_{k-1}^2.

    Returns one record per k in 0..K with the recursive bound, the closed
    form 12 * 3^delta * C * 3^{-k delta} * p0, the induction multiplier
    1/2 + 48 C 3^{-delta k + 3 delta} p0, and whether the recursive bound
    stays below the closed form.  The premise flag records whether
    p0 < min{1/3, theta'}, which the induction needs.
    """
    p0 = _check_real(p0, "p0", "(0, 1)")
    _check_count(K, "K", 0)
    tens = wb_tensorize_constants(params)
    premise_ok = p0 < min(1.0 / 3.0, tens.theta)
    c, delta = params.C, params.delta
    rows = []
    for k in range(K + 1):
        closed = 12.0 * 3.0 ** delta * c * 3.0 ** (-k * delta) * p0
        if k == 0:
            q = p0
            closed = p0  # induction base: the bound is p0 itself
            multiplier = float("nan")
        else:
            q = 6.0 * c * 3.0 ** (-delta * (k - 1)) * p0 + 4.0 * q * q
            multiplier = 0.5 + 48.0 * c * 3.0 ** (-delta * k + 3.0 * delta) * p0
        ok = q <= closed * (1.0 + EXACT_SLACK_TOL)
        rows.append({"k": k, "recursive": q, "closed_form": closed,
                     "multiplier": multiplier, "within_closed_form": ok,
                     "premise_ok": premise_ok})
    return rows


def wb_sum_experiment(components: Sequence[Law], params: WBParams, norms,
                      lambda_grid: Sequence[float], estimator: Estimator,
                      seed: int = 0, threads: int = 1) -> WBReport:
    """Check the sum of WB-certified components against the inherited constants.

    Each component is first re-checked with the input params over the norm
    family and with the run's estimator (a violated cell raises, naming the
    component); the sum is then checked against wb_tensorize_constants(params).
    """
    law = ProductLaw(tuple(components))
    _recheck_premises(
        law.components, lambda comp, comp_seed: check_wb(
            comp, params, norms, lambda_grid, estimator, seed=comp_seed, threads=threads),
        seed, 2000,
        f"component {{i}} fails its WB({params.C},{params.delta},{params.theta}) premise")
    tens = wb_tensorize_constants(params)
    rep = check_wb(law, tens, norms, lambda_grid, estimator, seed=seed,
                   threads=threads)
    return replace(rep, meta=dict(rep.meta, experiment="wb_sum",
                                  input_params=params.to_json()))
