"""Experiment configuration: a strict JSON schema and the experiment registry.

Configs are JSON objects.  Unknown keys are rejected everywhere (a typo
must never silently change a constant) and every experiment names an
explicit seed (no entropy defaults).  Each experiment kind has one entry in
EXPERIMENTS holding its keys, its prepare step and its catalog example.
The prepare step builds every library object the run uses through the
library's own constructors and checks, and returns the run; this module
adds only key-level rules and the counts that only configs have.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (FiniteSupportDist, ProductLaw, check_dimension, gaussian,
                            pareto_tail, scaled_source, symmetric_stable)
from .dominance import (DominationQuery, check_domination, tail_method, tail_table,
                        tensorisation_experiment, tensorisation_query)
from .errors import (ParameterError, _check_count, _check_list, _check_real, _check_spec,
                     _in_spec, _spec_tag)
from .geometry import (euclidean, norm_family, norm_from_spec, norm_to_spec,
                       random_norm_family)
from .inequalities import (SIGN_ENUMERATION_CAP, SignInstance, verify_L1L2, verify_PZ,
                           verify_contraction, verify_kahane, verify_sum_inequalities)
from .majorisation import (_majorisation_violation, counterexample_experiment,
                           counterexample_inputs, decompose, schur_convexity_check,
                           weight_pair)
from .rng import substream
from .stats import DEFAULT_CONFIDENCE, Estimator
from .weakborell import (WBParams, check_wb, wb_lambda_grid, wb_sum_experiment,
                         wb_tensorize_constants)


# ---------------------------------------------------------------------------
# source specs


_SOURCE_KEYS = {  # family -> its (required, optional) keys besides "family"
    "finite": (("atoms",), ()),
    "gaussian": (("covariance",), ()),
    "symmetric_stable": (("index",), ("scale",)),
    "pareto_tail": (("exponent",), ()),
    "scaled": (("factor", "inner"), ()),
    "sum_of": (("parts",), ()),
}


def source_from_spec(spec: dict, context: str = "source"):
    fam = _spec_tag(spec, "family", _SOURCE_KEYS, context)
    if fam == "finite":
        atoms = _check_list(spec["atoms"], context + ".atoms")
        if not all(isinstance(atom, (list, tuple)) and len(atom) == 2 for atom in atoms):
            raise ParameterError(f"{context}.atoms must be [vector, probability] pairs")
        return _in_spec(context, FiniteSupportDist.from_pairs, *zip(*atoms))
    if fam == "gaussian":
        return _in_spec(context, gaussian, spec["covariance"])
    if fam == "symmetric_stable":
        return _in_spec(context, symmetric_stable, spec["index"], spec.get("scale", 1.0))
    if fam == "pareto_tail":
        return _in_spec(context, pareto_tail, spec["exponent"])
    if fam == "sum_of":
        return _in_spec(context, ProductLaw, tuple(source_from_spec(p, f"{context}.parts[{i}]")
                                                   for i, p in enumerate(spec["parts"])))
    inner = source_from_spec(spec["inner"], context + ".inner")
    return _in_spec(context, scaled_source, inner, spec["factor"])


# ---------------------------------------------------------------------------
# norm family specs


def norms_from_spec(spec, context: str = "norms"):
    if isinstance(spec, dict) and "random" in spec:
        _check_spec(spec, ("random",), (), context)
        minimums = {"seed": 0, "dimension": 1, "size": 1}
        _check_spec(spec["random"], tuple(minimums), (), context + ".random")
        return random_norm_family(*(_check_count(spec["random"][k], f"{context}.random: {k}",
                                                 minimum) for k, minimum in minimums.items()))
    if isinstance(spec, dict) and "list" in spec:
        _check_spec(spec, ("list",), (), context)
        return [norm_from_spec(s, f"{context}.list[{i}]")
                for i, s in enumerate(_check_list(spec["list"], context + ".list"))]
    raise ParameterError(f"{context}: expected an object with 'random' or 'list'")


def estimator_from_spec(spec, context: str = "estimator") -> Estimator:
    _check_spec(spec, ("kind",), ("budget", "confidence"), context)
    return _in_spec(context, Estimator, kind=spec["kind"], budget=spec.get("budget", 10**6),
                    confidence=spec.get("confidence", DEFAULT_CONFIDENCE))


# ---------------------------------------------------------------------------
# experiment kinds: each prepare step builds what its run uses and returns
# run(threads) -> (report dict, csv tables, verdict list)


def _prepare_tail(raw):
    law = source_from_spec(raw["source"])
    norms = norm_family(norms_from_spec(raw["norms"]), law.dimension)
    est = estimator_from_spec(raw["estimator"])
    tail_method(law, est)
    thresholds = [_check_real(t, f"thresholds[{i}]")
                  for i, t in enumerate(_check_list(raw["thresholds"], "thresholds"))]

    def run(threads):
        table = tail_table(law, norms, thresholds, est, raw["seed"], (0,), threads)
        cells = []
        csv_rows = []
        for i, (norm, row) in enumerate(zip(norms, table)):
            for t, p in zip(thresholds, row):
                cells.append({"norm_index": i, "norm": norm_to_spec(norm),
                              "threshold": t, "tail": p.to_json()})
                csv_rows.append((i, t, p.value, p.lo, p.hi))
        tables = {"tails.csv": (("norm_index", "threshold", "value", "lo", "hi"),
                                csv_rows)}
        return {"kind": "tail", "cells": cells}, tables, []
    return run


def _domination_result(rep, kind):
    tables = {"scatter.csv": (("norm_index", "p_x", "kappa_p_y"), rep.scatter_rows())}
    return dict(rep.to_json(), kind=kind), tables, rep.verdicts()


def _prepare_domination(raw):
    query = DominationQuery(x=source_from_spec(raw["x"], "x"),
                            y=source_from_spec(raw["y"], "y"),
                            kappa=raw["kappa"], lam=raw["lambda"],
                            norms=norms_from_spec(raw["norms"]),
                            estimator=estimator_from_spec(raw["estimator"]))

    def run(threads):
        rep = check_domination(query, seed=raw["seed"], threads=threads)
        return _domination_result(rep, "domination")
    return run


def _prepare_tensorize(raw):
    pairs = []
    for i, pair in enumerate(_check_list(raw["pairs"], "pairs")):
        _check_spec(pair, ("x", "y"), (), f"pairs[{i}]")
        pairs.append((source_from_spec(pair["x"], f"pairs[{i}].x"),
                      source_from_spec(pair["y"], f"pairs[{i}].y")))
    est = estimator_from_spec(raw["estimator"])
    # every check the run makes before its premise re-check
    constants = raw["kappa"], raw["lambda"], raw["alpha"]
    norms = tensorisation_query(pairs, *constants, norms_from_spec(raw["norms"]), est).norms

    def run(threads):
        rep = tensorisation_experiment(pairs, *constants, norms, est, seed=raw["seed"],
                                       threads=threads)
        return _domination_result(rep, "tensorize")
    return run


def _wb_params(raw):
    return WBParams(C=raw["C"], delta=raw["delta"], theta=raw["theta"])


def _wb_result(rep, **fields):
    tables = {"loglog.csv": (("lambda", "tail_ratio", "bound"), rep.loglog_rows())}
    return dict(rep.to_json(), **fields), tables, rep.verdicts()


def _prepare_wb(raw):
    law = source_from_spec(raw["source"])
    params = _wb_params(raw)
    norms = norm_family(norms_from_spec(raw["norms"]), law.dimension)
    grid = wb_lambda_grid(raw["lambda_grid"])
    est = estimator_from_spec(raw["estimator"])
    tail_method(law, est)

    def run(threads):
        rep = check_wb(law, params, norms, grid, est, seed=raw["seed"], threads=threads)
        return _wb_result(rep, kind="wb")
    return run


def _prepare_wb_sum(raw):
    if "components" in raw:
        if "iid" in raw or "n" in raw:
            raise ParameterError("config[wb-sum]: give components or iid + n, not both")
        comps = [source_from_spec(c, f"components[{i}]")
                 for i, c in enumerate(_check_list(raw["components"], "components"))]
    elif "iid" in raw and "n" in raw:
        n = _check_count(raw["n"], "config[wb-sum]: n", 0)  # ProductLaw rejects 0
        comps = [source_from_spec(raw["iid"], "iid")] * n
    else:
        raise ParameterError("config[wb-sum]: need components or iid + n")
    law = ProductLaw(tuple(comps))
    params = _wb_params(raw)
    tensorized = wb_tensorize_constants(params).to_json()
    norms = norm_family(norms_from_spec(raw["norms"]), law.dimension)
    grid = wb_lambda_grid(raw["lambda_grid"])
    est = estimator_from_spec(raw["estimator"])
    tail_method(law, est)  # the sum has an exact path only if every component does

    def run(threads):
        rep = wb_sum_experiment(law.components, params, norms, grid, est,
                                seed=raw["seed"], threads=threads)
        return _wb_result(rep, kind="wb-sum", tensorized=tensorized)
    return run


def _prepare_majorize(raw):
    a, b = weight_pair(raw["a"], raw["b"])

    def run(threads):
        bad = _majorisation_violation(a, b)
        if bad is not None:
            report = {"kind": "majorize", "majorised": False,
                      "violating_partial_sum": bad}
            return report, {}, ["violated"]
        mix = decompose(a, b)
        err = float(np.max(np.abs(mix.reconstruct() - a)))
        report = {"kind": "majorize", "majorised": True, "mixture": mix.to_json(),
                  "terms": len(mix.terms), "reconstruction_error": err}
        return report, {}, ["holds"]
    return run


def _prepare_schur(raw):
    a, b = weight_pair(raw["a"], raw["b"])
    comp = source_from_spec(raw["component"], "component")
    if not comp.finite:
        raise ParameterError("config[schur]: component must be a finite law")
    (norm,) = norm_family([norm_from_spec(raw["norm"])], comp.dimension)

    def run(threads):
        rep = schur_convexity_check(a, b, comp, norm)
        return {"kind": "schur", "report": rep.to_json()}, {}, [rep.verdict]
    return run


def _prepare_counterexample(raw):
    inputs = raw["delta"], raw["n_grid"], raw["kappa"], raw["lambda"]
    counterexample_inputs(*inputs)
    est = Estimator("mc", budget=raw.get("budget", 10**6))

    def run(threads):
        table = counterexample_experiment(*inputs, budget=est.budget, seed=raw["seed"],
                                          threads=threads)
        report = dict(table.to_json(), kind="counterexample")
        tables = {"table.csv": (("n", "lhs", "rhs", "ratio"), table.csv_rows())}
        # Finding the witness is the expected outcome; it still exits as a
        # violation so pipelines can tell "domination failed" from "held".
        verdicts = ["violated"] if table.witness is not None else ["inconclusive"]
        return report, tables, verdicts
    return run


def _random_finite_component(rng, d, pairs):
    vecs = rng.standard_normal((pairs, d))
    w = rng.random(pairs) + 0.1
    w = 0.9 * w / w.sum()
    return FiniteSupportDist.symmetric_pairs(vecs, w, zero_prob=0.1)


def _prepare_inequality_suite(raw):
    instances, max_n, product_laws = (
        _check_count(raw[k], f"config[inequality-suite]: {k}", minimum)
        for k, minimum in (("instances", 1), ("max_n", 2), ("product_laws", 0)))
    if max_n > SIGN_ENUMERATION_CAP:
        raise ParameterError(f"config[inequality-suite]: max_n must be at most the "
                             f"sign-enumeration cap {SIGN_ENUMERATION_CAP}, got {max_n}")
    d = check_dimension(raw["dimension"])
    norm = euclidean(d)

    def run(threads):
        reports = []
        for i in range(instances):
            rng = substream(raw["seed"], 10, i)
            m = int(rng.integers(2, max_n + 1))
            inst = SignInstance(rng.standard_normal((m, d)) / np.sqrt(m), norm)
            reports.append(verify_kahane(inst, s=0.5, t=0.5))
            reports.append(verify_L1L2(inst))
            reports.append(verify_PZ(inst, theta=0.5))
            a = rng.random(inst.n)
            b = a + rng.random(inst.n)
            reports.append(verify_contraction(inst.vectors, a, b, norm))
        for i in range(product_laws):
            rng = substream(raw["seed"], 11, i)
            n = int(rng.integers(2, 4))  # 2 or 3 components
            comps = tuple(_random_finite_component(rng, d, pairs=2)
                          for _ in range(n))
            sums = verify_sum_inequalities(ProductLaw(comps), norm,
                                           {"s": 0.5, "t": 0.5, "u": 0.5})
            reports.extend(sums.values())
        verdicts = [r.verdict for r in reports]
        rows = [(r.name, r.lhs, r.rhs, r.slack, r.method) for r in reports]
        report = {"kind": "inequality-suite",
                  "reports": [r.to_json() for r in reports]}
        tables = {"slack.csv": (("name", "lhs", "rhs", "slack", "method"), rows)}
        return report, tables, verdicts
    return run


# ---------------------------------------------------------------------------
# the registry: one entry per experiment kind, in catalog order


@dataclass(frozen=True)
class ExperimentKind:
    """Schema, prepare step and catalog example of one experiment kind."""

    name: str
    required: tuple  # keys besides kind and seed
    optional: tuple  # keys besides comment
    prepare: Callable  # config -> run(threads) -> (report, tables, verdicts)
    example: dict  # catalog entry: name, claim, description, config


_RADEMACHER = {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]}
_HALF_RADEMACHER = {"family": "finite", "atoms": [[[0.5], 0.5], [[-0.5], 0.5]]}

EXPERIMENTS = {kind.name: kind for kind in (
    ExperimentKind(
        "tail", ("source", "norms", "thresholds", "estimator"), (),
        _prepare_tail,
        {"name": "tail-grid",
         "claim": "tail probabilities of a sum under a norm family",
         "description": "P(||X|| > t) over a threshold grid and a norm family; "
                        "exact where possible, else Monte Carlo with exact "
                        "binomial intervals.",
         "config": {"kind": "tail", "seed": 1, "source": _RADEMACHER,
                    "norms": {"list": [{"variant": "lp", "dimension": 1, "p": 2}]},
                    "thresholds": [0.5, 1.0, 1.5],
                    "estimator": {"kind": "exact"}}}),
    ExperimentKind(
        "domination", ("x", "y", "kappa", "lambda", "norms", "estimator"), (),
        _prepare_domination,
        {"name": "domination-check",
         "claim": "family-relative (kappa, lambda) tail domination",
         "description": "P(||X|| > 1) <= kappa P(lambda ||Y|| > 1) for every "
                        "norm in an adversarial family, with three-valued "
                        "verdicts.",
         "config": {"kind": "domination", "seed": 1, "x": _HALF_RADEMACHER,
                    "y": _RADEMACHER, "kappa": 1.0, "lambda": 1.0,
                    "norms": {"random": {"seed": 7, "dimension": 1, "size": 4}},
                    "estimator": {"kind": "exact"}}}),
    ExperimentKind(
        "tensorize", ("pairs", "kappa", "lambda", "alpha", "norms", "estimator"),
        (), _prepare_tensorize,
        {"name": "sum-domination-tensorisation",
         "claim": "domination tensorisation theorem for sums",
         "description": "Per-summand (kappa, lambda)-dominated pairs imply the "
                        "sums are (16/alpha ceil(kappa), (1+alpha) ceil(kappa) "
                        "lambda)-dominated; rechecks the premises, then tests "
                        "the conclusion on the sums.",
         "config": {"kind": "tensorize", "seed": 1,
                    "pairs": [{"x": _HALF_RADEMACHER, "y": _RADEMACHER},
                              {"x": _HALF_RADEMACHER, "y": _RADEMACHER}],
                    "kappa": 1.0, "lambda": 1.0, "alpha": 1.0,
                    "norms": {"random": {"seed": 7, "dimension": 1, "size": 4}},
                    "estimator": {"kind": "exact"}}}),
    ExperimentKind(
        "wb", ("source", "C", "delta", "theta", "norms", "lambda_grid", "estimator"),
        (), _prepare_wb,
        {"name": "weak-concentration-check",
         "claim": "polynomial tail-decay property of a single vector",
         "description": "P(||X|| > lam) <= C lam^-delta P(||X|| > 1) over a "
                        "lambda grid and norm family, gated on "
                        "P(||X|| > 1) < theta.",
         "config": {"kind": "wb", "seed": 1,
                    "source": {"family": "pareto_tail", "exponent": 2.0},
                    "C": 1.0, "delta": 2.0, "theta": 0.5,
                    "norms": {"list": [{"variant": "scaled", "factor": 0.25,
                                        "inner": {"variant": "lp", "dimension": 1,
                                                  "p": 2}}]},
                    "lambda_grid": [1, 3, 9, 27, 81],
                    "estimator": {"kind": "exact"}}}),
    ExperimentKind(
        "wb-sum", ("C", "delta", "theta", "norms", "lambda_grid", "estimator"),
        ("components", "iid", "n"),
        _prepare_wb_sum,
        {"name": "weak-concentration-tensorisation",
         "claim": "weak-concentration tensorisation theorem for sums",
         "description": "Components with the (C, delta, theta) tail-decay "
                        "property give a sum with constants C' = 12 9^delta C "
                        "and theta' = min(theta/2, 1/(96 C 9^delta)); rechecks "
                        "components, then tests the sum.",
         "config": {"kind": "wb-sum", "seed": 1,
                    "iid": {"family": "pareto_tail", "exponent": 2.0}, "n": 2,
                    "C": 1.0, "delta": 2.0, "theta": 0.5,
                    "norms": {"list": [{"variant": "scaled", "factor": 0.005,
                                        "inner": {"variant": "lp", "dimension": 1,
                                                  "p": 2}}]},
                    "lambda_grid": [1, 3, 9],
                    "estimator": {"kind": "mc", "budget": 400000}}}),
    ExperimentKind(
        "majorize", ("a", "b"), (), _prepare_majorize,
        {"name": "majorisation-mixture",
         "claim": "constructive permutation mixture of majorised weights",
         "description": "Checks a < b via partial sums and, when it holds, "
                        "writes a as an explicit convex combination of at most "
                        "n permutations of b, by a walk on the permutohedron of b.",
         "config": {"kind": "majorize", "seed": 1,
                    "a": [0.5, 0.5], "b": [0.9, 0.1]}}),
    ExperimentKind(
        "schur", ("a", "b", "component", "norm"), (), _prepare_schur,
        {"name": "schur-convexity",
         "claim": "monotonicity of shifted sum moments under majorisation",
         "description": "E(||sum a_i X_i|| - 1)_+ <= E(||sum b_i X_i|| - 1)_+ "
                        "for a < b and iid finite-support X_i, exact.",
         "config": {"kind": "schur", "seed": 1,
                    "a": [0.5, 0.5], "b": [0.9, 0.1],
                    "component": _RADEMACHER,
                    "norm": {"variant": "lp", "dimension": 1, "p": 2}}}),
    ExperimentKind(
        "counterexample", ("delta", "n_grid", "kappa", "lambda"), ("budget",),
        _prepare_counterexample,
        {"name": "heavy-tail-counterexample",
         "claim": "failure of weighted-sum domination below tail exponent one",
         "description": "For stability index delta < 1, uniform weights 1/n "
                        "against weight 1 defeat any fixed (kappa, lambda): "
                        "reports the smallest witness n in the grid.",
         "config": {"kind": "counterexample", "seed": 1, "delta": 0.5,
                    "n_grid": [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536],
                    "kappa": 100.0, "lambda": 1.0, "budget": 100000}}),
    ExperimentKind(
        "inequality-suite", ("instances", "max_n", "dimension", "product_laws"),
        (), _prepare_inequality_suite,
        {"name": "classical-inequalities",
         "claim": "classical sign and sum inequalities on random instances",
         "description": "Exact verification of the Kahane multiplicative tail "
                        "bound, the L1-L2 moment comparison, the Paley-Zygmund "
                        "lower bound, the contraction principle, and the "
                        "reflection/maximal/summand-tail inequalities for sums.",
         "config": {"kind": "inequality-suite", "seed": 1, "instances": 5,
                    "max_n": 8, "dimension": 2, "product_laws": 2}}),
)}
_CONFIG_KEYS = {name: (("seed", *kind.required), ("comment", *kind.optional))
                for name, kind in EXPERIMENTS.items()}


def validate_config(raw: dict) -> Callable:
    """Validate a parsed config object and build everything its run uses.

    Returns the kind's run: run(threads) -> (report, tables, verdicts).
    """
    kind = _spec_tag(raw, "kind", _CONFIG_KEYS, "config")
    _check_count(raw["seed"], "config: seed", 0)  # no entropy defaults
    return EXPERIMENTS[kind].prepare(raw)


def load_config(path: str):
    """(file bytes, config object, run) of a config file."""
    with open(path, "rb") as fh:
        raw_bytes = fh.read()
    try:
        raw = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, too many digits
        raise ParameterError(f"config {path}: not a JSON text: {exc}") from None
    return raw_bytes, raw, validate_config(raw)
