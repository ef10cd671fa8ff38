"""Experiment configuration: a strict JSON schema and the experiment registry.

Configs are JSON objects.  Unknown keys are rejected everywhere (a typo
must never silently change a constant), every experiment names an explicit
seed (no entropy defaults), and all constants are validated through the
same constructors the library uses.  Each experiment kind has one entry in
EXPERIMENTS holding its keys, its resolver, its runner and its catalog
example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (FiniteSupportDist, ProductLaw, bernoulli_thinned,
                            gaussian, pareto_tail, sample_sum_chunk,
                            scaled_source, sum_of, symmetric_stable)
from .dominance import (DominationQuery, check_domination, exact_capable,
                        tail_table, tensorisation_experiment)
from .errors import ParameterError
from .geometry import euclidean, norm_from_spec, norm_to_spec, random_norm_family
from .inequalities import (SignInstance, verify_L1L2, verify_PZ, verify_contraction,
                           verify_kahane, verify_sum_inequalities)
from .majorisation import (_majorisation_violation, counterexample_experiment,
                           decompose, schur_convexity_check)
from .rng import CHUNK, substream
from .stats import DEFAULT_CONFIDENCE, Estimator
from .weakborell import WBParams, check_wb, wb_sum_experiment, wb_tensorize_constants


def _check_keys(obj: dict, allowed, context: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParameterError(f"{context}: unknown key(s) {sorted(unknown)}")


def _require(obj: dict, keys, context: str):
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParameterError(f"{context}: missing required key(s) {missing}")


# ---------------------------------------------------------------------------
# source specs


def source_from_spec(spec: dict, context: str = "source"):
    if not isinstance(spec, dict):
        raise ParameterError(f"{context}: expected an object")
    _require(spec, ["family"], context)
    fam = spec["family"]
    if fam == "finite":
        _check_keys(spec, {"family", "atoms"}, context)
        _require(spec, ["atoms"], context)
        atoms = tuple((tuple(float(x) for x in vec), float(p))
                      for vec, p in spec["atoms"])
        return FiniteSupportDist(dimension=len(atoms[0][0]), atoms=atoms)
    if fam == "gaussian":
        _check_keys(spec, {"family", "covariance"}, context)
        _require(spec, ["covariance"], context)
        return gaussian(spec["covariance"])
    if fam == "symmetric_stable":
        _check_keys(spec, {"family", "index", "scale"}, context)
        _require(spec, ["index"], context)
        return symmetric_stable(float(spec["index"]), float(spec.get("scale", 1.0)))
    if fam == "pareto_tail":
        _check_keys(spec, {"family", "exponent"}, context)
        _require(spec, ["exponent"], context)
        return pareto_tail(float(spec["exponent"]))
    if fam == "bernoulli_thinned":
        _check_keys(spec, {"family", "keep", "inner"}, context)
        _require(spec, ["keep", "inner"], context)
        return bernoulli_thinned(source_from_spec(spec["inner"], context + ".inner"),
                                 float(spec["keep"]))
    if fam == "scaled":
        _check_keys(spec, {"family", "factor", "inner"}, context)
        _require(spec, ["factor", "inner"], context)
        return scaled_source(source_from_spec(spec["inner"], context + ".inner"),
                             float(spec["factor"]))
    if fam == "sum_of":
        _check_keys(spec, {"family", "parts"}, context)
        _require(spec, ["parts"], context)
        return sum_of([source_from_spec(p, f"{context}.parts[{i}]")
                       for i, p in enumerate(spec["parts"])])
    raise ParameterError(f"{context}: unknown source family {fam!r}")


# ---------------------------------------------------------------------------
# norm family specs


def norms_from_spec(spec, context: str = "norms"):
    if isinstance(spec, dict) and "random" in spec:
        _check_keys(spec, {"random"}, context)
        rnd = spec["random"]
        _check_keys(rnd, {"seed", "dimension", "size", "mix"}, context + ".random")
        _require(rnd, ["seed", "dimension", "size"], context + ".random")
        return random_norm_family(int(rnd["seed"]), int(rnd["dimension"]),
                                  int(rnd["size"]), rnd.get("mix", "default"))
    if isinstance(spec, dict) and "list" in spec:
        _check_keys(spec, {"list"}, context)
        if not spec["list"]:
            raise ParameterError(f"{context}: the norm list must be nonempty")
        return [norm_from_spec(s) for s in spec["list"]]
    raise ParameterError(f"{context}: expected an object with 'random' or 'list'")


def estimator_from_spec(spec, context: str = "estimator") -> Estimator:
    if not isinstance(spec, dict):
        raise ParameterError(f"{context}: expected an object")
    _check_keys(spec, {"kind", "budget", "confidence"}, context)
    _require(spec, ["kind"], context)
    return Estimator(kind=spec["kind"], budget=spec.get("budget", 10**6),
                     confidence=float(spec.get("confidence", DEFAULT_CONFIDENCE)))


# ---------------------------------------------------------------------------
# experiment kinds: each resolver parses a validated raw config into the
# objects its runner consumes (under private keys); each runner returns
# (report dict, csv tables, verdict list)


def _resolve_tail(raw):
    resolved = {"_source": source_from_spec(raw["source"]),
                "_norms": norms_from_spec(raw["norms"]),
                "_estimator": estimator_from_spec(raw["estimator"])}
    if not raw["thresholds"]:
        raise ParameterError("config[tail]: thresholds must be nonempty")
    return resolved


def _sample_rows(law, budget, seed):
    """The rows of sample_sum(law, budget, seed, stream=(0,)), one chunk at a time."""
    for j, lo in enumerate(range(0, budget, CHUNK)):
        columns = sample_sum_chunk(law, j, min(CHUNK, budget - lo), seed, (0,)).T
        yield from zip(*columns.tolist())


def _run_tail(cfg, threads):
    law = cfg["_source"]
    norms = cfg["_norms"]
    est = cfg["_estimator"]
    seed = cfg["seed"]
    thresholds = [float(t) for t in cfg["thresholds"]]
    table = tail_table(law, norms, thresholds, est, seed, (0,), threads)
    cells = []
    csv_rows = []
    for i, (norm, row) in enumerate(zip(norms, table)):
        for t, p in zip(thresholds, row):
            cells.append({"norm_index": i, "norm": norm_to_spec(norm),
                          "threshold": t, "tail": p.to_json()})
            csv_rows.append((i, t, p.value, p.lo, p.hi))
    report = {"kind": "tail", "cells": cells}
    tables = {"tails.csv": (("norm_index", "threshold", "value", "lo", "hi"),
                            csv_rows)}
    if cfg.get("dump_samples") and est.kind == "mc" and not exact_capable(law):
        report["samples_file"] = "samples.csv"
        tables["samples.csv"] = (None, _sample_rows(law, est.budget, seed))
    return report, tables, []


def _resolve_domination(raw):
    return {"_x": source_from_spec(raw["x"], "x"),
            "_y": source_from_spec(raw["y"], "y"),
            "_norms": norms_from_spec(raw["norms"]),
            "_estimator": estimator_from_spec(raw["estimator"])}


def _run_domination(cfg, threads):
    query = DominationQuery(x=cfg["_x"], y=cfg["_y"], kappa=float(cfg["kappa"]),
                            lam=float(cfg["lambda"]), norms=tuple(cfg["_norms"]),
                            estimator=cfg["_estimator"])
    rep = check_domination(query, seed=cfg["seed"], threads=threads)
    tables = {"scatter.csv": (("norm_index", "p_x", "kappa_p_y"),
                              rep.scatter_rows())}
    return dict(rep.to_json(), kind="domination"), tables, rep.verdicts()


def _resolve_tensorize(raw):
    pairs = []
    for i, pair in enumerate(raw["pairs"]):
        _check_keys(pair, {"x", "y"}, f"pairs[{i}]")
        _require(pair, ["x", "y"], f"pairs[{i}]")
        pairs.append((source_from_spec(pair["x"], f"pairs[{i}].x"),
                      source_from_spec(pair["y"], f"pairs[{i}].y")))
    resolved = {"_pairs": pairs, "_norms": norms_from_spec(raw["norms"]),
                "_estimator": estimator_from_spec(raw["estimator"])}
    if not (0.0 < float(raw["alpha"]) <= 1.0):
        raise ParameterError("config[tensorize]: alpha must lie in (0, 1]")
    return resolved


def _run_tensorize(cfg, threads):
    rep = tensorisation_experiment(
        cfg["_pairs"], float(cfg["kappa"]), float(cfg["lambda"]),
        float(cfg["alpha"]), cfg["_norms"], cfg["_estimator"],
        seed=cfg["seed"], recheck=bool(cfg.get("recheck", True)), threads=threads)
    tables = {"scatter.csv": (("norm_index", "p_x", "kappa_p_y"),
                              rep.scatter_rows())}
    return dict(rep.to_json(), kind="tensorize"), tables, rep.verdicts()


def _wb_params(raw):
    return WBParams(C=float(raw["C"]), delta=float(raw["delta"]),
                    theta=float(raw["theta"]))


def _resolve_wb(raw):
    return {"_source": source_from_spec(raw["source"]), "_params": _wb_params(raw),
            "_norms": norms_from_spec(raw["norms"]),
            "_estimator": estimator_from_spec(raw["estimator"])}


def _run_wb(cfg, threads):
    rep = check_wb(cfg["_source"], cfg["_params"], cfg["_norms"],
                   cfg["lambda_grid"], cfg["_estimator"], seed=cfg["seed"],
                   threads=threads)
    tables = {"loglog.csv": (("lambda", "tail_ratio", "bound"), rep.loglog_rows())}
    return dict(rep.to_json(), kind="wb"), tables, rep.verdicts()


def _resolve_wb_sum(raw):
    if "components" in raw:
        comps = [source_from_spec(c, f"components[{i}]")
                 for i, c in enumerate(raw["components"])]
    elif "iid" in raw and "n" in raw:
        comps = [source_from_spec(raw["iid"], "iid")] * int(raw["n"])
    else:
        raise ParameterError("config[wb-sum]: need components or iid + n")
    resolved = {"_components": comps, "_params": _wb_params(raw),
                "_norms": norms_from_spec(raw["norms"]),
                "_estimator": estimator_from_spec(raw["estimator"])}
    if "component_estimator" in raw:
        resolved["_component_estimator"] = estimator_from_spec(
            raw["component_estimator"], "component_estimator")
    return resolved


def _run_wb_sum(cfg, threads):
    rep = wb_sum_experiment(
        cfg["_components"], cfg["_params"], cfg["_norms"], cfg["lambda_grid"],
        cfg["_estimator"], seed=cfg["seed"],
        recheck=bool(cfg.get("recheck", True)),
        component_estimator=cfg.get("_component_estimator"), threads=threads)
    tens = wb_tensorize_constants(cfg["_params"])
    report = dict(rep.to_json(), kind="wb-sum",
                  tensorized={"C": tens.C, "delta": tens.delta,
                              "theta": tens.theta})
    tables = {"loglog.csv": (("lambda", "tail_ratio", "bound"), rep.loglog_rows())}
    return report, tables, rep.verdicts()


def _resolve_majorize(raw):
    if len(raw["a"]) != len(raw["b"]):
        raise ParameterError("config[majorize]: a and b must have equal length")
    return {}


def _run_majorize(cfg, threads):
    a, b = cfg["a"], cfg["b"]
    bad = _majorisation_violation(a, b)
    if bad is not None:
        report = {"kind": "majorize", "majorised": False,
                  "violating_partial_sum": bad}
        return report, {}, ["violated"]
    mix = decompose(a, b)
    err = float(np.max(np.abs(mix.reconstruct() - np.asarray(a, dtype=float))))
    report = {"kind": "majorize", "majorised": True, "mixture": mix.to_json(),
              "terms": len(mix.terms), "reconstruction_error": err}
    return report, {}, ["holds"]


def _resolve_schur(raw):
    comp = source_from_spec(raw["component"], "component")
    if not isinstance(comp, FiniteSupportDist):
        raise ParameterError("config[schur]: component must be a finite source")
    return {"_component": comp, "_norm": norm_from_spec(raw["norm"])}


def _run_schur(cfg, threads):
    rep = schur_convexity_check(cfg["a"], cfg["b"], cfg["_component"],
                                cfg["_norm"])
    return {"kind": "schur", "report": rep.to_json()}, {}, [rep.verdict]


def _resolve_counterexample(raw):
    if not (0.0 < float(raw["delta"]) < 1.0):
        raise ParameterError("config[counterexample]: delta must lie in (0, 1)")
    if not raw["n_grid"]:
        raise ParameterError("config[counterexample]: n_grid must be nonempty")
    return {"_estimator": Estimator("mc", budget=raw.get("budget", 10**6))}


def _run_counterexample(cfg, threads):
    table = counterexample_experiment(
        float(cfg["delta"]), cfg["n_grid"], float(cfg["kappa"]),
        float(cfg["lambda"]), budget=cfg["_estimator"].budget,
        seed=cfg["seed"])
    report = dict(table.to_json(), kind="counterexample")
    tables = {"table.csv": (("n", "lhs", "rhs", "ratio"), table.csv_rows())}
    # Finding the witness is the expected outcome; it still exits as a
    # violation so pipelines can tell "domination failed" from "held".
    verdicts = ["violated"] if table.witness is not None else ["inconclusive"]
    return report, tables, verdicts


def _resolve_inequality_suite(raw):
    if int(raw["instances"]) < 1 or int(raw["product_laws"]) < 0:
        raise ParameterError("config[inequality-suite]: bad counts")
    return {}


def _random_sign_instance(rng, max_n, d):
    n = int(rng.integers(2, max_n + 1))
    vectors = rng.standard_normal((n, d)) / np.sqrt(n)
    return SignInstance(vectors, euclidean(d))


def _random_finite_component(rng, d, pairs):
    vecs = rng.standard_normal((pairs, d))
    w = rng.random(pairs) + 0.1
    w = 0.9 * w / w.sum()
    return FiniteSupportDist.symmetric_pairs(vecs, w, zero_prob=0.1)


def _run_inequality_suite(cfg, threads):
    seed = cfg["seed"]
    max_n = int(cfg["max_n"])
    d = int(cfg["dimension"])
    reports = []
    for i in range(int(cfg["instances"])):
        rng = substream(seed, 10, i)
        inst = _random_sign_instance(rng, max_n, d)
        reports.append(verify_kahane(inst, s=0.5, t=0.5))
        reports.append(verify_L1L2(inst))
        reports.append(verify_PZ(inst, theta=0.5))
        a = rng.random(inst.n)
        b = a + rng.random(inst.n)
        reports.append(verify_contraction(inst.vectors, a, b, inst.norm))
    max_comp = int(cfg.get("max_components", 3))
    for i in range(int(cfg["product_laws"])):
        rng = substream(seed, 11, i)
        n = int(rng.integers(2, max_comp + 1))
        comps = tuple(_random_finite_component(rng, d, pairs=2)
                      for _ in range(n))
        law = ProductLaw(comps)
        sums = verify_sum_inequalities(law, euclidean(d),
                                       {"s": 0.5, "t": 0.5, "u": 0.5})
        reports.extend(sums.values())
    verdicts = [r.verdict for r in reports if r.verdict is not None]
    rows = [(r.name, r.lhs, r.rhs, r.slack, r.method) for r in reports]
    report = {"kind": "inequality-suite",
              "reports": [r.to_json() for r in reports]}
    tables = {"slack.csv": (("name", "lhs", "rhs", "slack", "method"), rows)}
    return report, tables, verdicts


# ---------------------------------------------------------------------------
# the registry: one entry per experiment kind, in catalog order


@dataclass(frozen=True)
class ExperimentKind:
    """Schema, resolver, runner and catalog example of one experiment kind."""

    name: str
    required: tuple  # keys besides kind and seed
    optional: tuple  # keys besides comment
    resolve: Callable  # raw config -> parsed objects under private keys
    run: Callable  # (resolved config, threads) -> (report, tables, verdicts)
    example: dict  # catalog entry: name, claim, description, config


_RADEMACHER = {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]}
_HALF_RADEMACHER = {"family": "finite", "atoms": [[[0.5], 0.5], [[-0.5], 0.5]]}

EXPERIMENTS = {kind.name: kind for kind in (
    ExperimentKind(
        "tail", ("source", "norms", "thresholds", "estimator"), ("dump_samples",),
        _resolve_tail, _run_tail,
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
        _resolve_domination, _run_domination,
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
        ("recheck",), _resolve_tensorize, _run_tensorize,
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
        (), _resolve_wb, _run_wb,
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
        ("components", "iid", "n", "component_estimator", "recheck"),
        _resolve_wb_sum, _run_wb_sum,
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
        "majorize", ("a", "b"), (), _resolve_majorize, _run_majorize,
        {"name": "majorisation-mixture",
         "claim": "constructive Birkhoff decomposition of majorised weights",
         "description": "Checks a < b via partial sums and, when it holds, "
                        "writes a as an explicit convex combination of at most "
                        "(n-1)^2 + 1 permutations of b.",
         "config": {"kind": "majorize", "seed": 1,
                    "a": [0.5, 0.5], "b": [0.9, 0.1]}}),
    ExperimentKind(
        "schur", ("a", "b", "component", "norm"), (), _resolve_schur, _run_schur,
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
        _resolve_counterexample, _run_counterexample,
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
        ("max_components",), _resolve_inequality_suite, _run_inequality_suite,
        {"name": "classical-inequalities",
         "claim": "classical sign and sum inequalities on random instances",
         "description": "Exact verification of the Kahane multiplicative tail "
                        "bound, the L1-L2 moment comparison, the Paley-Zygmund "
                        "lower bound, the contraction principle, and the "
                        "reflection/maximal/summand-tail inequalities for sums.",
         "config": {"kind": "inequality-suite", "seed": 1, "instances": 5,
                    "max_n": 8, "dimension": 2, "product_laws": 2}}),
)}


def validate_config(raw: dict) -> dict:
    """Validate a parsed config object; returns a resolved config dict.

    The resolved dict keeps the raw values plus parsed objects under
    private keys; it is what the kind's runner consumes.
    """
    if not isinstance(raw, dict):
        raise ParameterError("config: top level must be a JSON object")
    _require(raw, ["kind", "seed"], "config")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ParameterError(f"config: unknown experiment kind {kind!r}")
    if isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int):
        raise ParameterError("config: seed must be an integer (no entropy defaults)")
    entry = EXPERIMENTS[kind]
    _check_keys(raw, {"kind", "seed", "comment", *entry.required, *entry.optional},
                "config")
    _require(raw, entry.required, f"config[{kind}]")
    resolved = dict(raw)
    resolved.update(entry.resolve(raw))
    return resolved


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config: invalid JSON at line {exc.lineno}: {exc.msg}")
    return validate_config(raw)
