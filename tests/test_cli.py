"""Config schema strictness, CLI exit codes, and report artifacts."""

import csv
import json
import math
import os
import re

import numpy as np

import pytest

import domlab.dominance as dominance
from domlab import (CapacityError, Estimator, ParameterError, PreconditionError,
                    ProductLaw, norm_from_spec, pareto_tail, scaled_source, symmetric_stable,
                    tail_table)
from domlab.cli import CATALOG, _write_csv, build_parser, main
from domlab.config import EXPERIMENTS, source_from_spec, validate_config
from domlab.rng import CHUNK, map_chunks

TAIL_CFG = {
    "kind": "tail", "seed": 1,
    "source": {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]},
    "norms": {"list": [{"variant": "lp", "dimension": 1, "p": 2}]},
    "thresholds": [0.5, 1.5],
    "estimator": {"kind": "exact"},
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config validation


def test_unknown_top_level_key_rejected():
    cfg = dict(TAIL_CFG, extra=1)
    with pytest.raises(ParameterError, match="unknown key"):
        validate_config(cfg)
    # Keys that once chose a second code path are gone, not silently ignored.
    for kind, key, value in (("tensorize", "recheck", False), ("wb-sum", "recheck", False),
                             ("wb-sum", "component_estimator", {"kind": "exact"}),
                             ("inequality-suite", "max_components", 3)):
        cfg = dict(EXPERIMENTS[kind].example["config"], **{key: value})
        with pytest.raises(ParameterError, match="unknown key"):
            validate_config(cfg)


def test_unknown_nested_key_rejected():
    cfg = json.loads(json.dumps(TAIL_CFG))
    cfg["source"]["typo"] = 1
    with pytest.raises(ParameterError, match="unknown key"):
        validate_config(cfg)
    cfg = json.loads(json.dumps(TAIL_CFG))
    cfg["estimator"]["budgt"] = 100
    with pytest.raises(ParameterError, match="unknown key"):
        validate_config(cfg)
    cfg = json.loads(json.dumps(EXPERIMENTS["domination"].example["config"]))
    cfg["norms"]["random"]["mix"] = "default"
    with pytest.raises(ParameterError, match="unknown key"):
        validate_config(cfg)


def test_seed_is_required_and_integer():
    cfg = {k: v for k, v in TAIL_CFG.items() if k != "seed"}
    with pytest.raises(ParameterError, match="seed"):
        validate_config(cfg)
    with pytest.raises(ParameterError, match="integer"):
        validate_config(dict(TAIL_CFG, seed=1.5))
    with pytest.raises(ParameterError, match="integer"):
        validate_config(dict(TAIL_CFG, seed=True))
    for budget in (True, 2.9):
        for kind in ("mc", "exact"):  # an exact estimator's budget once went unread
            with pytest.raises(ParameterError, match="budget must be an integer"):
                validate_config(dict(TAIL_CFG, estimator={"kind": kind, "budget": budget}))
        with pytest.raises(ParameterError, match="budget must be an integer"):
            validate_config({"kind": "counterexample", "seed": 1, "delta": 0.7,
                             "n_grid": [2], "kappa": 2.0, "lambda": 1.0,
                             "budget": budget})


def test_real_reader_takes_real_scalars_only():
    from domlab.errors import _check_list, _check_real

    for value in (2, 2.0, np.float64(2.0), np.int64(2), np.float32(2.0)):
        got = _check_real(value, "x", "(0, 2]")
        assert got == 2.0 and type(got) is float
    for value in (True, np.bool_(True), "2", None, [2.0], {}, math.nan, -math.inf,
                  10**400, 0, 2.5):
        with pytest.raises(ParameterError, match=re.escape("x must be a finite number in (0, 2]")):
            _check_real(value, "x", "(0, 2]")
    assert _check_list((1, 2), "xs") == [1, 2]
    for value in ("ab", {"a": 1}, 3, None, [], np.array([]), np.array(1.0)):
        with pytest.raises(ParameterError, match="xs must be a nonempty list"):
            _check_list(value, "xs")


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError, match="kind"):
        validate_config(dict(TAIL_CFG, kind="mystery"))


def test_bad_constants_rejected_through_constructors():
    cfg = {"kind": "wb", "seed": 1,
           "source": {"family": "pareto_tail", "exponent": 2.0},
           "C": 0.5, "delta": 2.0, "theta": 0.5,
           "norms": {"list": [{"variant": "lp", "dimension": 1, "p": 2}]},
           "lambda_grid": [1], "estimator": {"kind": "exact"}}
    with pytest.raises(ParameterError, match="C"):
        validate_config(cfg)
    # A NaN constant (JSON NaN) fails every range check instead of passing it.
    for key, message in (("C", "C must be a finite number in [1, inf)"),
                         ("delta", "delta must be a finite number in (0, inf)"),
                         ("lambda_grid", "lambda_grid[0] must be a finite number in [1, inf)")):
        value = [float("nan")] if key == "lambda_grid" else float("nan")
        with pytest.raises(ParameterError, match=re.escape(message)):
            validate_config(dict(cfg, **{"C": 1.0, key: value}))
    for key in ("kappa", "lambda"):
        with pytest.raises(ParameterError,
                           match=re.escape(f"{key} must be a finite number in [1, inf)")):
            validate_config(dict(EXPERIMENTS["domination"].example["config"],
                                 **{key: float("nan")}))


def test_catalog_configs_all_validate(tmp_path):
    assert len(CATALOG) >= 9
    kinds = [entry["kind"] for entry in CATALOG]
    assert len(set(kinds)) == 9
    assert kinds == list(EXPERIMENTS)
    for entry in CATALOG:
        validate_config(entry["config"])
        assert entry["claim"] and entry["description"]
        path = _write(tmp_path, entry["config"], entry["name"] + ".json")
        out = str(tmp_path / entry["name"])
        assert main(["run", path, "--out", out]) != 1, entry["name"]


# ---------------------------------------------------------------------------
# round trips: validate, then run through the CLI


def _round_trip(tmp_path, cfg, name):
    """(exit code, report.json bytes) of one validated config."""
    path = _write(tmp_path, cfg, name + ".json")
    assert main(["validate", path]) == 0
    code = main(["run", path, "--out", str(tmp_path / name)])
    return code, (tmp_path / name / "report.json").read_bytes()


@pytest.mark.parametrize("spec, source", [
    ({"family": "symmetric_stable", "index": 0.7, "scale": 2.0},
     symmetric_stable(0.7, 2.0)),
    ({"family": "scaled", "factor": -2.0,
      "inner": {"family": "pareto_tail", "exponent": 3.0}},
     scaled_source(pareto_tail(3.0), -2.0)),
    ({"family": "sum_of", "parts": [{"family": "pareto_tail", "exponent": 2.0},
                                    {"family": "symmetric_stable", "index": 1.5}]},
     ProductLaw((pareto_tail(2.0), symmetric_stable(1.5)))),
], ids=["symmetric_stable", "scaled", "sum_of"])
def test_source_spec_round_trip(tmp_path, spec, source):
    est = {"kind": "mc", "budget": 5000}
    cfg = dict(TAIL_CFG, source=spec, estimator=est)
    assert source_from_spec(spec) == source
    code, raw = _round_trip(tmp_path, cfg, "tail")
    assert code == 0
    (row,) = tail_table(source, [norm_from_spec(TAIL_CFG["norms"]["list"][0])],
                        TAIL_CFG["thresholds"], Estimator(**est), seed=1, stream=(0,))
    assert [c["tail"] for c in json.loads(raw)["cells"]] == [p.to_json() for p in row]


def test_wb_sum_components_form_matches_iid_form(tmp_path):
    iid = dict(EXPERIMENTS["wb-sum"].example["config"],
               estimator={"kind": "mc", "budget": 20000})
    components = {k: v for k, v in iid.items() if k not in ("iid", "n")}
    components["components"] = [iid["iid"]] * iid["n"]
    code, raw = _round_trip(tmp_path, components, "components")
    assert code == 0
    assert (code, raw) == _round_trip(tmp_path, iid, "iid")


def _example(kind, **edits):
    return dict(json.loads(json.dumps(EXPERIMENTS[kind].example["config"])), **edits)


_L2 = {"variant": "lp", "dimension": 2, "p": 2}
_STABLE = {"family": "symmetric_stable", "index": 1.0}
_RADEMACHER = {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]}


@pytest.mark.parametrize("cfg, messages", [
    (_example("tensorize", pairs=[]), ["pairs must be a nonempty list"]),
    (_example("tensorize", kappa=0.5), ["kappa must be a finite number in [1, inf)"]),
    (_example("wb-sum", n=0), ["at least one component"]),
    (_example("wb-sum", components=[{"family": "pareto_tail", "exponent": 3.0}]),
     ["components", "iid + n", "not both"]),
    (_example("domination", kappa=0.5), ["kappa must be a finite number in [1, inf)"]),
    (_example("domination", **{"lambda": 0.5}), ["lambda must be a finite number in [1, inf)"]),
    (_example("domination", y={"family": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]]}),
     ["laws must share dimension"]),
    (_example("domination", norms={"random": {"seed": 7, "dimension": 2, "size": 4}}),
     ["norm dimension 2 != law dimension 1"]),
    (_example("wb", lambda_grid=[]), ["lambda_grid must be a nonempty list"]),
    (_example("wb", lambda_grid=[0.5]), ["lambda_grid[0] must be a finite number in [1, inf)"]),
    (_example("wb", norms={"list": [_L2]}), ["norm dimension 2 != law dimension 1"]),
    (_example("tail", thresholds=["x"]), ["thresholds[0] must be a finite number, got 'x'"]),
    (_example("tail", norms={"list": [_L2]}), ["norm dimension 2 != law dimension 1"]),
    (_example("counterexample", kappa=0.5), ["kappa must be a finite number in [1, inf)"]),
    (_example("counterexample", n_grid=[0]), ["n_grid[0] must be an integer >= 1"]),
    (_example("inequality-suite", max_n=1), ["max_n must be an integer >= 2"]),
    (_example("inequality-suite", dimension=0), ["dimension must be an integer >= 1"]),
    (_example("schur", a=[1.0]), ["equal-length"]),
    (_example("schur", norm=_L2), ["norm dimension 2 != law dimension 1"]),
    (_example("wb", source={"family": "pareto_tail", "exponent": math.nan}),
     ["tail exponent must be a finite number in (0, inf)"]),
    (_example("tail", thresholds=[0.5, math.nan]), ["thresholds[1] must be a finite number"]),
    (_example("tail", source={"family": "scaled", "factor": math.inf,
                              "inner": {"family": "pareto_tail", "exponent": 2.0}}),
     ["scale factor must be a finite number, got inf"]),
    (_example("tail", source={"family": "symmetric_stable", "index": 1.0,
                              "scale": math.nan},
              estimator={"kind": "mc", "budget": 1000}),
     ["scale must be a finite number in (0, inf)"]),
    (_example("wb-sum", n=2.5), ["config[wb-sum]: n must be an integer"]),
    (_example("inequality-suite", instances=1.9),
     ["config[inequality-suite]: instances must be an integer"]),
    (_example("domination", norms={"random": {"seed": 7.9, "dimension": 1, "size": 4}}),
     ["norms.random: seed must be an integer"]),
    (_example("tail", source=_STABLE), ["no exact tail path"]),
    (_example("domination", y=_STABLE), ["no exact tail path"]),
    (_example("tensorize", pairs=[{"x": _STABLE, "y": _STABLE}]), ["no exact tail path"]),
    (_example("wb", source=_STABLE), ["no exact tail path"]),
    (_example("wb-sum", iid=_STABLE, estimator={"kind": "exact"}), ["no exact tail path"]),
    (_example("tail", source={"family": "gaussian", "covariance": [[math.inf]]}),
     ["covariance[0][0] must be a finite number"]),
    (_example("tail", source={"family": "finite",
                              "atoms": [[[math.inf], 0.5], [[-math.inf], 0.5]]}),
     ["atom vectors[0][0] must be a finite number"]),
    (_example("tail", source={"family": "finite", "atoms": []}),
     ["source.atoms must be a nonempty list"]),
    (_example("wb-sum", seed=-1), ["config: seed must be an integer >= 0"]),
    (_example("tensorize", kappa=math.inf), ["kappa must be a finite number in [1, inf), got inf"]),
    (_example("wb", C=math.inf), ["C must be a finite number in [1, inf), got inf"]),
    (_example("wb", lambda_grid=[1, math.inf]),
     ["lambda_grid[1] must be a finite number in [1, inf), got inf"]),
    (_example("domination", kappa=[1]), ["kappa must be a finite number", "got [1]"]),
    (_example("domination", kappa="3"), ["kappa must be a finite number", "got '3'"]),
    (_example("tail", thresholds=[True]), ["thresholds[0] must be a finite number, got True"]),
    (_example("wb-sum", delta=400), ["delta = 400.0 is too large", "overflows"]),
    (_example("tail", source={"family": "gaussian", "covariance": np.eye(20).tolist()},
              norms={"list": [{"variant": "lp", "dimension": 20, "p": 2}]},
              estimator={"kind": "mc", "budget": 1000}),
     ["source: dimension must be in [1, 16], got 20"]),
    (_example("tail", norms={"list": 2}), ["norms.list must be a nonempty list, got 2"]),
    (_example("tail", source={"family": "finite", "atoms": [[[1.0], 0.5, 0.5]]}),
     ["source.atoms must be [vector, probability] pairs"]),
    (_example("counterexample", delta=0.001, n_grid=[1, 4096]),
     ["n_grid: n^(1/delta - 1) overflows at delta = 0.001"]),
    (_example("domination", y={"family": "finite", "atoms": [[[1.0], True], [[-1.0], 0.5]]}),
     ["y: atom 0 probability must be a finite number in (0, 1], got True"]),
    (_example("tensorize", pairs=[_example("tensorize")["pairs"][0],
                                  {"x": {"family": "scaled", "factor": 0, "inner": _RADEMACHER},
                                   "y": _RADEMACHER}]),
     ["pairs[1].x: scale factor must be"]),
    (_example("tail", norms={"list": [{"variant": "scaled", "factor": 2,
                                       "inner": {"variant": "lp", "dimension": 1, "p": 0.5}}]}),
     ["norms.list[0].inner: lp exponent must be"]),
    (_example("tail", estimator={"kind": "mc", "budget": 1000, "confidence": 1.5}),
     ["estimator: confidence must be"]),
    (_example("tail", dump_samples=True), ["config: unknown key(s) ['dump_samples']"]),
    (_example("tail", source={"family": "bernoulli_thinned", "keep": 0.5,
                              "inner": _RADEMACHER}),
     ["source: unknown family 'bernoulli_thinned'"]),
    (_example("inequality-suite", max_n=100000), ["max_n", "cap 22", "got 100000"]),
    (_example("tail", source={"family": "gaussian", "covariance": [[-1e-12]]}),
     ["source: covariance must be positive semidefinite"]),
], ids=["tensorize-no-pairs", "tensorize-kappa", "wb-sum-n0", "wb-sum-iid-and-components",
        "domination-kappa", "domination-lambda", "domination-2d-y", "domination-2d-norms",
        "wb-empty-grid", "wb-grid-below-1", "wb-2d-norm", "tail-threshold-string",
        "tail-2d-norm", "counterexample-kappa", "counterexample-n0", "inequality-suite-max-n",
        "inequality-suite-dimension", "schur-short-a", "schur-2d-norm", "wb-nan-exponent",
        "tail-nan-threshold", "tail-inf-scaled-factor", "tail-nan-stable-scale",
        "wb-sum-fractional-n", "inequality-suite-fractional-instances",
        "domination-fractional-norm-seed", "tail-stable-exact", "domination-stable-exact",
        "tensorize-stable-exact", "wb-stable-exact", "wb-sum-stable-exact",
        "tail-inf-covariance", "tail-inf-atoms", "tail-no-atoms", "wb-sum-negative-seed",
        "tensorize-inf-kappa", "wb-inf-C", "wb-inf-grid-point", "domination-kappa-list",
        "domination-kappa-string", "tail-threshold-bool", "wb-sum-huge-delta",
        "tail-20d-gaussian", "tail-norm-list-number", "tail-atom-triple",
        "counterexample-overflowing-n", "domination-bool-probability-in-y",
        "tensorize-zero-factor-in-pair-1", "tail-p-below-1-in-inner-norm",
        "tail-estimator-confidence", "tail-dump-samples", "tail-thinned-source",
        "inequality-suite-max-n-over-cap", "tail-tiny-negative-covariance"])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, cfg, messages):
    # Each catalog example with one edit; each once passed validate and then
    # failed at run, or ran on a wrong input, or crashed validate with a
    # traceback: wb-sum silently dropped iid and n, NaN or infinite parameters
    # gave meaningless cells or Infinity in report.json, fractional counts were
    # truncated, exact estimators on laws with no exact path and negative seeds
    # failed only at run, and an empty atom list or an infinite kappa raised
    # IndexError or OverflowError.  A bool or a numeric string read as a number
    # (kappa "3", threshold true), a 20-d Gaussian passed the d <= 16 cap, a
    # list where a number belongs printed Python's own error naming no key,
    # delta = 400 overflowed 9^delta with a traceback, and so did 4096^999 at run;
    # an error inside a source, norm or estimator named no spec path; a max_n past
    # the sign-enumeration cap validated, and run drew its vectors before failing;
    # a covariance of [[-1e-12]] passed an absolute PSD floor and run crashed in math.sqrt.
    path = _write(tmp_path, cfg)
    assert main(["validate", path]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error:") and all(m in line for m in messages), line
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def _mutated_catalog_configs():
    """(node, value, config): each catalog example with one node, anything but its
    kind, replaced by one of eleven values."""
    def paths(node, path=()):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            yield path + (key,)
            yield from paths(child, path + (key,))
    for kind in EXPERIMENTS.values():
        example = kind.example["config"]
        for path in [p for p in paths(example) if p != ("kind",)]:
            for value in (math.nan, math.inf, -1, 0, 0.5, True, "x", "2", [], {}, None):
                cfg = json.loads(json.dumps(example))
                node = cfg
                for key in path[:-1]:
                    node = node[key]
                original, node[path[-1]] = node[path[-1]], value
                yield original, value, cfg


def test_mutated_catalog_configs_fail_validate_cleanly_or_run():
    # Once 16 of these raised IndexError from validate (an empty atom list), one
    # OverflowError (tensorize kappa = Infinity), 15 infinite constants wrote
    # Infinity into report.json and 3 negative seeds failed only at run; 463
    # rejections were a plain TypeError or ValueError naming no key, and 43
    # numbers of the catalog validated with true, or "1.0", in their place.
    configs = list(_mutated_catalog_configs())
    assert len(configs) == 2321
    escaped, validated = [], 0
    for original, value, cfg in configs:
        try:
            run = validate_config(cfg)
        except ParameterError:
            continue
        except Exception as exc:  # any other type escapes
            escaped.append((cfg, repr(exc)))
            continue
        validated += 1
        is_number = isinstance(original, (int, float)) and not isinstance(original, bool)
        if is_number and (value is True or value == "2"):
            escaped.append((cfg, "a bool or a numeric string read as a number"))
        try:
            report, _, _ = run(1)
            json.dumps(report, allow_nan=False)
        except (PreconditionError, CapacityError):
            pass
        except Exception as exc:
            escaped.append((cfg, repr(exc)))
    assert validated == 87 and not escaped, escaped


def test_integer_constants_report_the_same_bytes_as_floats(tmp_path):
    # A constant is stored as the float its reader returns, so "C": 1 reports 1.0.
    for kind, edits in (("domination", {"kappa": 1, "lambda": 1}), ("wb", {"C": 1})):
        as_ints = _round_trip(tmp_path, _example(kind, **edits), kind + "-int")
        assert as_ints == _round_trip(tmp_path, _example(kind), kind + "-float")


def test_wb_validates_and_runs_at_a_large_delta(tmp_path):
    # wb never forms 9^delta, so only wb-sum rejects delta = 400.  A Pareto(2)
    # tail decays like lambda^-2, far slower than lambda^-400: exit 2.
    code, raw = _round_trip(tmp_path, _example("wb", delta=400), "wb")
    report = json.loads(raw)
    assert code == 2 and report["params"]["delta"] == 400.0
    assert report["overall"] == "violated"


def test_config_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys):
    # Python's UnicodeDecodeError and RecursionError once escaped or named no file.
    for name, text, message in (("latin1.json", b'{"kind": "tail", "comment": "\xff"}', "utf-8"),
                                ("deep.json", b"[" * 10**5 + b"]" * 10**5, "recursion")):
        (tmp_path / name).write_bytes(text)
        assert main(["validate", str(tmp_path / name)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error:") and str(tmp_path / name) in line, line
        assert message in line, line


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_report_json_is_strict(tmp_path):
    # rhs = 0 at n = 10^6 made "ratio" Infinity; it is null now, table.csv keeps inf.
    cfg = {"kind": "counterexample", "seed": 1, "delta": 0.1, "n_grid": [1, 4, 16, 10**6],
           "kappa": 100.0, "lambda": 1.0, "budget": 1000}
    path = _write(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    report = json.loads((tmp_path / "o" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["rows"][-1]["rhs"] == 0.0 and report["rows"][-1]["ratio"] is None
    assert (tmp_path / "o" / "table.csv").read_text().splitlines()[-1].endswith(",inf")


def test_majorize_reports_a_pair_that_is_not_majorised(tmp_path):
    cfg = {"kind": "majorize", "seed": 1, "a": [0.9, 0.1], "b": [0.5, 0.5]}
    code, raw = _round_trip(tmp_path, cfg, "majorize")
    assert code == 2
    assert json.loads(raw) == {"kind": "majorize", "majorised": False,
                               "violating_partial_sum": 1}


def test_majorize_runs_a_tiny_scale_pair(tmp_path, capsys):
    # A valid n = 8 mixture pair at scale 1e-12: the T-transform chain once
    # raised an uncaught IndexError here, and domlab run exited with a traceback.
    rng = np.random.default_rng(5)
    b = np.sort(rng.standard_normal(8))[::-1]
    w = rng.random(int(rng.integers(2, 5)))
    a = sum(wi * rng.permutation(b) for wi in w / w.sum())
    cfg = {"kind": "majorize", "seed": 1, "a": (a * 1e-12).tolist(), "b": (b * 1e-12).tolist()}
    code, raw = _round_trip(tmp_path, cfg, "majorize")
    report = json.loads(raw)
    assert code == 0 and report["majorised"] is True and report["terms"] <= 8
    assert report["reconstruction_error"] <= 1e-9 * 1e-12 * np.max(np.abs(b))
    assert sorted(os.listdir(tmp_path / "majorize")) == ["manifest.json", "report.json"]
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# exit codes


def test_validate_subcommand(tmp_path, capsys):
    path = _write(tmp_path, TAIL_CFG)
    assert main(["validate", path]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_config_exits_one(tmp_path, capsys):
    path = _write(tmp_path, dict(TAIL_CFG, bogus=1))
    assert main(["validate", path]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 1


def test_missing_file_exits_one(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


def test_usage_error_exits_one():
    assert main(["frobnicate"]) == 1


def _fresh_parse(argv, capsys):
    """(exit code, stdout, stderr) of argv on a newly built parser."""
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(argv)
    return (1 if exc.value.code else 0, *capsys.readouterr())


def test_main_builds_one_parser_and_parses_each_call_afresh(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = _write(tmp_path, TAIL_CFG)
    calls = [["validate", path], ["validate"], ["frobnicate"], ["--help"],
             ["run", path, "--out", str(tmp_path / "a"), "--threads", "2"],
             ["run", path, "--out", str(tmp_path / "b")], ["validate", path], ["validate"]]
    seen = []
    for argv in calls:
        seen.append((main(argv), *capsys.readouterr()))
    # A usage error and --help read as on a fresh parser, also after other calls.
    for i, argv in ((1, ["validate"]), (2, ["frobnicate"]), (3, ["--help"]), (7, ["validate"])):
        assert seen[i] == _fresh_parse(argv, capsys)
    assert seen[1][0] == 1 and seen[1][2].startswith("usage: domlab validate")
    assert seen[3][0] == 0 and seen[3][1].startswith("usage: domlab")
    assert seen[6] == seen[0] and seen[0][0] == 0
    # The second run takes the default --threads again, not the first run's 2.
    threads = [json.loads((tmp_path / d / "manifest.json").read_text())["threads"]
               for d in "ab"]
    assert threads == [2, 1]


def test_run_ok_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, TAIL_CFG)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert os.path.exists(os.path.join(out, "tails.csv"))


def test_run_violated_exits_two(tmp_path):
    cfg = {
        "kind": "domination", "seed": 1,
        "x": {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]},
        "y": {"family": "finite", "atoms": [[[0.5], 0.5], [[-0.5], 0.5]]},
        "kappa": 1.0, "lambda": 1.0,
        "norms": {"list": [{"variant": "scaled", "factor": 1.5,
                            "inner": {"variant": "lp", "dimension": 1, "p": 2}}]},
        "estimator": {"kind": "exact"},
    }
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_inconclusive_exits_three(tmp_path):
    # Identical Gaussians at kappa = 1: the true tails are equal, so a small
    # Monte Carlo budget cannot separate them in either direction.
    cov = [[1.0, 0.0], [0.0, 1.0]]
    cfg = {
        "kind": "domination", "seed": 3,
        "x": {"family": "gaussian", "covariance": cov},
        "y": {"family": "gaussian", "covariance": cov},
        "kappa": 1.0, "lambda": 1.0,
        "norms": {"list": [{"variant": "lp", "dimension": 2, "p": 2}]},
        "estimator": {"kind": "mc", "budget": 20000},
    }
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 3


def test_failed_premise_exits_one_without_traceback(tmp_path, capsys):
    # X = 2 R is not (1,1)-dominated by Y = R / 2, so the premise re-check fails.
    cfg = {"kind": "tensorize", "seed": 1,
           "pairs": [{"x": {"family": "finite", "atoms": [[[2.0], 0.5], [[-2.0], 0.5]]},
                      "y": {"family": "finite", "atoms": [[[0.5], 0.5], [[-0.5], 0.5]]}}],
           "kappa": 1.0, "lambda": 1.0, "alpha": 1.0,
           "norms": {"list": [{"variant": "lp", "dimension": 1, "p": 2}]},
           "estimator": {"kind": "exact"}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "premise" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_unordered_gaussian_premise_exits_one_without_traceback(tmp_path, capsys):
    # X ~ N(0, 4I) has no covariance-order certificate against Y ~ N(0, I), so its
    # premise is re-checked over the family, and every norm's X tail is larger.
    cfg = {"kind": "tensorize", "seed": 1,
           "pairs": [{"x": {"family": "gaussian", "covariance": [[4.0, 0.0], [0.0, 4.0]]},
                      "y": {"family": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]]}}],
           "kappa": 1.0, "lambda": 1.0, "alpha": 1.0,
           "norms": {"random": {"seed": 77, "dimension": 2, "size": 3}},
           "estimator": {"kind": "mc", "budget": 2000}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error:") and "pair 0 fails" in line and "premise" in line, line
    assert not (tmp_path / "o").exists()


def _rademacher_schur(a, b):
    return {"kind": "schur", "seed": 1, "a": a, "b": b,
            "component": {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]},
            "norm": {"variant": "lp", "dimension": 1, "p": 2}}


def test_cap_violation_exits_one_without_traceback(tmp_path, capsys):
    # Weights 2^i / (2^20 - 1): no two sign patterns give the same partial
    # sum, so the last step forms 2^20 > 10^6 atoms before merging.
    a = [2.0**i / (2**20 - 1) for i in range(20)]
    cfg = _rademacher_schur(a, [1.0] + [0.0] * 19)
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_schur_with_many_equal_weights_exits_zero(tmp_path):
    # 20 Rademacher summands: 2^20 outcome tuples, 21 atoms of the sum.
    # [DERIVED] rhs = E(|2 e_1| - 1)_+ = 1, and
    # lhs = sum_k C(20, k) 2^-20 (|0.1 (2k - 20)| - 1)_+.
    out = tmp_path / "o"
    cfg = _rademacher_schur([0.1] * 20, [2.0] + [0.0] * 19)
    assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["report"]
    expected = sum(math.comb(20, k) * max(abs(0.1 * (2 * k - 20)) - 1.0, 0.0)
                   for k in range(21)) / 2**20
    assert rep["lhs"] == pytest.approx(expected, rel=1e-12)
    assert rep["rhs"] == 1.0 and rep["holds"]


def test_schur_component_may_be_any_finite_law(tmp_path, capsys):
    # [DERIVED] e_1 + e_2 is the law on -2, 0, 2 with masses 1/4, 1/2, 1/4, so
    # both configs sum the same dyadic atoms and report the same exact sides.
    pair = {"family": "sum_of", "parts": [_RADEMACHER, _RADEMACHER]}
    atoms = {"family": "finite", "atoms": [[[-2.0], 0.25], [[0.0], 0.5], [[2.0], 0.25]]}
    reports = []
    for name, component in (("pair", pair), ("atoms", atoms)):
        path = _write(tmp_path, _example("schur", component=component), name + ".json")
        assert main(["validate", path]) == 0
        assert main(["run", path, "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text())["report"])
    assert reports[0] == reports[1] and reports[0]["method"] == "exact"
    stable = _write(tmp_path, _example("schur", component=_STABLE), "stable.json")
    assert main(["validate", stable]) == 1
    assert "component must be a finite law" in capsys.readouterr().err


def _rademacher_tensorize(n):
    return {"kind": "tensorize", "seed": 1,
            "pairs": [{"x": {"family": "finite", "atoms": [[[0.5], 0.5], [[-0.5], 0.5]]},
                       "y": {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]}}
                      for _ in range(n)],
            "kappa": 1.0, "lambda": 1.0, "alpha": 1.0,
            "norms": {"list": [{"variant": "lp", "dimension": 1, "p": 2}]},
            "estimator": {"kind": "exact"}}


def test_exact_tensorize_far_above_the_tuple_cap_exits_zero(tmp_path):
    # 30 Rademacher pairs: 2^30 outcome tuples per sum, 31 distinct atoms.
    # [DERIVED] P(|sum e_i / 2| > 1) = sum over |2k - 30| > 2 of C(30, k) / 2^30.
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, _rademacher_tensorize(30)), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    expected = sum(math.comb(30, k) for k in range(31) if abs(2 * k - 30) > 2) / 2**30
    px = rep["records"][0]["px"]
    assert px["exact"] and px["value"] == expected


def test_law_above_the_atom_cap_exits_one_without_traceback(tmp_path, capsys):
    # Three components of 102 generic atoms: their sum has 102^3 > 10^6 atoms.
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(3):
        values = rng.standard_normal(51)
        atoms = [[[float(v)], 1.0 / 102] for v in values] + \
                [[[float(-v)], 1.0 / 102] for v in values]
        pairs.append({"x": {"family": "finite",
                            "atoms": [[[0.5 * v[0]], p] for v, p in atoms]},
                      "y": {"family": "finite", "atoms": atoms}})
    cfg = dict(_rademacher_tensorize(0), pairs=pairs)
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1061208 atoms before merging" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_empty_norm_family_exits_one(tmp_path, capsys):
    # Over no norms every check passes vacuously, so "holds" would claim nothing.
    cfg = {"kind": "domination", "seed": 1,
           "x": TAIL_CFG["source"], "y": TAIL_CFG["source"],
           "kappa": 1.0, "lambda": 1.0, "norms": {"list": []},
           "estimator": {"kind": "exact"}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonempty" in err
    assert not (tmp_path / "o").exists()


GAUSSIAN_TAIL_CFG = {
    "kind": "tail", "seed": 1,
    "source": {"family": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]]},
    "thresholds": [1.0], "estimator": {"kind": "mc", "budget": 1000},
}
L2 = {"variant": "lp", "dimension": 2, "p": 2}


@pytest.mark.parametrize("norm, message", [
    ({"variant": "scaled", "factor": float("nan"), "inner": L2}, "finite"),
    ({"variant": "scaled", "factor": float("inf"), "inner": L2}, "finite"),
    ({"variant": "weighted_lp", "dimension": 2, "p": 2, "weights": [1.0, float("nan")]},
     "finite"),
    ({"variant": "ellipsoid", "matrix": [[float("inf"), 0.0], [0.0, 1.0]]}, "finite"),
    ({"variant": "ellipsoid", "matrix": [[1.0, 0.0], [0.0]]}, "equal-length"),
    ({"variant": "polytope_gauge", "directions": [[float("nan"), 0.0], [0.0, 1.0]]},
     "finite"),
    ({"variant": "polytope_gauge", "directions": []}, "nonempty"),
    ({"variant": "polytope_gauge", "directions": [[1.0, 0.0], [0.0]]}, "equal-length"),
    ({"variant": "weighted_lp", "dimension": 2, "p": "two", "weights": [1.0, 1.0]},
     "exponent"),
    ({"variant": "lp", "dimension": 1, "p": 2, "weights": [5.0], "factr": 3}, "unknown key"),
    ({"variant": "scaled", "factor": 2.0, "inner": {"variant": "lp", "dimension": 2}},
     "missing"),
])
def test_malformed_norm_exits_one(tmp_path, capsys, norm, message):
    # A NaN factor or weight used to pass validation and report P(||X|| > t) = 0.
    path = _write(tmp_path, dict(GAUSSIAN_TAIL_CFG, norms={"list": [norm]}))
    assert main(["validate", path]) == 1
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error:") and message in line for line in lines)
    assert not (tmp_path / "o").exists()


def test_null_p_means_infinity_for_both_lp_variants(tmp_path):
    reports = []
    for p in (None, "inf"):
        norms = [{"variant": "lp", "dimension": 2, "p": p},
                 {"variant": "weighted_lp", "dimension": 2, "p": p, "weights": [1.0, 2.0]}]
        cfg = dict(GAUSSIAN_TAIL_CFG, norms={"list": norms})
        out = tmp_path / f"o-{p}"
        assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]


def test_counterexample_witness_exits_two(tmp_path):
    # [DERIVED] 100 P(|X| > n) for the index-1/2 law (2 levy_stable.sf(n, 0.5, 0))
    # is 0.621 at n = 16384 and 0.311 at 65536, against P(|X| > 1) = 0.543.
    cfg = {"kind": "counterexample", "seed": 1, "delta": 0.5,
           "n_grid": [4, 1024, 16384, 65536], "kappa": 100.0, "lambda": 1.0,
           "budget": 100000}
    out = str(tmp_path / "o")
    assert main(["run", _write(tmp_path, cfg), "--out", out]) == 2
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["expected_violation"] is True
    assert report["method"] == "mc"
    assert report["witness"] == 65536


# ---------------------------------------------------------------------------
# artifacts


def test_report_is_deterministic_and_timestamp_free(tmp_path):
    path = _write(tmp_path, TAIL_CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", path, "--out", a]) == 0
    assert main(["run", path, "--out", b]) == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    assert b"time" not in ra.lower() and b"date" not in ra.lower()


def test_manifest_contents(tmp_path):
    path = _write(tmp_path, TAIL_CFG)
    out = str(tmp_path / "o")
    main(["run", path, "--out", out])
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    import hashlib

    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert manifest["config_sha256"] == digest
    assert manifest["seed"] == 1
    assert manifest["exit_code"] == 0
    assert manifest["wall_clock_seconds"] >= 0.0
    assert set(manifest["verdicts"]) == {"holds", "inconclusive", "violated"}


def test_csv_is_rfc4180(tmp_path):
    path = _write(tmp_path, TAIL_CFG)
    out = str(tmp_path / "o")
    main(["run", path, "--out", out])
    raw = (tmp_path / "o" / "tails.csv").read_bytes()
    assert b"\r\n" in raw
    header = raw.split(b"\r\n")[0].decode()
    assert header == "norm_index,threshold,value,lo,hi"


def test_float_output_has_17_significant_digits(tmp_path):
    cfg = dict(TAIL_CFG, source={"family": "gaussian", "covariance": [[1.0]]},
               thresholds=[1.0])
    out = str(tmp_path / "o")
    main(["run", _write(tmp_path, cfg), "--out", out])
    raw = (tmp_path / "o" / "tails.csv").read_text()
    value_field = raw.splitlines()[1].split(",")[2]
    import math
    from scipy.special import erfc

    assert value_field == format(float(erfc(math.sqrt(0.5))), ".17g")


def test_csv_blocks_match_the_row_writer(tmp_path):
    # Rows are written with the bytes csv.writer gives them after each float is
    # formatted to 17 digits: nan, inf, -0 and subnormals included.
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.0 / 3.0, 1e300, 2.5]
    floats = [tuple(special[i:i + 3]) for i in range(0, len(special), 3)]
    ints = [(0, -1, 2**62), (7, 10**17, -(2**63))]
    rows = [("norm_index", 1, -0.0, math.nan), (2**70, math.inf, 5e-324, "x"), *floats, *ints]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c"])
        for row in rows:
            w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    got = tmp_path / "got.csv"
    _write_csv(got, ["a", "b", "c"], rows)
    assert got.read_bytes() == expected.read_bytes()
    assert b"nan,inf,-inf\r\n-0,0,4.9406564584124654e-324\r\n" in got.read_bytes()


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert len(catalog) >= 9


def test_threads_flag_does_not_change_results(tmp_path):
    cfg = {
        "kind": "domination", "seed": 9,
        "x": {"family": "gaussian", "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "y": {"family": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        "kappa": 2.0, "lambda": 1.0,
        "norms": {"random": {"seed": 5, "dimension": 2, "size": 6}},
        "estimator": {"kind": "mc", "budget": 200000},
    }
    path = _write(tmp_path, cfg)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", path, "--out", a, "--threads", "1"])
    main(["run", path, "--out", b, "--threads", "8"])
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


# A d = 1 Monte Carlo tail config whose norms take both count paths: lp-type
# norms by level, the p = 1.5 weighted norm, the ellipsoid and the gauge by
# evaluate.
SCALAR_MC_TAIL_CFG = {
    "kind": "tail", "seed": 3,
    "source": {"family": "sum_of", "parts": [{"family": "pareto_tail", "exponent": 2.0},
                                             {"family": "symmetric_stable", "index": 0.7}]},
    "norms": {"list": [{"variant": "lp", "dimension": 1, "p": 1},
                       {"variant": "lp", "dimension": 1, "p": 2},
                       {"variant": "lp", "dimension": 1, "p": "inf"},
                       {"variant": "weighted_lp", "dimension": 1, "p": 1.5, "weights": [2.0]},
                       {"variant": "ellipsoid", "matrix": [[0.7]]},
                       {"variant": "polytope_gauge", "directions": [[1.0], [-0.4]]},
                       {"variant": "scaled", "factor": 0.25,
                        "inner": {"variant": "lp", "dimension": 1, "p": 2}}]},
    "thresholds": [-1.0, 0.0, 1e-300, 1.0, 1.0, 2.7, 1e300],
    "estimator": {"kind": "mc", "budget": 2 * CHUNK + 99},
}


def test_scalar_mc_tail_reports_do_not_depend_on_threads(tmp_path):
    path = _write(tmp_path, SCALAR_MC_TAIL_CFG)
    reports = []
    for threads in ("1", "2", "8"):
        assert main(["run", path, "--out", str(tmp_path / threads), "--threads", threads]) == 0
        reports.append((tmp_path / threads / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    cells = json.loads(reports[0])["cells"]
    assert len(cells) == 7 * 7 and all(not c["tail"]["exact"] for c in cells)


def test_counterexample_runs_on_the_threads_flag(tmp_path, monkeypatch):
    seen = []

    def spy(fn, count, threads=1):
        seen.append(threads)
        return map_chunks(fn, count, threads)
    monkeypatch.setattr(dominance, "map_chunks", spy)
    cfg = dict(EXPERIMENTS["counterexample"].example["config"], budget=3 * CHUNK)
    path = _write(tmp_path, cfg)
    for threads in ("1", "3"):
        assert main(["run", path, "--out", str(tmp_path / threads), "--threads", threads]) == 2
    assert seen == [1, 3]
    assert (tmp_path / "1" / "report.json").read_bytes() == \
        (tmp_path / "3" / "report.json").read_bytes()
