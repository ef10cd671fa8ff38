"""Config schema strictness, CLI exit codes, and report artifacts."""

import json
import os
import tracemalloc

import pytest

from domlab import (Estimator, ParameterError, bernoulli_thinned, norm_from_spec,
                    pareto_tail, scaled_source, sum_of, symmetric_stable, tail_table)
from domlab.cli import CATALOG, main
from domlab.config import EXPERIMENTS, validate_config
from domlab.rng import CHUNK

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


def test_unknown_nested_key_rejected():
    cfg = json.loads(json.dumps(TAIL_CFG))
    cfg["source"]["typo"] = 1
    with pytest.raises(ParameterError, match="unknown key"):
        validate_config(cfg)
    cfg = json.loads(json.dumps(TAIL_CFG))
    cfg["estimator"]["budgt"] = 100
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
        with pytest.raises(ParameterError, match="budget must be an integer"):
            validate_config(dict(TAIL_CFG, estimator={"kind": "mc", "budget": budget}))
        with pytest.raises(ParameterError, match="budget must be an integer"):
            validate_config({"kind": "counterexample", "seed": 1, "delta": 0.7,
                             "n_grid": [2], "kappa": 2.0, "lambda": 1.0,
                             "budget": budget})


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
    ({"family": "bernoulli_thinned", "keep": 0.3,
      "inner": {"family": "symmetric_stable", "index": 1.0}},
     bernoulli_thinned(symmetric_stable(1.0), 0.3)),
    ({"family": "scaled", "factor": -2.0,
      "inner": {"family": "pareto_tail", "exponent": 3.0}},
     scaled_source(pareto_tail(3.0), -2.0)),
    ({"family": "sum_of", "parts": [{"family": "pareto_tail", "exponent": 2.0},
                                    {"family": "symmetric_stable", "index": 1.5}]},
     sum_of([pareto_tail(2.0), symmetric_stable(1.5)])),
], ids=["symmetric_stable", "bernoulli_thinned", "scaled", "sum_of"])
def test_source_spec_round_trip(tmp_path, spec, source):
    est = {"kind": "mc", "budget": 5000}
    cfg = dict(TAIL_CFG, source=spec, estimator=est)
    assert validate_config(cfg)["_source"] == source
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


def test_majorize_reports_a_pair_that_is_not_majorised(tmp_path):
    cfg = {"kind": "majorize", "seed": 1, "a": [0.9, 0.1], "b": [0.5, 0.5]}
    code, raw = _round_trip(tmp_path, cfg, "majorize")
    assert code == 2
    assert json.loads(raw) == {"kind": "majorize", "majorised": False,
                               "violating_partial_sum": 1}


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


def test_cap_violation_exits_one_without_traceback(tmp_path, capsys):
    # 20 Rademacher summands have 2^20 > 10^6 joint outcomes.
    cfg = {"kind": "schur", "seed": 1, "a": [0.05] * 20, "b": [1.0] + [0.0] * 19,
           "component": {"family": "finite", "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]},
           "norm": {"variant": "lp", "dimension": 1, "p": 2}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap" in err
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


def test_dump_samples_writes_the_tail_batch(tmp_path):
    from domlab import gaussian, sample_sum

    cfg = dict(TAIL_CFG, seed=4, dump_samples=True,
               source={"family": "gaussian", "covariance": [[1.0, 0.3], [0.3, 0.5]]},
               norms={"list": [{"variant": "lp", "dimension": 2, "p": 2}]},
               estimator={"kind": "mc", "budget": 1000})
    out = tmp_path / "mc"
    main(["run", _write(tmp_path, cfg), "--out", str(out), "--threads", "2"])
    assert json.loads((out / "report.json").read_text())["samples_file"] == "samples.csv"
    expected = sample_sum(gaussian([[1.0, 0.3], [0.3, 0.5]]), 1000, 4, stream=(0,))
    rows = (out / "samples.csv").read_bytes().split(b"\r\n")
    assert rows[-1] == b""
    assert rows[:-1] == [",".join(format(x, ".17g") for x in row).encode()
                         for row in expected]


def test_dump_samples_memory_is_bounded(tmp_path):
    # samples.csv is written one chunk at a time: an 8x larger budget must
    # not raise the traced peak.  (Every value is formatted to 17 digits
    # under tracemalloc, so the budgets stay small.)
    def peak(budget):
        cfg = dict(TAIL_CFG, dump_samples=True,
                   source={"family": "symmetric_stable", "index": 1.5},
                   estimator={"kind": "mc", "budget": budget})
        path = _write(tmp_path, cfg, f"dump-{budget}.json")
        tracemalloc.start()
        try:
            assert main(["run", path, "--out", str(tmp_path / str(budget))]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * CHUNK) <= 2 * peak(2 * CHUNK)


def test_dump_samples_skipped_on_exact_config(tmp_path):
    out = tmp_path / "exact"
    main(["run", _write(tmp_path, dict(TAIL_CFG, dump_samples=True)), "--out", str(out)])
    assert not (out / "samples.csv").exists()
    assert "samples_file" not in json.loads((out / "report.json").read_text())
