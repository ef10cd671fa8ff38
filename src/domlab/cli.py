"""Batch command-line driver.

Subcommands:

* ``run CONFIG``          -- execute one experiment config, write a JSON
  report (deterministic: sorted keys, no timestamps), CSV side files where
  the experiment produces tabular data, and a run manifest (config digest,
  version, wall clock, seeds, verdict summary).
* ``validate CONFIG``     -- check a config and build what its run uses; only
  premise re-checks and size caps are left to ``run``.
* ``list-experiments``    -- print the catalog of available experiment
  kinds with ready-to-run example configs.

Exit codes: 0 all claims hold (or nothing was claimed), 1 usage or
validation error, a failed premise re-check or an exceeded size cap, 2 at
least one claim violated (including counterexample probes that find their
expected witness), 3 no violation but at least one inconclusive verdict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time

from . import __version__
from .config import EXPERIMENTS, load_config
from .errors import CapacityError, ParameterError, PreconditionError
from .stats import worst_verdict

EXIT_OK = 0
EXIT_USAGE = 1
# The exit code of a run, by the worst of its verdicts.
_VERDICT_EXIT = {"holds": EXIT_OK, "inconclusive": 3, "violated": 2}

# The list-experiments catalog: one ready-to-run example per experiment kind.
CATALOG = [dict(kind.example, kind=name) for name, kind in EXPERIMENTS.items()]


# ---------------------------------------------------------------------------
# output plumbing


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return x


def _write_csv(path, header, rows):
    """One CSV table: the header row, then each row with floats at 17 digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)  # RFC 4180: CRLF line terminator is the default
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def run_config(path: str, out_dir: str, threads: int) -> int:
    raw_bytes, cfg, run = load_config(path)
    started = time.monotonic()
    report, tables, verdicts = run(threads)
    elapsed = time.monotonic() - started
    os.makedirs(out_dir, exist_ok=True)  # only once the run has succeeded
    counts = {v: verdicts.count(v) for v in _VERDICT_EXIT}
    code = _VERDICT_EXIT[worst_verdict(verdicts)]

    _write_json(os.path.join(out_dir, "report.json"), report)
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(out_dir, name), header, rows)
    manifest = {
        "config_sha256": hashlib.sha256(raw_bytes).hexdigest(),
        "version": __version__,
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "threads": threads,
        "wall_clock_seconds": elapsed,
        "verdicts": counts,
        "exit_code": code,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    summary = ", ".join(f"{k}={v}" for k, v in counts.items())
    print(f"{cfg['kind']}: {summary} -> exit {code} (report in {out_dir})")
    return code


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domlab",
        description="Numerical checks for tail domination, weak concentration "
                    "and majorisation of sums of symmetric random vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default="domlab-out",
                       help="output directory (default: domlab-out)")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker threads that draw, evaluate and count Monte Carlo "
                            "chunks (results are bit-identical for any value)")

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config", help="path to a JSON experiment config")

    sub.add_parser("list-experiments", help="print the experiment catalog")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "list-experiments":
            print(json.dumps(CATALOG, indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "validate":
            load_config(args.config)
            print(f"{args.config}: valid")
            return EXIT_OK
        # run: the parser admits no other command
        if args.threads < 1:
            raise ParameterError("--threads must be >= 1")
        return run_config(args.config, args.out, args.threads)
    except (ParameterError, PreconditionError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
