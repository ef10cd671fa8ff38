"""domlab benchmark: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; domlab is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: a fresh interpreter imports domlab, then generates and
  validates the workload's configs and norm families; the median of
  SETUP_REPEATS child processes;
* ``wall_s``: one pass over the workload's operations, the median over
  the passes of the run;
* ``peak_rss_mb``: the peak resident set of this process at the end.

With ``--trace 1`` untraced passes fill the first half of the run and
traced passes the second; the metrics are the per-layer ones of
``tracing.Tracer.metrics`` plus ``trace.overhead_s``, the traced minus the
untraced median pass time.  Spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc-norm-family", "mc-heavy-tail", "exact-sums"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="build the workload's inputs in DIR and exit "
                        "(the child process that setup_s times)")
    return p.parse_args(argv)


def measure_setup(args, workdir):
    """Median wall time of fresh interpreters that build the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", os.path.join(workdir, f"setup-{i}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return statistics.median(times)


def end_to_end(args, workdir):
    import workloads

    setup_s = measure_setup(args, workdir)
    inputs = workloads.build(args.workload, args.seed, os.path.join(workdir, "run"))
    runner = workloads.Runner(inputs)
    times = runner.run(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "wall_s": {"value": statistics.median(times), "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    workloads.log(f"{args.workload}: {len(times)} passes, "
                  + ", ".join(f"{t:.3f}" for t in times) + " s")
    return runner, metrics


def traced(args, workdir):
    import tracing
    import workloads

    inputs = workloads.build(args.workload, args.seed, os.path.join(workdir, "run"))
    runner = workloads.Runner(inputs)
    plain = runner.run(args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    with_trace = runner.run(args.seconds / 2.0)
    metrics = tracer.metrics(len(with_trace))
    metrics["trace.overhead_s"] = {
        "value": statistics.median(with_trace) - statistics.median(plain), "unit": "s"}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    workloads.log(f"{args.workload}: untraced passes {plain}, traced {with_trace}, "
                  f"{len(tracer.spans)} spans")
    return runner, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "domlab", "__init__.py")):
        print(f"error: no domlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if not os.path.abspath(workloads.domlab.__file__).startswith(SRC + os.sep):
        print(f"error: domlab imported from {workloads.domlab.__file__}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.setup_only)
        return 0
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    try:
        runner, metrics = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in runner.problems:
        workloads.log(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
