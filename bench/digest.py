"""Report digests: the SHA-256 of every report.json the benchmark writes.

    python3 bench/digest.py [--seed N]

Runs each workload config and the nine ``domlab list-experiments`` catalog
configs once through ``domlab.cli.main`` and prints one line per report:
``<sha256>  <workload>/<config>``.  It also runs the mc-norm-family config
at ``--threads 2`` and ``--threads 1`` and exits 1 unless the two reports
are byte-identical.  Compare the printed lines between two commits to show
that a change leaves every report unchanged; the digest is made anew from
the code, not read from a stored copy.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "domlab", "__init__.py")):
        print(f"error: no domlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(HERE, ".work", f"digest-{os.getpid()}")
    ok = True
    try:
        for name in workloads.WORKLOADS:
            w = workloads.build(name, args.seed, os.path.join(workdir, name))
            for op in w.ops:
                if op.kind != "cli":
                    continue
                report = op.run()["report"]
                print(f"{workloads.digest(report)}  {name}/{op.name}", flush=True)
                if op.threads == 1:
                    continue
                out = os.path.join(workdir, "threads-1")
                code, _ = workloads.quiet(["run", op.config_path, "--out", out,
                                           "--threads", "1"])
                with open(os.path.join(out, "report.json"), "rb") as fh:
                    same = fh.read() == report
                print(f"{name}/{op.name} at --threads 1 and {op.threads}: "
                      f"{'identical' if same else 'DIFFERENT'} reports", flush=True)
                ok = ok and same and code != 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
