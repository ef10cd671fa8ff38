"""Reach check: every statement of domlab that no experiment reaches.

    python3 tools/reach.py

Run from anywhere; domlab is imported from the ``src/`` next to this file.
The script line-traces ``src/domlab`` (``sys.settrace`` and
``threading.settrace``, so worker threads are traced too) while it runs

* every ``domlab list-experiments`` catalog config: validate, then run at
  ``--threads 2``, in a temporary directory;
* one ``workloads.Runner.one_pass()`` of each bench workload at seed 1,
  built into a temporary directory (``bench/`` is imported, never written);
* ``tests/test_acceptance.py`` under pytest.

It then lists every statement in a function body of ``src/domlab`` that no
line event reached, leaving out error branches (a ``raise``, an ``except``
body, or a block that ends in ``raise``) and the entries of ALLOWED.  A
function none of whose statements ran is listed once, as its ``def`` line.
A statement is named by its module, its function, its first source line and
the ordinal of that line among the function's statements, so a repeated
line is told apart from the allowed one it repeats.
It exits 1 when anything is listed, when an ALLOWED entry matches nothing
unreached (it is reached now and should go), or when the acceptance tests
fail; otherwise it exits 0.  domlab never imports this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "domlab")
BENCH = os.path.join(ROOT, "bench")
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")

# (module, function, statement, ordinal) of each statement that no experiment
# reaches yet; the statement is its first source line, stripped, and a def
# line stands for a whole function that never ran.  The ordinal counts the
# statements of the same text before it in the function, in source order
# (error branches left out).  Keyed by text, not by line number.
ALLOWED = {
    # the symmetric_stable, sum_of and scaled families of a source spec
    ("config", "source_from_spec",
     'return _in_spec(context, symmetric_stable, spec["index"], spec.get("scale", 1.0))', 0),
    ("config", "source_from_spec", 'if fam == "sum_of":', 0),
    ("config", "source_from_spec",
     'inner = source_from_spec(spec["inner"], context + ".inner")', 0),
    ("config", "source_from_spec",
     'return _in_spec(context, scaled_source, inner, spec["factor"])', 0),
    # the components form of wb-sum
    ("config", "_prepare_wb_sum", 'if "iid" in raw or "n" in raw:', 0),
    ("config", "_prepare_wb_sum", 'comps = [source_from_spec(c, f"components[{i}]")', 0),
    # the report of a pair that is not majorised
    ("config", "_prepare_majorize.run",
     'report = {"kind": "majorize", "majorised": False,', 0),
    ("config", "_prepare_majorize.run", 'return report, {}, ["violated"]', 0),
    # scaled_source of a finite sum and of a sampled law
    ("distributions", "scaled_source",
     "if inner.finite:  # c (X_1 + ... + X_n) = c X_1 + ... + c X_n", 0),
    ("distributions", "scaled_source",
     'return SamplerSource(dimension=inner.dimension, family="scaled",', 0),
    # _draw of a nested sum, of a stable law at index 1 and of a scaled law
    ("distributions", "_draw", "part = np.empty_like(out)", 0),
    ("distributions", "_draw", "out.fill(0.0)", 0),
    ("distributions", "_draw",
     "for component, child in zip(source.components, ss.spawn(source.n)):", 0),
    ("distributions", "_draw", "return out", 0),
    ("distributions", "_draw", "np.tan(v, out=v)", 0),
    ("distributions", "_draw", 'if fam == "scaled":', 0),
    # the closed forms of a scalar Gaussian and of a scaled law
    ("distributions", "analytic_survival",
     'sigma = math.sqrt(float(par["covariance"][0, 0]))', 0),
    ("distributions", "analytic_survival", "if sigma == 0.0:", 0),
    ("distributions", "analytic_survival",
     "return lambda t: 1.0 if t <= 0.0 else float(erfc(t / (sigma * math.sqrt(2.0))))", 0),
    ("distributions", "analytic_survival", 'inner = analytic_survival(par["inner"])', 0),
    ("distributions", "analytic_survival", "if inner is None:", 0),
    ("distributions", "analytic_survival", 'c = abs(par["factor"])', 0),
    ("distributions", "analytic_survival", "return lambda t: inner(t / c)", 0),
    # the weighted_lp, ellipsoid and polytope_gauge norm specs
    ("geometry", "norm_from_spec",
     'return _in_spec(context, WeightedLpNorm, dimension=d, p=p, weights=spec["weights"])', 0),
    ("geometry", "norm_from_spec",
     'return _in_spec(context, EllipsoidNorm, matrix=spec["matrix"])', 0),
    ("geometry", "norm_from_spec",
     'return _in_spec(context, PolytopeGauge, directions=spec["directions"])', 0),
    ("majorisation", "weighted_domination_constants",
     "def weighted_domination_constants(params: WBParams) -> dict:", 0),
    ("majorisation", "weighted_domination_experiment",
     "def weighted_domination_experiment(a, b, source, params: WBParams, norms,", 0),
    ("stats", "compare_tails", 'return "violated"', 0),  # an exact violation
    # a norm that check_wb skips
    ("weakborell", "check_wb", "skipped.append(i)", 0),
    ("weakborell", "check_wb", "continue", 0),
}


# ---------------------------------------------------------------------------
# statements


_DEFS = (ast.FunctionDef, ast.ClassDef)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _header_end(node):
    """Last line of a statement's own code: a compound statement's header."""
    if isinstance(node, (ast.If, ast.While)):
        return node.test.end_lineno
    if isinstance(node, ast.For):
        return node.iter.end_lineno
    if isinstance(node, ast.With):
        return node.items[-1].context_expr.end_lineno
    if isinstance(node, _DEFS):
        return node.body[0].lineno - 1
    return node.end_lineno


class Statement:
    def __init__(self, node, text):
        self.node, self.text = node, text
        self.children = []
        self.ordinal = 0

    def reached(self, lines):
        if isinstance(self.node, ast.Try):  # the try line itself runs no code
            return any(c.reached(lines) for c in self.children)
        return any(line in lines
                   for line in range(self.node.lineno, _header_end(self.node) + 1))


def _functions(tree, source_lines):
    """(name, line, def line text, Statements of the body) of every function of
    a module, methods and nested functions included; error branches and
    docstrings are left out."""
    functions = []

    def block(body, scope, in_function, branch):
        if branch and isinstance(body[-1], ast.Raise):  # an error branch
            return []
        out = []
        for node in body:
            if isinstance(node, _DEFS):
                name = scope + [node.name]
                if isinstance(node, ast.ClassDef):
                    block(node.body, name, False, False)
                else:
                    body = block(node.body, name, True, False)
                    _number(body, {})
                    functions.append((".".join(name), node.lineno,
                                      source_lines[node.lineno - 1].strip(), body))
            if not in_function or isinstance(node, ast.Raise) or _is_docstring(node):
                continue
            stmt = Statement(node, source_lines[node.lineno - 1].strip())
            if not isinstance(node, _DEFS):  # except bodies are error branches
                for field in ("body", "orelse", "finalbody"):
                    if getattr(node, field, None):
                        stmt.children += block(getattr(node, field), scope, True, True)
            out.append(stmt)
        return out

    block(tree.body, [], False, False)
    return functions


def _number(stmts, seen):
    """Set each statement's ordinal: how many statements of its text come
    before it in the function, whose counts seen holds; a compound statement
    comes before its blocks."""
    for s in stmts:
        s.ordinal = seen.get(s.text, 0)
        seen[s.text] = s.ordinal + 1
        _number(s.children, seen)


def _unreached_in(stmts, lines):
    for s in stmts:
        if s.reached(lines):
            yield from _unreached_in(s.children, lines)
        else:
            yield s


def unreached(hits):
    """(path, line, function, text, ordinal) of each unreached statement in
    source order; a function none of whose statements ran is one item, its def
    line."""
    found = []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, filename)
        with open(path) as fh:
            source = fh.read()
        lines = hits.get(path, set())
        for function, line, text, body in _functions(ast.parse(source), source.splitlines()):
            if body and not any(s.reached(lines) for s in body):
                found.append((path, line, function, text, 0))
            else:
                found += [(path, s.node.lineno, function, s.text, s.ordinal)
                          for s in _unreached_in(body, lines)]
    return sorted(found)


# ---------------------------------------------------------------------------
# tracing


def _tracer():
    hits = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    return hits, call


def run_catalog(workdir):
    from domlab.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        main(["list-experiments"])
    for entry in json.loads(out.getvalue()):
        path = os.path.join(workdir, entry["name"] + ".json")
        with open(path, "w") as fh:
            json.dump(entry["config"], fh)
        with contextlib.redirect_stdout(io.StringIO()):
            main(["validate", path])
            main(["run", path, "--out", os.path.join(workdir, entry["name"]),
                  "--threads", "2"])


def run_bench(workdir):
    sys.path.insert(0, BENCH)
    import workloads

    for name in workloads.WORKLOADS:
        workloads.Runner(workloads.build(name, 1, os.path.join(workdir, name))).one_pass()


def run_acceptance():
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", ACCEPTANCE])


def main() -> int:
    started = time.monotonic()
    sys.dont_write_bytecode = True  # bench/ and tests/ are read, never written
    sys.path.insert(0, SRC)
    hits, call = _tracer()
    threading.settrace(call)
    sys.settrace(call)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            run_catalog(workdir)
            run_bench(workdir)
        code = run_acceptance()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"reach: the acceptance tests exited {code}")
        return 1

    found = unreached(hits)
    used = set()
    bad = []
    for path, line, function, text, ordinal in found:
        key = (os.path.splitext(os.path.basename(path))[0], function, text, ordinal)
        if key in ALLOWED:
            used.add(key)
        else:
            bad.append(f"{os.path.relpath(path, ROOT)}:{line}  {function}  {text}")
    stale = sorted(ALLOWED - used)
    for line in bad:
        print("unreached:", line)
    for module, function, text, ordinal in stale:
        print(f"reached, remove from ALLOWED: {module}  {function}  {text}  #{ordinal}")
    print(f"reach: {len(bad)} unreached, {len(stale)} stale, {len(used)} allowed "
          f"({time.monotonic() - started:.1f} s)")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
