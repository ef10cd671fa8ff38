"""The benchmark workloads: generated inputs, guarded operations, checks.

Each workload turns a seed into inputs, runs a fixed list of operations
through domlab's public entry points (``domlab.cli.main`` on generated
configs, and library functions where no config kind exists), and checks
every output against ``reference``, which does not import domlab.

All three workloads go through the tail engine
(``dominance.tail_probability`` over ``geometry`` norms), each in its own
way, so an optimisation tuned for one shows its cost on the other two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import domlab
from domlab.cli import main as domlab_main

import reference as ref

# The Gaussian pairs of acceptance criterion 4: Y_i - 2 X_i is positive
# semidefinite, so each X_i is (1, 1)-dominated by Y_i under every norm.
GAUSS_PAIRS = [
    ([[0.5, 0.1], [0.1, 0.4]], [[1.0, 0.2], [0.2, 0.8]]),
    ([[0.3, 0.0], [0.0, 0.3]], [[0.6, 0.0], [0.0, 0.9]]),
    ([[0.2, 0.05], [0.05, 0.2]], [[0.4, 0.1], [0.1, 0.5]]),
]

# The family of mc-norm-family is fixed: its mix of polytope sizes and lp
# exponents moves a pass by +-17 % between family seeds (8.7-12.1 s over
# six seeds), which would drown the effects the workload exists to show.
# The workload seed moves the Monte Carlo streams instead.
MC_FAMILY_SEED = 77
MC_FAMILY_SIZE = 20
MC_BUDGET = 10**6

WB_BUDGET = 10**7
WB_PARAMS = {"C": 1.0, "delta": 2.0, "theta": 0.5}
PARETO_EXPONENT = 2.0
WB_LAMBDAS = [1, 3, 9, 27]
STABLE_INDEX = 0.7
STABLE_BUDGET = 4 * 10**6
STABLE_N_GRID = [1, 4, 16, 64, 256, 1024]

EXACT_SUMMANDS = 9           # 4^9 = 262,144 outcome tuples
EXACT_FAMILY_SIZE = 10
PROXY_COMPONENTS = 8         # 4^8 = 65,536 outcome tuples
PROXY_ALPHA = 0.5
SIGN_SIZES = (16, 17, 18, 19, 20)
SIGN_LEVEL = 0.5             # Kahane s = t, Paley-Zygmund theta
DECOMPOSE_SIZES = (8, 12)
DECOMPOSE_PER_SIZE = 3
# Uniform against random weights at n = 30: decompose raises "extraction
# failed: no perfect matching on support" on every one of these today.
FAULT_PAIRS = 2
FAULT_N = 30

_SQUARE = [[[1.0, 1.0], 0.25], [[1.0, -1.0], 0.25],
           [[-1.0, 1.0], 0.25], [[-1.0, -1.0], 0.25]]


def _finite(atoms, scale=1.0):
    return {"family": "finite",
            "atoms": [[[scale * x for x in v], p] for v, p in atoms]}


def quiet(argv):
    """domlab.cli.main with its stdout kept off the benchmark's own."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = domlab_main(argv)
    return code, buf.getvalue()


class Op:
    """One guarded operation of a pass.

    ``kind`` is "cli" for a config run through ``domlab.cli.main`` or
    "call" for a library call; ``expect_fail`` marks the known
    ``decompose`` fault, which is counted and reported, not hidden.
    """

    def __init__(self, name, kind, run, check, expect_fail=False,
                 config_path=None, threads=1):
        self.name = name
        self.kind = kind
        self.run = run
        self.check = check
        self.expect_fail = expect_fail
        self.config_path = config_path
        self.threads = threads


class Workload:
    name = ""
    threads = 1

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.ops = []

    # -- building operations -------------------------------------------

    def add_config(self, name, config, check):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        code, out = quiet(["validate", path])
        if code != 0:
            raise RuntimeError(f"generated config {name} does not validate: {out}")
        out_dir = os.path.join(self.workdir, name)
        argv = ["run", path, "--out", out_dir, "--threads", str(self.threads)]

        def run():
            code, _ = quiet(argv)
            if code == 1:
                raise RuntimeError(f"domlab run exited 1 on {name}")
            with open(os.path.join(out_dir, "report.json"), "rb") as fh:
                raw = fh.read()
            return {"exit": code, "report": raw}

        self.ops.append(Op(name, "cli", run, check, config_path=path,
                           threads=self.threads))

    def add_call(self, name, fn, check, expect_fail=False):
        self.ops.append(Op(name, "call", fn, check, expect_fail))

    def prepare(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared checks


def _report(result):
    return json.loads(result["report"])


def _check_domination_records(rep, expect_records):
    problems = []
    if len(rep["records"]) != expect_records:
        problems.append(f"{len(rep['records'])} records, expected {expect_records}")
    bad = [r["index"] for r in rep["records"] if r["verdict"] == "violated"]
    if bad:
        problems.append(f"violated domination records {bad}")
    return problems


def _mc_cell(label, est, p_lo, p_hi=None):
    n = est["samples"]
    k = est["value"] * n
    if not ref.count_within(k, n, p_lo, p_hi):
        hi = p_lo if p_hi is None else p_hi
        return [f"{label}: {est['value']:.6g} of {n} outside "
                f"{ref.Z_SCORE:g} s.e. of [{p_lo:.6g}, {hi:.6g}]"]
    return []


# ---------------------------------------------------------------------------
# 1. mc-norm-family


class McNormFamily(Workload):
    """Many norms share one threshold on shared Gaussian MC samples."""

    name = "mc-norm-family"
    threads = 2

    def prepare(self):
        cfg = {"kind": "tensorize",
               "seed": int(self.rng.integers(0, 2**31)),
               "pairs": [{"x": {"family": "gaussian", "covariance": x},
                          "y": {"family": "gaussian", "covariance": y}}
                         for x, y in GAUSS_PAIRS],
               "kappa": 1.0, "lambda": 1.0, "alpha": 1.0,
               "norms": {"random": {"seed": MC_FAMILY_SEED, "dimension": 2,
                                    "size": MC_FAMILY_SIZE}},
               "estimator": {"kind": "mc", "budget": MC_BUDGET}}
        self.add_config("gaussian-tensorize", cfg, self.check_tensorize)

    def check_tensorize(self, result):
        rep = _report(result)
        problems = _check_domination_records(rep, MC_FAMILY_SIZE)
        if (rep["kappa"], rep["lambda"]) != (16.0, 2.0):
            problems.append(f"constants ({rep['kappa']}, {rep['lambda']}) != (16, 2)")
        cov_x = sum(np.asarray(x, dtype=float) for x, _ in GAUSS_PAIRS)
        cov_y = sum(np.asarray(y, dtype=float) for _, y in GAUSS_PAIRS)
        for r in rep["records"]:
            spec = r["norm"]
            problems += _mc_cell(f"norm {r['index']} P(|X| > 1)", r["px"],
                                 ref.gaussian_tail(spec, cov_x, 1.0))
            problems += _mc_cell(f"norm {r['index']} P(lambda |Y| > 1)", r["py"],
                                 ref.gaussian_tail(spec, cov_y, 1.0 / rep["lambda"]))
        return problems


# ---------------------------------------------------------------------------
# 2. mc-heavy-tail


class McHeavyTail(Workload):
    """Cheap norms at many thresholds on 10^7 heavy-tailed sums."""

    name = "mc-heavy-tail"
    threads = 1

    def prepare(self):
        scales = sorted(float(c) for c in np.round(self.rng.uniform(200, 500, 3), 3))
        wb = {"kind": "wb-sum", "seed": int(self.rng.integers(0, 2**31)),
              "iid": {"family": "pareto_tail", "exponent": PARETO_EXPONENT},
              "n": 3, **WB_PARAMS,
              "norms": {"list": [{"variant": "scaled", "factor": 1.0 / c,
                                  "inner": {"variant": "lp", "dimension": 1,
                                            "p": 2}} for c in scales]},
              "lambda_grid": WB_LAMBDAS,
              "estimator": {"kind": "mc", "budget": WB_BUDGET}}
        ce = {"kind": "counterexample", "seed": int(self.rng.integers(0, 2**31)),
              "delta": STABLE_INDEX, "n_grid": STABLE_N_GRID,
              "kappa": 2.0, "lambda": 1.0, "budget": STABLE_BUDGET}
        self.add_config("pareto-wb-sum", wb, self.check_wb_sum)
        self.add_config("stable-counterexample", ce, self.check_counterexample)

    def check_wb_sum(self, result):
        rep = _report(result)
        problems = []
        c_out, theta_out = ref.wb_tensorized(**WB_PARAMS)
        for key in ("params", "tensorized"):
            got = rep[key]
            if not (math.isclose(got["C"], c_out, rel_tol=1e-12)
                    and math.isclose(got["theta"], theta_out, rel_tol=1e-12)):
                problems.append(f"{key} ({got['C']}, {got['theta']}) != "
                                f"({c_out}, {theta_out})")
        if rep["skipped"]:
            problems.append(f"norms {rep['skipped']} skipped by the theta' gate")
        bad = [(c["norm_index"], c["lambda"]) for c in rep["cells"]
               if c["verdict"] == "violated"]
        if bad:
            problems.append(f"violated weak-concentration cells {bad}")
        if len(rep["cells"]) != 3 * len(WB_LAMBDAS):
            problems.append(f"{len(rep['cells'])} cells, expected {3 * len(WB_LAMBDAS)}")
        factors = [spec["factor"] for spec in rep["norms"]]
        for i, p1 in enumerate(rep["p1"]):
            t = 1.0 / factors[i]
            problems += _mc_cell(f"norm {i} P(|S| > {t:g})", p1,
                                 *ref.levy_bracket(PARETO_EXPONENT, 3, t))
        for c in rep["cells"]:
            t = c["lambda"] / factors[c["norm_index"]]
            problems += _mc_cell(f"norm {c['norm_index']} P(|S| > {t:g})",
                                 c["p_lambda"],
                                 *ref.levy_bracket(PARETO_EXPONENT, 3, t))
        return problems

    def check_counterexample(self, result):
        rep = _report(result)
        problems = []
        if rep["method"] != "mc":
            problems.append(f"method {rep['method']!r}, expected 'mc'")
        if result["exit"] not in (2, 3):
            problems.append(f"exit code {result['exit']}, expected 2 or 3")
        if [r["n"] for r in rep["rows"]] != STABLE_N_GRID:
            problems.append("rows do not follow the n grid")
        problems += _mc_cell("P(|X| > 1)", {"value": rep["rows"][0]["lhs"],
                                            "samples": STABLE_BUDGET},
                             ref.stable_two_sided_tail(STABLE_INDEX, 1.0))
        for r in rep["rows"]:
            t = r["n"] ** (1.0 / STABLE_INDEX - 1.0) / rep["lambda"]
            if r["lhs"] != rep["rows"][0]["lhs"]:
                problems.append(f"row n={r['n']}: lhs differs from the first row")
            problems += _mc_cell(f"row n={r['n']} P(|X| > {t:g})",
                                 {"value": r["rhs"] / rep["kappa"],
                                  "samples": STABLE_BUDGET},
                                 ref.stable_two_sided_tail(STABLE_INDEX, t))
        return problems


# ---------------------------------------------------------------------------
# 3. exact-sums


def _mixture_pair(rng, n):
    b = np.sort(rng.standard_normal(n))[::-1]
    w = rng.random(int(rng.integers(2, 5)))
    w /= w.sum()
    a = np.zeros(n)
    for wi in w:
        a += wi * rng.permutation(b)
    return a, b


def _check_mixture(a, b, mix):
    n = len(a)
    terms = mix.to_json()["terms"]
    weights = np.array([t["weight"] for t in terms])
    perms = [t["permutation"] for t in terms]
    problems = []
    if any(sorted(p) != list(range(n)) for p in perms):
        problems.append("a term is not a permutation")
    if len(terms) > (n - 1) ** 2 + 1:
        problems.append(f"{len(terms)} terms exceed (n-1)^2+1")
    if weights.min() < -1e-12 or abs(weights.sum() - 1.0) > 1e-12:
        problems.append("weights are not a probability vector")
    recon = sum(w * np.asarray(b)[p] for w, p in zip(weights, perms))
    err = float(np.max(np.abs(recon - a)))
    if err > 1e-9:
        problems.append(f"reconstruction error {err:.3g}")
    return problems


class ExactSums(Workload):
    """Enumeration only: exact sum laws, sign patterns, Birkhoff extraction."""

    name = "exact-sums"
    threads = 1

    def prepare(self):
        family_seed = int(self.rng.integers(0, 2**31))
        norms = domlab.random_norm_family(family_seed, 2, EXACT_FAMILY_SIZE)
        self.add_config("square-tensorize", {
            "kind": "tensorize", "seed": int(self.rng.integers(0, 2**31)),
            "pairs": [{"x": _finite(_SQUARE, 0.5), "y": _finite(_SQUARE)}
                      for _ in range(EXACT_SUMMANDS)],
            "kappa": 1.0, "lambda": 1.0, "alpha": 1.0,
            "norms": {"random": {"seed": family_seed, "dimension": 2,
                                 "size": EXACT_FAMILY_SIZE}},
            "estimator": {"kind": "exact"}}, self.check_tensorize)
        self._add_proxy(norms[3])
        self._add_signs(norms)
        self._add_decompose()
        self._add_catalog()

    # -- exact tensorisation on (1/2 R, R) -----------------------------

    def check_tensorize(self, result):
        rep = _report(result)
        problems = _check_domination_records(rep, EXACT_FAMILY_SIZE)
        atoms, probs = ref.rademacher_square_sum(EXACT_SUMMANDS)
        for r in rep["records"]:
            vals = ref.norm_values(r["norm"], atoms)
            for label, est, v, t in (("P(|X| > 1)", r["px"], 0.5 * vals, 1.0),
                                     ("P(lambda |Y| > 1)", r["py"], vals,
                                      1.0 / rep["lambda"])):
                bracket = ref.exact_tail_bracket(v, probs, t)
                if not est["exact"] or not ref.within_bracket(est["value"], bracket):
                    problems.append(f"norm {r['index']} {label}: {est['value']!r} "
                                    f"outside exact {bracket}")
        return problems

    # -- proxy sandwich on a 4^8-outcome law ---------------------------

    def _add_proxy(self, norm):
        pairs = self.rng.standard_normal((PROXY_COMPONENTS, 2, 2)) * 0.45
        weights = self.rng.uniform(0.2, 0.8, PROXY_COMPONENTS)
        law = domlab.ProductLaw(tuple(
            domlab.FiniteSupportDist.symmetric_pairs(pairs[i],
                                                     [weights[i], 1.0 - weights[i]])
            for i in range(PROXY_COMPONENTS)))
        spec = domlab.norm_to_spec(norm)

        def check(result):
            lower, upper = result
            probs, tables = ref.four_atom_sum_tables(pairs, weights, spec)
            proxy = ref.four_atom_proxy(probs, tables)
            above = [PROXY_ALPHA * p
                     for p in ref.four_atom_tail(probs, tables, 1.0 + PROXY_ALPHA)]
            one = [16.0 * p for p in ref.four_atom_tail(probs, tables, 1.0)]
            problems = []
            for label, got, bracket in (("alpha P(|S| > 1 + alpha)", lower.lhs, above),
                                        ("proxy", lower.rhs, (proxy, proxy)),
                                        ("proxy", upper.lhs, (proxy, proxy)),
                                        ("16 P(|S| > 1)", upper.rhs, one)):
                if not ref.within_bracket(got, bracket):
                    problems.append(f"proxy sandwich {label}: {got!r} outside {bracket}")
            if not (lower.holds and upper.holds):
                problems.append("proxy sandwich reported violated")
            return problems

        self.add_call("proxy-bound-4^8",
                      lambda: domlab.proxy_bound_check(law, norm, PROXY_ALPHA), check)

    # -- sign verifiers, 16 to 20 summands -----------------------------

    def _add_signs(self, norms):
        for k, n in enumerate(SIGN_SIZES):
            vectors = self.rng.standard_normal((n, 2)) / math.sqrt(n)
            norm = norms[k % len(norms)]
            inst = domlab.SignInstance(vectors, norm)
            spec = domlab.norm_to_spec(norm)
            cache = {}

            def brute(vectors=vectors, spec=spec, cache=cache):
                if "norms" not in cache:
                    cache["norms"] = ref.sign_norms(spec, vectors)
                return cache["norms"]

            def kahane_check(rep, brute=brute):
                v = brute()
                lhs = ref.sign_tail(v, 2 * SIGN_LEVEL)
                a, b = ref.sign_tail(v, SIGN_LEVEL)
                return _slack_problems("kahane", rep, lhs, (4 * a * a, 4 * b * b))

            def l1l2_check(rep, brute=brute):
                v = brute()
                m1, m2 = float(v.mean()), float((v * v).mean())
                return _slack_problems("l1l2", rep, (m2, m2),
                                       (2 * m1 * m1, 2 * m1 * m1))

            def pz_check(rep, brute=brute):
                v = brute()
                bound = 0.5 * (1.0 - SIGN_LEVEL) ** 2
                return _slack_problems("paley_zygmund", rep, (bound, bound),
                                       ref.sign_tail(v, SIGN_LEVEL * float(v.mean())))

            self.add_call(f"kahane-n{n}", lambda inst=inst: domlab.verify_kahane(
                inst, s=SIGN_LEVEL, t=SIGN_LEVEL), kahane_check)
            self.add_call(f"l1l2-n{n}", lambda inst=inst: domlab.verify_L1L2(inst),
                          l1l2_check)
            self.add_call(f"pz-n{n}", lambda inst=inst: domlab.verify_PZ(
                inst, theta=SIGN_LEVEL), pz_check)

    # -- Birkhoff extraction -------------------------------------------

    def _add_decompose(self):
        # The n = 8 and 12 pairs do not follow the seed: mixture pairs hit
        # the extraction fault on some seeds (3 of 600 at n = 8, 41 of 600
        # at n = 12), and a failure share that moves with the seed cannot
        # be compared between runs.  These pairs pass today.
        for n in DECOMPOSE_SIZES:
            for i in range(DECOMPOSE_PER_SIZE):
                a, b = _mixture_pair(np.random.default_rng([1000 + n, i]), n)
                self.add_call(f"decompose-n{n}-{i}",
                              lambda a=a, b=b: domlab.decompose(a, b),
                              lambda mix, a=a, b=b: _check_mixture(a, b, mix))
        for i in range(FAULT_PAIRS):
            b = np.random.default_rng(3000 + i).random(FAULT_N)
            b /= b.sum()
            a = np.full(FAULT_N, 1.0 / FAULT_N)
            self.add_call(f"decompose-n{FAULT_N}-uniform-{i}",
                          lambda a=a, b=b: domlab.decompose(a, b),
                          lambda mix, a=a, b=b: _check_mixture(a, b, mix),
                          expect_fail=True)

    # -- the nine catalog configs --------------------------------------

    def _add_catalog(self):
        # At 1-70 ms each the catalog configs are too short to time alone;
        # they ride here, once per pass, so CLI overhead shows in wall_s.
        code, out = quiet(["list-experiments"])
        if code != 0:
            raise RuntimeError("domlab list-experiments failed")
        for entry in json.loads(out):
            self.add_config(f"catalog-{entry['name']}", entry["config"],
                            _check_catalog)


def _slack_problems(name, rep, lhs, rhs):
    problems = []
    if rep.name != name or not rep.holds:
        problems.append(f"{name}: reported {rep.name} holds={rep.holds}")
    if not ref.within_bracket(rep.lhs, lhs):
        problems.append(f"{name} lhs {rep.lhs!r} outside {lhs}")
    if not ref.within_bracket(rep.rhs, rhs):
        problems.append(f"{name} rhs {rep.rhs!r} outside {rhs}")
    return problems


def _check_catalog(result):
    rep = _report(result)
    if rep.get("expected_violation"):
        return [] if result["exit"] == 2 else [f"exit {result['exit']}, expected 2"]
    text = json.dumps(rep)
    problems = []
    if '"violated"' in text or '"holds": false' in text:
        problems.append("a record is violated")
    if result["exit"] != 0:
        problems.append(f"exit {result['exit']}, expected 0")
    return problems


WORKLOADS = {w.name: w for w in (McNormFamily, McHeavyTail, ExactSums)}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate and validate every input of one workload."""
    os.makedirs(workdir, exist_ok=True)
    w = WORKLOADS[name](seed, workdir)
    w.prepare()
    return w


class Runner:
    """Runs whole passes of a workload and checks every output.

    Every operation runs inside a guard: an exception or an exit code of
    1 counts it as failed, its message goes to standard error, and the
    pass goes on.  Outputs are checked against the references on the first
    pass and must then repeat byte for byte.
    """

    def __init__(self, workload: Workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}

    def run(self, seconds: float):
        """Whole passes until ``seconds`` have gone; the time of each."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.one_pass())
        return times

    def one_pass(self) -> float:
        outcomes = []
        started = time.perf_counter()
        for op in self.w.ops:
            try:
                outcomes.append((op, op.run(), None))
            except Exception as exc:  # counted and reported; the run goes on
                outcomes.append((op, None, exc))
        elapsed = time.perf_counter() - started
        for op, result, exc in outcomes:
            self.attempted += 1
            if exc is None:
                self.verify(op, result)
                continue
            self.failed += 1
            if op.expect_fail:
                log(f"known fault: {op.name}: {type(exc).__name__}: {exc}")
            else:
                log(f"FAILED: {op.name}:\n" + "".join(traceback.format_exception(exc)))
        return elapsed

    def verify(self, op: Op, result):
        key = digest(summarise(op, result))
        if op.name not in self.first:
            self.first[op.name] = key
            try:
                problems = op.check(result)
            except Exception as exc:  # an output the check cannot read is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.problems += [f"{op.name}: {p}" for p in problems]
        elif self.first[op.name] != key:
            self.problems.append(f"{op.name}: output changed between passes")


def summarise(op: Op, result):
    """A byte string that must repeat exactly from pass to pass."""
    if op.kind == "cli":
        return result["report"]
    if isinstance(result, tuple):
        return json.dumps([r.to_json() for r in result], sort_keys=True).encode()
    return json.dumps(result.to_json(), sort_keys=True).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)
