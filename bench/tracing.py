"""Traced mode: spans around domlab's public functions, from outside.

``install`` replaces every public function of the ten domlab modules at
every name it is looked up under (its own module, each module that
imported it, and the package namespace), and the ``evaluate`` method of
the five norm classes.  Each call records a span (name, thread, start,
end, parent) in memory; counters are taken at the same boundaries.  A
span's self time is its duration minus the time of the traced calls
beneath it, so ``ScaledNorm.evaluate`` excludes its inner norm and
``cli.run_config`` excludes the library calls it makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("rng", "distributions", "geometry", "stats", "inequalities",
           "dominance", "weakborell", "majorisation", "config", "cli")

NORM_CLASSES = {"LpNorm": "lp", "WeightedLpNorm": "weighted_lp",
                "EllipsoidNorm": "ellipsoid", "PolytopeGauge": "polytope_gauge",
                "ScaledNorm": "scaled"}
SAMPLE_FAMILIES = ("gaussian", "pareto_tail", "symmetric_stable")

# Calls nested inside a call of the same group count once, at the outside.
GROUPS = {
    "distributions.enumerate_product": "enumerate",
    "distributions.enumerate_sum": "enumerate",
    "inequalities.sign_tail_exact": "sign",
    "inequalities.sign_mean_exact": "sign",
    "inequalities.signed_mean_over_outcomes": "sign",
    "dominance.proxy_exact": "proxy",
    "dominance.proxy_mc": "proxy",
    "dominance.proxy_bound_check": "proxy",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)   # outermost calls of a group only
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)
        self.failed = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._batches = {}
        self._batch_ids = itertools.count()
        self._norm_points = set()
        self._laws = set()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        group = GROUPS.get(name, "evaluate" if ".evaluate." in name else name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            outer = all(f["group"] != group for f in stack)
            frame = {"id": next(tracer._ids), "group": group, "children": 0.0}
            stack.append(frame)
            result, ok = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent["children"] += end - start
                tracer._record(name, frame, parent, start, end, outer, ok,
                               args, kwargs, result)

        return traced

    def _record(self, name, frame, parent, start, end, outer, ok, args, kwargs, result):
        with self._lock:
            self.spans.append((frame["id"], None if parent is None else parent["id"],
                               name, threading.get_ident(), start, end))
            self.calls[name] += 1
            self.self_time[name] += end - start - frame["children"]
            if outer:
                self.inclusive[name] += end - start
            if not ok:
                self.failed[name] += 1
                return
            self._count(name, outer, end - start, args, kwargs, result)

    def _count(self, name, outer, duration, args, kwargs, result):
        c = self.count
        if ".evaluate." in name:
            x = args[1] if len(args) > 1 else kwargs["x"]
            points = np.shape(x)[0] if np.ndim(x) == 2 else 1
            c["points." + name] += points
            if outer:
                c["points.outer"] += points
                pair = (self._batch(x), id(args[0]))
                if pair[0] is None or pair not in self._norm_points:
                    self._norm_points.add(pair)
                    c["points.distinct"] += points
        elif name == "distributions.sample":
            source = args[0]
            count = args[1] if len(args) > 1 else kwargs["count"]
            family = getattr(source, "family", "finite")
            c["sample_s." + family] += duration
            c["vectors_sampled"] += count
        elif name == "rng.seed_sequence":
            c["substreams"] += 1
        elif outer and name.startswith("distributions.enumerate_"):
            c["enumerations"] += 1
            c["atoms"] += len(result[1])
            try:
                self._laws.add(hash(args[0]))
            except TypeError:
                self._laws.add(id(args[0]))
        elif outer and name in ("inequalities.sign_tail_exact",
                                "inequalities.sign_mean_exact"):
            c["sign_patterns"] += 1 << (args[0].n - 1)
        elif outer and name == "inequalities.signed_mean_over_outcomes":
            m, n, _ = np.shape(args[0])
            c["sign_patterns"] += m << (n - 1)
        elif name == "majorisation.decompose":
            c["decompose_terms"] += len(result.terms)

    def _batch(self, x):
        """A serial number per live input array; None when it cannot be told."""
        if not isinstance(x, np.ndarray):
            return None
        entry = self._batches.get(id(x))
        if entry is not None and entry[0]() is x:
            return entry[1]
        serial = next(self._batch_ids)
        self._batches[id(x)] = (weakref.ref(x), serial)
        return serial

    # -- results ---------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics; times and counts are per traced pass."""
        c = self.count
        out = {}

        def total(name, value, unit):
            out[name] = {"value": float(value) / passes, "unit": unit}

        def ratio(name, num, den, unit="ratio"):
            out[name] = {"value": float(num) / den if den else 0.0, "unit": unit}

        for variant in NORM_CLASSES.values():
            name = f"geometry.evaluate.{variant}"
            total(f"geometry.self_s.{variant}", self.self_time[name], "s")
            ratio(f"geometry.ns_per_point.{variant}", 1e9 * self.self_time[name],
                  c["points." + name], "ns")
        ratio("geometry.evals_per_norm_point", c["points.outer"], c["points.distinct"])
        for fam in SAMPLE_FAMILIES:
            total(f"distributions.sample_s.{fam}", c["sample_s." + fam], "s")
        total("distributions.vectors_sampled", c["vectors_sampled"], "count")
        total("distributions.enumerate_s", self._group_inclusive("enumerate"), "s")
        total("distributions.atoms_enumerated", c["atoms"], "count")
        ratio("distributions.enumerations_per_law", c["enumerations"], len(self._laws))
        total("rng.substreams", c["substreams"], "count")
        total("dominance.tail_probability_calls",
              self.calls["dominance.tail_probability"], "count")
        total("dominance.tail_probability_self_s",
              self.self_time["dominance.tail_probability"], "s")
        total("dominance.proxy_s", self._group_inclusive("proxy"), "s")
        total("inequalities.sign_patterns", c["sign_patterns"], "count")
        total("inequalities.sign_enum_s", self._group_inclusive("sign"), "s")
        total("stats.clopper_pearson_calls", self.calls["stats.clopper_pearson"], "count")
        total("stats.clopper_pearson_s", self.inclusive["stats.clopper_pearson"], "s")
        total("weakborell.check_wb_s", self.inclusive["weakborell.check_wb"], "s")
        total("majorisation.decompose_s", self.inclusive["majorisation.decompose"], "s")
        total("majorisation.decompose_terms", c["decompose_terms"], "count")
        total("majorisation.decompose_failed", self.failed["majorisation.decompose"],
              "count")
        total("config.validate_s", self.inclusive["config.validate_config"], "s")
        total("cli.self_s", self.self_time["cli.run_config"], "s")
        return out

    def _group_inclusive(self, group):
        return sum(self.inclusive[n] for n, g in GROUPS.items() if g == group)

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span_id, parent, name, thread, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "thread": thread, "start": start,
                                     "end": end}) + "\n")


def install(tracer: Tracer):
    """Wrap domlab's public functions and norm evaluators in place."""
    import domlab

    modules = {m: importlib.import_module(f"domlab.{m}") for m in MODULES}
    holders = [domlab, *modules.values()]
    for short, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            traced = tracer.wrap(f"{short}.{attr}", fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
    geometry = modules["geometry"]
    for cls, variant in NORM_CLASSES.items():
        klass = getattr(geometry, cls)
        klass.evaluate = tracer.wrap(f"geometry.evaluate.{variant}", klass.evaluate)
