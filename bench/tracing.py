"""Traced runs: spans and counters recorded around delpezzo's public API.

The wrappers live here, not in the library.  ``instrument`` replaces
functions and methods by module-attribute patching -- in every delpezzo
module that holds a reference to the original -- so calls the library
makes internally are caught as well; ``Tracer.uninstall`` restores the
originals.  A span is (name, start, end, parent span, op id); spans stay
in memory in flat arrays and are written out when the run ends.  A span's
self time is its duration minus the durations of its direct children
(spans nest, since everything runs in one thread).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# spans reported as {calls, ms}; the quotient profile reports self time
TIMED = [
    "plane_action.close_group", "plane_action.fixed_locus",
    "plane_action.classify_stabilizer", "cyclotomic.reduce_conductor",
    "cyclotomic.as_root_of_unity", "fpgroups.coset_enumerate",
    "fpgroups.smith_normal_form", "classifier.enumerate_quotients",
    "classifier.theorem1_report", "surfaces.parse_poly",
    "surfaces.cone_singular_points", "lattice.recognize_dynkin", "lattice.blow_down",
]
COUNTS = [
    "plane_action.points_built", "plane_action.point_eq_calls",
    "plane_action.group_elements", "plane_action.orbits_found",
    "cyclotomic.numbers_built", "cyclotomic.mul_calls", "cyclotomic.inverse_calls",
    "fpgroups.cosets_defined", "fpgroups.coincidences", "fpgroups.bound_exceeded",
    "classifier.hypotheses_tried", "surfaces.resultants", "surfaces.indeterminate",
]
STARTUP_MODULES = ["delpezzo", "cyclotomic", "lattice", "fpgroups", "plane_action",
                   "surfaces", "classifier", "cli"]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"startup.python_ms": "ms", "startup.import_ms": "ms"}
    units.update({f"startup.import.{m}_ms": "ms" for m in STARTUP_MODULES})
    units.update({"cli.main.calls": "count", "cli.self_ms": "ms",
                  "plane_action.quotient_profile.calls": "count",
                  "plane_action.quotient_profile.self_ms": "ms"})
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
    units.update({name: "count" for name in COUNTS})
    units.update({"fpgroups.coset_useful_ratio": "ratio",
                  "classifier.hypotheses_passed_ratio": "ratio",
                  "trace.overhead_ratio": "ratio"})
    return units


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.current_op = -1
        self.counts = Counter()
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name, fn, after=None, on_error=None):
        """fn wrapped in a span; after(result) / on_error(exc) update counters."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if after:
                after(result)
            return result
        return wrapper

    def counted(self, key, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after:
                after(result)
            return result
        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr, wrapper_factory):
        """Replace owner.attr (a module function or a class attribute) and
        every other delpezzo module attribute bound to the same object."""
        original = owner.__dict__[attr]
        wrapped = wrapper_factory(original)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [m for n, m in sys.modules.items()
                        if n.startswith("delpezzo") and m is not owner]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._patched.append((target, name, value))
                    setattr(target, name, wrapped)

    def uninstall(self):
        for target, name, value in reversed(self._patched):
            setattr(target, name, value)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def dump(self):
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist(),
                "counts": dict(self.counts)}

    def merge(self, dump, op):
        """Append the spans and counters another process recorded for op."""
        base = len(self.start)
        ids = [self._name_id(n) for n in dump["names"]]
        self.name.extend(ids[i] for i in dump["name"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in dump["parent"])
        self.op.extend(op for _ in dump["op"])
        self.counts.update(dump["counts"])

    def totals(self):
        """{span name: [calls, total seconds, self seconds]}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def layer_metrics(self):
        """The per-layer metrics that come from spans and counters."""
        totals = self.totals()
        counts = self.counts

        def row(name):
            return totals.get(name, [0, 0.0, 0.0])

        out = {"cli.main.calls": row("cli.main")[0],
               "cli.self_ms": row("cli.main")[2] * 1e3,
               "plane_action.quotient_profile.calls": row("plane_action.quotient_profile")[0],
               "plane_action.quotient_profile.self_ms": row("plane_action.quotient_profile")[2] * 1e3}
        for name in TIMED:
            out[f"{name}.calls"] = row(name)[0]
            out[f"{name}.ms"] = row(name)[1] * 1e3
        for name in COUNTS:
            out[name] = counts[name]
        defined = counts["fpgroups.cosets_defined"]
        out["fpgroups.coset_useful_ratio"] = (
            counts["fpgroups.final_order"] / defined if defined else 0.0)
        tried = counts["classifier.hypotheses_tried"]
        out["classifier.hypotheses_passed_ratio"] = (
            counts["classifier.hypotheses_passed"] / tried if tried else 0.0)
        return out

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, **self.dump()}, fh)


def instrument(t: Tracer):
    """Install every wrapper the per-layer metrics need."""
    from delpezzo import classifier, cli, cyclotomic, fpgroups, lattice, plane_action, surfaces

    count = t.counts

    def span(owner, attr, name, **hooks):
        t.patch(owner, attr, lambda fn: t.spanned(name, fn, **hooks))

    def counter(owner, attr, key, after=None):
        t.patch(owner, attr, lambda fn: t.counted(key, fn, after))

    # cli: main minus its cmd_* children is argparse plus the JSON emit
    span(cli, "main", "cli.main")
    for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
        span(cli, attr, f"cli.{attr}")

    span(plane_action, "close_group", "plane_action.close_group",
         after=lambda g: count.update({"plane_action.group_elements": g.order}))
    span(plane_action, "fixed_locus", "plane_action.fixed_locus")
    span(plane_action, "classify_stabilizer", "plane_action.classify_stabilizer")
    span(plane_action, "quotient_profile", "plane_action.quotient_profile")
    counter(plane_action.ProjectivePoint, "__init__", "plane_action.points_built")
    counter(plane_action.ProjectivePoint, "__eq__", "plane_action.point_eq_calls")
    counter(plane_action.OrbitData, "__init__", "plane_action.orbits_found")

    number = cyclotomic.CyclotomicNumber
    span(number, "reduce_conductor", "cyclotomic.reduce_conductor")
    span(number, "as_root_of_unity", "cyclotomic.as_root_of_unity")
    counter(number, "__init__", "cyclotomic.numbers_built")
    counter(number, "__mul__", "cyclotomic.mul_calls")      # also patches its alias __rmul__
    counter(number, "inverse", "cyclotomic.inverse_calls")

    def enumerated(order):
        count["fpgroups.final_order"] += order

    def enumeration_failed(exc):
        if isinstance(exc, fpgroups.CosetBoundExceeded):
            count["fpgroups.bound_exceeded"] += 1

    def define(fn):
        def wrapper(*args, **kwargs):
            coset = fn(*args, **kwargs)                 # raises at the bound
            count["fpgroups.cosets_defined"] += 1
            return coset
        return functools.wraps(fn)(wrapper)

    span(fpgroups, "coset_enumerate", "fpgroups.coset_enumerate",
         after=enumerated, on_error=enumeration_failed)
    span(fpgroups, "smith_normal_form", "fpgroups.smith_normal_form")
    counter(fpgroups.CosetTable, "__init__", "fpgroups.cosets_defined")   # its coset 0
    t.patch(fpgroups.CosetTable, "define", define)

    def merge(fn):
        def wrapper(self, a, b, queue):
            if self.find(a) != self.find(b):
                count["fpgroups.coincidences"] += 1
            return fn(self, a, b, queue)
        return functools.wraps(fn)(wrapper)

    t.patch(fpgroups.CosetTable, "_merge", merge)

    def verdict(v):
        if v.ok:
            count["classifier.hypotheses_passed"] += 1

    span(classifier, "enumerate_quotients", "classifier.enumerate_quotients")
    span(classifier, "theorem1_report", "classifier.theorem1_report")
    counter(classifier, "cover_filter", "classifier.hypotheses_tried", after=verdict)

    def singular(points):
        if isinstance(points, surfaces.Indeterminate):
            count["surfaces.indeterminate"] += 1

    span(surfaces, "parse_poly", "surfaces.parse_poly")
    span(surfaces, "cone_singular_points", "surfaces.cone_singular_points", after=singular)
    counter(surfaces, "sylvester_resultant", "surfaces.resultants")

    span(lattice, "recognize_dynkin", "lattice.recognize_dynkin")
    span(lattice, "blow_down", "lattice.blow_down")

