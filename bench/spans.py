"""Span tracer for the benchmark's traced run.

The tracer rebinds named public functions and methods of ``mosva`` with
timing wrappers, in every ``mosva`` module that holds a reference to them,
and puts the originals back on ``uninstall``.  Nothing under ``src/`` is
edited.  Every call records a span (name, start, end, parent span) in
compact arrays kept in memory; ``write`` stores them when the run ends.

Self time is a span's duration minus the time covered by its child spans.
Counts (calls, inexact mode applications, certified reconstructions, ...)
are exact: two traced runs of the same inputs give identical counts.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# metric name -> unit, in the order they are reported; ``.s`` metrics are
# inclusive time, ``.self_s`` exclusive time.  ``factory.*`` sum every
# ``build_heisenberg`` call of the traced set-up: one library call on
# ``suite`` and ``correlators``, the two CLI ``example`` builds on
# ``roundtrip``.
PER_LAYER = {
    "factory.build_heisenberg.s": "s",
    "factory.entries": "count",
    "vertex.mode_apply.calls": "count",
    "vertex.mode_apply.self_s": "s",
    "vertex.mode_apply.inexact_ratio": "ratio",
    "vertex.basis_entry.calls": "count",
    "vertex.basis_entry.self_s": "s",
    "graded.vec_add.calls": "count",
    "graded.vec_add.self_s": "s",
    "graded.op_apply.calls": "count",
    "graded.op_apply.self_s": "s",
    "graded.op_power_apply.self_s": "s",
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.taylor_shift.calls": "count",
    "laurent.taylor_shift.self_s": "s",
    "expansion.expand_rational.product.calls": "count",
    "expansion.expand_rational.product.self_s": "s",
    "expansion.expand_rational.iterate.calls": "count",
    "expansion.expand_rational.iterate.self_s": "s",
    "correlators.correlate.product.calls": "count",
    "correlators.correlate.product.self_s": "s",
    "correlators.correlate.iterate.calls": "count",
    "correlators.correlate.iterate.self_s": "s",
    "correlators.truncation_pole_orders.self_s": "s",
    "correlators.estimate_pole_orders.calls": "count",
    "correlators.estimate_pole_orders.self_s": "s",
    "correlators.estimate_pole_orders.trials_per_call": "trials/call",
    "correlators.reconstruct_rational.calls": "count",
    "correlators.reconstruct_rational.self_s": "s",
    "correlators.reconstruct_rational.certified_ratio": "ratio",
    "constructions.opposite_mosva.self_s": "s",
    "constructions.transport_module.self_s": "s",
    "constructions.contragredient_module.self_s": "s",
    "constructions.opposite_vertex_components.calls": "count",
    "constructions.opposite_vertex_components.self_s": "s",
    "checks.check_vacuum.self_s": "s",
    "checks.check_derivative.self_s": "s",
    "checks.check_grading.self_s": "s",
    "checks.check_mobius.self_s": "s",
    "checks.check_weak_associativity.self_s": "s",
    "checks.check_weak_associativity.compared": "count",
    "checks.check_region_consistency.self_s": "s",
    "document.serialize.s": "s",
    "document.deserialize.s": "s",
    "cli.main.example.s": "s",
    "cli.main.check.s": "s",
    "cli.main.oppose.s": "s",
    "cli.main.transport.s": "s",
    "cli.main.contragredient.s": "s",
    "trace.overhead_s": "s",
}


def _expand_variant(args, kwargs):
    region = args[1] if len(args) > 1 else kwargs["region"]
    return "iterate" if region.kind == "iterate" else "product"


def _correlate_variant(args, kwargs):
    return args[4] if len(args) > 4 else kwargs.get("mode", "product")


def _cli_variant(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


class Tracer:
    """Wraps mosva entry points; spans live in arrays until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_trial_certified = False
        self._callers: dict = {}
        self.origin = time.perf_counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def _wrapper(self, fn, name, variant=None, after=None):
        tracer = self
        stack = self._stack
        names_add, parents_add = self.span_name.append, self.span_parent.append
        starts_add, ends_add = self.span_start.append, self.span_end.append
        ends, calls, selfs, totals = self.span_end, self.calls, self.self_s, self.total_s
        perf = time.perf_counter
        fixed = None if variant else self._id(name)

        def traced(*args, **kwargs):
            nid = fixed if variant is None else tracer._id(
                f"{name}.{variant(args, kwargs)}")
            idx = len(ends)
            frame = [idx, 0.0, nid]
            parents_add(stack[-1][0] if stack else -1)
            names_add(nid)
            ends_add(0.0)
            stack.append(frame)
            t0 = perf()
            starts_add(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                selfs[nid] += dur - frame[1]
                totals[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(out)
            return out

        return traced

    def call(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span the benchmark opens itself."""
        caller = self._callers.get(name)
        if caller is None:
            caller = self._callers[name] = self._wrapper(lambda f, *a: f(*a), name)
        return caller(fn, *args)

    # -- counters read from results -------------------------------------

    def _after_mode_apply(self, out):
        if not out[1]:
            self.counts["vertex.mode_apply.inexact"] += 1

    def _after_reconstruct(self, out):
        if out.certified:
            self.counts["correlators.reconstruct_rational.certified"] += 1
        stack = self._stack
        if stack and stack[-1][2] == self._ids.get("correlators.estimate_pole_orders"):
            self.counts["correlators.estimate_pole_orders.trials"] += 1
            self._last_trial_certified = out.certified

    def _after_estimate(self, out):
        if self._last_trial_certified:
            self.counts["correlators.estimate_pole_orders.certified"] += 1
        self._last_trial_certified = False

    def _after_assoc(self, out):
        self.counts["checks.check_weak_associativity.compared"] += out.compared

    def _after_build(self, out):
        self.counts["factory.entries"] += len(out[0].Y.entries)

    # -- installation -----------------------------------------------------

    def _targets(self):
        from mosva import (checks, cli, constructions, correlators, document,
                           expansion, factory, graded, laurent, vertex)
        funcs = [
            (factory, "build_heisenberg", "factory.build_heisenberg", None, self._after_build),
            (factory, "with_scaled_entry", "factory.with_scaled_entry", None, None),
            (vertex, "mode_apply", "vertex.mode_apply", None, self._after_mode_apply),
            (vertex, "validate_instance", "vertex.validate_instance", None, None),
            (graded, "op_power_apply", "graded.op_power_apply", None, None),
            (laurent, "taylor_shift", "laurent.taylor_shift", None, None),
            (expansion, "expand_rational", "expansion.expand_rational", _expand_variant, None),
            (correlators, "correlate", "correlators.correlate", _correlate_variant, None),
            (correlators, "truncation_pole_orders", "correlators.truncation_pole_orders", None, None),
            (correlators, "estimate_pole_orders", "correlators.estimate_pole_orders", None,
             self._after_estimate),
            (correlators, "reconstruct_rational", "correlators.reconstruct_rational", None,
             self._after_reconstruct),
            (constructions, "opposite_mosva", "constructions.opposite_mosva", None, None),
            (constructions, "transport_module", "constructions.transport_module", None, None),
            (constructions, "contragredient_module", "constructions.contragredient_module",
             None, None),
            (constructions, "opposite_vertex_components",
             "constructions.opposite_vertex_components", None, None),
            (checks, "run_suite", "checks.run_suite", None, None),
            (checks, "check_vacuum", "checks.check_vacuum", None, None),
            (checks, "check_derivative", "checks.check_derivative", None, None),
            (checks, "check_grading", "checks.check_grading", None, None),
            (checks, "check_mobius", "checks.check_mobius", None, None),
            (checks, "check_weak_associativity", "checks.check_weak_associativity", None,
             self._after_assoc),
            (checks, "check_region_consistency", "checks.check_region_consistency", None, None),
            (document, "serialize", "document.serialize", None, None),
            (document, "deserialize", "document.deserialize", None, None),
            (cli, "main", "cli.main", _cli_variant, None),
        ]
        methods = [
            (vertex.VertexMap, "basis_entry", "vertex.basis_entry"),
            (graded._Entries, "add", "graded.vec_add"),
            (graded.GradedOp, "apply", "graded.op_apply"),
            (laurent.LaurentPoly, "__mul__", "laurent.mul"),
        ]
        return funcs, methods

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        funcs, methods = self._targets()
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "mosva" or n.startswith("mosva."))]
        for home, attr, name, variant, after in funcs:
            orig = getattr(home, attr)
            wrapped = self._wrapper(orig, name, variant, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for cls, attr, name in methods:
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrapper(orig, name))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results ------------------------------------------------------------

    def _stat(self, name, kind):
        nid = self._ids.get(name)
        if nid is None:
            return 0 if kind == "calls" else 0.0
        return {"calls": self.calls, "self_s": self.self_s, "s": self.total_s}[kind][nid]

    def metrics(self, overhead_s: float) -> dict:
        c = self.counts
        mode_calls = self._stat("vertex.mode_apply", "calls")
        rec_calls = self._stat("correlators.reconstruct_rational", "calls")
        est_certified = c["correlators.estimate_pole_orders.certified"]
        ratios = {
            "vertex.mode_apply.inexact_ratio":
                c["vertex.mode_apply.inexact"] / mode_calls if mode_calls else 0.0,
            "correlators.reconstruct_rational.certified_ratio":
                c["correlators.reconstruct_rational.certified"] / rec_calls
                if rec_calls else 0.0,
            "correlators.estimate_pole_orders.trials_per_call":
                c["correlators.estimate_pole_orders.trials"] / est_certified
                if est_certified else 0.0,
            "factory.entries": c["factory.entries"],
            "checks.check_weak_associativity.compared":
                c["checks.check_weak_associativity.compared"],
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for metric, unit in PER_LAYER.items():
            if metric in ratios:
                value = ratios[metric]
            else:
                base, kind = metric.rsplit(".", 1)
                value = self._stat(base, kind)
            out[metric] = {"value": value, "unit": unit}
        return out

    def counts_only(self) -> dict:
        """Every exact count: calls per span name and the result counters."""
        out = {f"{n}.calls": self.calls[i] for i, n in enumerate(self.names)}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write(self, stem: str):
        """Spans as packed arrays in ``stem.bin`` (names int32, parents int32,
        starts float64, ends float64, each ``spans`` long) and their index
        in ``stem.json``; times are seconds since the tracer was made."""
        n = len(self.span_end)
        starts = array("d", (t - self.origin for t in self.span_start))
        ends = array("d", (t - self.origin for t in self.span_end))
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, starts, ends):
                arr.tofile(fh)
        header = {"spans": n, "names": self.names,
                  "layout": ["name:int32", "parent:int32", "start:float64",
                             "end:float64"],
                  "counts": self.counts_only()}
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
