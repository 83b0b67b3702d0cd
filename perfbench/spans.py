"""Spans around morsebook's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in its
own module and in every morsebook module that imported it by name, so
calls made through either name are seen; nothing under ``src/`` is
edited.  Each call records a span (name, parent span, operation, start,
end) in flat arrays kept in memory; ``write`` saves them when the run
ends and ``layer_metrics`` derives calls and self time per operation
from them.  A few hot geometry helpers are only counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# module -> functions that get a span each
SPANNED = {
    "cli": ("main",),
    "fileio": ("parse_workspace", "front_doc"),
    "diagram": ("validate_diagram", "propagate_labels", "h1_presentation"),
    "abelian": ("smith_normal_form",),
    "front": ("validate_front", "crossings_raw", "trace_crossings", "cylinder_class"),
    "geometry": ("segment_meet_torus",),
    "resolution": ("teleport_signs", "multiplicities", "total_resolution", "intersect_L1"),
    "invariants": ("rot_front",),
    "moves": ("apply_move", "apply_script"),
    "lagrangian": (
        "validate_lagrangian",
        "diagram_crossings",
        "tb_writhe",
        "turning_number",
        "winding_numbers",
        "field_relative_turning",
        "rot_lagrangian",
    ),
}
# module -> functions whose calls are only counted: a span per call
# would cost more than the call
COUNTED = {"geometry": ("segment_meet",)}
# spanned functions that also count the calls returning something truthy
HITS = {"geometry.segment_meet_torus"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for mod, fns in SPANNED.items():
        for fn in fns:
            name = "%s.%s" % (mod, fn)
            out.append((name + ".calls", "count/op"))
            out.append((name + ".self_s", "s/op"))
            if name in HITS:
                out.append((name + ".hits", "count/op"))
    for mod, fns in COUNTED.items():
        out.extend(("%s.%s.calls" % (mod, fn), "count/op") for fn in fns)
    out.append(("trace.overhead_pct", "%"))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {}
        self.ops = 0
        self._stack = [-1]
        self._undo = []

    # ------------------------------------------------------- recording

    def _span_wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        hits = name + ".hits" if name in HITS else None
        if hits:
            self.counters[hits] = 0
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.ops)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hits and result:
                counters[hits] += 1
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        key = name + ".calls"
        self.counters[key] = 0
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function wherever a morsebook module holds it."""
        holders = [m for n, m in sorted(sys.modules.items()) if n == "morsebook" or n.startswith("morsebook.")]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod, fns in table.items():
                module = importlib.import_module("morsebook." + mod)
                for fn in fns:
                    orig = getattr(module, fn)
                    wrapper = make("%s.%s" % (mod, fn), orig)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is orig:
                                setattr(holder, attr, wrapper)
                                self._undo.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo = []

    def end_op(self):
        """Mark the end of one operation: later spans belong to the next."""
        self.ops += 1

    # ------------------------------------------------------- reporting

    def layer_metrics(self):
        """Calls and self time of each spanned function, per operation."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i]
        ops = max(self.ops, 1)
        out = {}
        for k, name in enumerate(self.names):
            out[name + ".calls"] = calls[k] / ops
            out[name + ".self_s"] = self_s[k] / ops
        for key, value in self.counters.items():
            out[key] = value / ops
        return out

    def write(self, stem):
        """Save the spans as ``stem.bin`` (arrays in the order listed in
        ``stem.json``) and the names and counters as ``stem.json``."""
        arrays = ("span_name", "span_parent", "span_op", "span_start", "span_end")
        with open(stem + ".bin", "wb") as handle:
            for key in arrays:
                getattr(self, key).tofile(handle)
        meta = {
            "spans": len(self.span_start),
            "arrays": [[key, getattr(self, key).typecode] for key in arrays],
            "names": self.names,
            "ops": self.ops,
            "counters": self.counters,
        }
        with open(stem + ".json", "w") as handle:
            json.dump(meta, handle, indent=1)
