"""In-memory span tracer and per-layer metrics for the traced run.

The tracer wraps the public functions of each `cdpr` module and records one
span per call: name, layer, start, end, parent span and round id. Nothing in
`src/cdpr` is edited; wrappers are patched into every module namespace that
holds a reference to the original function (``from .x import f`` copies the
reference), and onto the classes whose methods are timed.

Self time uses time-sliced attribution: every instant covered by some span is
split equally between the spans that are open at that instant and have no open
child. Sequential nesting reduces to "duration minus children"; the two kernel
calls that `workspace.scan` runs on worker threads share the instants they
overlap. The self times of all spans therefore sum to the covered wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
import threading
import time
import types
from collections import namedtuple

Span = namedtuple("Span", "sid parent name layer t0 t1 round counts")

# Spans whose results the per-layer metrics count. Each hook runs after the
# span has closed, so its cost lands in the parent's self time.
_COUNT_HOOKS = {
    "kernels.scan_cells": lambda args, kwargs, res: {
        "cells": int(res[0].size), "reachable": int(res[0].sum())},
    "workspace.scan": lambda args, kwargs, res: {
        "cells": int(res.reachable.size)},
    "workspace.union_scan": lambda args, kwargs, res: {
        "reachable": int(res.reachable.sum())},
    "workspace.WorkspaceGrid.to_csv": lambda args, kwargs, res: {
        "bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])},
}

# Spans that also record the CPU time of their own thread (counts["cpu_s"]):
# a worker that waits for the GIL or for a processor is open but not busy.
_CPU_TIMED = {"kernels.scan_cells"}

# Public methods that are timed in addition to the modules' __all__ functions.
_METHODS = (("workspace", "WorkspaceGrid", "to_csv"),
            ("workspace", "WorkspaceGrid", "summary"),
            ("optimize", "SweepResult", "to_csv"))


def layer_of(module_name: str) -> str:
    """'cdpr._kernels' -> 'kernels', 'cdpr.cli' -> 'cli'."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Collects spans from the calling thread and from worker threads it
    starts. A span opened on a worker thread with nothing open there is a
    child of the caller's innermost open span (the benchmark has one
    closed-loop caller)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller_stack: list[int] = []
        self._local.stack = self._caller_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._caller_stack[-1] if self._caller_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def call(self, fn, name, layer, args=(), kwargs=None, hook=None, cpu=False):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        kwargs = kwargs or {}
        sid, parent = self._open()
        done = False
        counts = None
        t0 = time.perf_counter()
        c0 = time.thread_time() if cpu else 0.0
        try:
            res = fn(*args, **kwargs)
            done = True
        finally:
            c1 = time.thread_time() if cpu else 0.0
            t1 = time.perf_counter()
            self._stack().pop()
            if hook is not None and done:
                counts = hook(args, kwargs, res)
            if cpu:
                counts = dict(counts or {}, cpu_s=c1 - c0)
            self.spans.append(Span(sid, parent, name, layer, t0, t1, self.round, counts))
        return res

    def wrap(self, fn, name: str, layer: str):
        hook = _COUNT_HOOKS.get(name)
        cpu = name in _CPU_TIMED

        def traced(*args, **kwargs):
            return self.call(fn, name, layer, args, kwargs, hook, cpu)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__wrapped__ = fn
        return traced


@contextlib.contextmanager
def patched(tracer: Tracer, package):
    """Wrap the public functions of every loaded module of `package` (each
    module's __all__, plus cli.main) and the methods in _METHODS; restore
    every replaced attribute on exit."""
    prefix = package.__name__ + "."
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == package.__name__ or k.startswith(prefix))]
    wrappers = {}
    for mod in modules:
        layer = layer_of(mod.__name__)
        names = list(getattr(mod, "__all__", [])) + (["main"] if layer == "cli" else [])
        for attr in names:
            fn = getattr(mod, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(fn, f"{layer}.{attr}", layer)
    by_layer = {layer_of(m.__name__): m for m in modules}
    restore = []
    try:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(by_layer[layer], cls_name)
            fn = cls.__dict__[meth]
            restore.append((cls, meth, fn))
            setattr(cls, meth, tracer.wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
        yield tracer
    finally:
        for owner, attr, val in reversed(restore):
            setattr(owner, attr, val)


def self_times(spans) -> dict:
    """Attributed self time of every span, keyed by span id.

    Sweeps the span boundaries in time order. Between two consecutive
    boundaries the elapsed time is split equally between the open spans that
    have no open child ("leaves"). Ends sort before starts at equal times,
    deeper spans end first and shallower spans start first.
    """
    by_id = {s.sid: s for s in spans}
    depth = {}
    for sid in sorted(by_id):  # a parent opens, and takes its id, before its children
        parent = by_id[sid].parent
        depth[sid] = depth[parent] + 1 if parent in depth else 0
    events = []
    for s in spans:
        events.append((s.t0, 1, depth[s.sid], s.sid))
        events.append((s.t1, 0, -depth[s.sid], s.sid))
    events.sort()

    attributed = dict.fromkeys(by_id, 0.0)
    open_children = dict.fromkeys(by_id, 0)
    active = set()
    leaves = set()
    last = events[0][0] if events else 0.0
    for t, is_start, _, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                attributed[leaf] += share
        last = t
        parent = by_id[sid].parent
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return attributed


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run, per traced round.

LAYER_UNITS = {
    "kernels.calls": "count", "kernels.cells": "count", "kernels.busy_s": "s",
    "kernels.mcell_per_s": "Mcell/s", "kernels.reachable_ratio": "ratio",
    "kernels.self_s": "s",
    "workspace.scan_calls": "count", "workspace.scan_self_s": "s",
    "workspace.parallelism": "ratio", "workspace.union_self_s": "s",
    "workspace.union_new_cell_ratio": "ratio", "workspace.csv_s": "s",
    "workspace.csv_bytes": "B", "workspace.coverage_s": "s", "workspace.self_s": "s",
    "statics.cost_calls": "count", "statics.cost_self_s": "s",
    "statics.candidate_self_s": "s", "statics.oracle_calls": "count",
    "statics.oracle_self_s": "s", "statics.self_s": "s",
    "kinematics.calls": "count", "kinematics.self_s": "s",
    "geometry.load_s": "s", "geometry.expand_calls": "count", "geometry.expand_s": "s",
    "geometry.self_s": "s",
    "optimize.samples": "count", "optimize.self_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "B",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}
LAYERS = ("geometry", "kinematics", "statics", "kernels", "workspace", "optimize", "cli",
          "bench")


def layer_metrics(spans, own: dict, rounds: int) -> dict:
    """Per-layer counts and times from the spans of `rounds` traced rounds
    and their self times `own`, each divided by `rounds`; ratios and rates
    are taken over all rounds. Keys are those of LAYER_UNITS except the two
    the harness measures itself (cli.output_bytes, trace.overhead_s).
    kernels.busy_s is the CPU time of the kernel calls' own threads, so
    workspace.parallelism (busy over scan wall time) counts only the time the
    workers actually ran."""
    by_name: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[s.sid]
        layer_calls[s.layer] = layer_calls.get(s.layer, 0) + 1

    def pick(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def dur(*names):
        return sum(s.t1 - s.t0 for s in pick(*names))

    def self_of(*names):
        return sum(own[s.sid] for s in pick(*names))

    def total(key, *names):
        return sum(s.counts[key] for s in pick(*names) if s.counts)

    def share(a, b):
        return a / b if b else 0.0

    kernel, scans = ("kernels.scan_cells",), ("workspace.scan",)
    cost = ("statics.cost_rigid", "statics.cost_elastic")
    busy, cells = total("cpu_s", *kernel), total("cells", *kernel)
    union_ids = {s.sid for s in pick("workspace.union_scan")}
    union_cells = sum(s.counts["cells"] for s in pick(*scans)
                      if s.parent in union_ids and s.counts)
    by_id = {s.sid: s for s in spans}

    def under_optimize(s):
        while s.parent in by_id:
            s = by_id[s.parent]
            if s.layer == "optimize":
                return True
        return False

    per = 1.0 / rounds
    m = {
        "kernels.calls": len(pick(*kernel)) * per,
        "kernels.cells": cells * per,
        "kernels.busy_s": busy * per,
        "kernels.mcell_per_s": share(cells, busy) / 1e6,
        "kernels.reachable_ratio": share(total("reachable", *kernel), cells),
        "workspace.scan_calls": len(pick(*scans)) * per,
        "workspace.scan_self_s": self_of(*scans) * per,
        "workspace.parallelism": share(busy, dur(*scans)),
        "workspace.union_self_s": self_of("workspace.union_scan") * per,
        "workspace.union_new_cell_ratio": share(total("reachable", "workspace.union_scan"),
                                                union_cells),
        "workspace.csv_s": dur("workspace.WorkspaceGrid.to_csv") * per,
        "workspace.csv_bytes": total("bytes", "workspace.WorkspaceGrid.to_csv") * per,
        "workspace.coverage_s": dur("workspace.coverage") * per,
        "statics.cost_calls": len(pick(*cost)) * per,
        "statics.cost_self_s": self_of(*cost) * per,
        "statics.candidate_self_s": self_of("statics.candidate_tensions") * per,
        "statics.oracle_calls": len(pick("statics.nullspace_oracle")) * per,
        "statics.oracle_self_s": self_of("statics.nullspace_oracle",
                                         "statics.feasible_alpha_interval") * per,
        "kinematics.calls": layer_calls["kinematics"] * per,
        "geometry.load_s": dur("geometry.load_geometry") * per,
        "geometry.expand_calls": len(pick("geometry.expand_planar")) * per,
        "geometry.expand_s": dur("geometry.expand_planar") * per,
        "optimize.samples": sum(under_optimize(s) for s in pick(*scans)) * per,
        "trace.wall_s": dur("bench.round") * per,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * per
    return m
