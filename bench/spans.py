"""Span tracing around fraglab's public calls, and the per-layer metrics.

The traced run patches the functions listed in ``TARGETS`` (and each
policy's ``alloc``) with wrappers that record one span per call: name,
start, end and the index of the enclosing span.  Spans live in four flat
arrays while the run lasts and are written to one file at the end; the
per-layer metrics are derived from that file alone.

A layer is the fraglab module a span's function lives in: harness,
workload, store, alloc, volume or metrics.  The benchmark's own phase spans
(set-up, aging, verify) count as the harness layer, since the benchmark
stands where ``harness.run_experiment`` would.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans add up to the wall time of the root (phase) spans.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

SPAN_FORMAT = "fraglab-bench-spans/1"
LAYERS = ("harness", "workload", "store", "alloc", "volume", "metrics")

# (module path, attribute owner, attribute, span name); owner None = module
TARGETS = (
    ("fraglab.workload", None, "bulk_load", "workload.bulk_load"),
    ("fraglab.workload", None, "run_to_age", "workload.run_to_age"),
    ("fraglab.workload", None, "build_report", "metrics.build_report"),
    ("fraglab.store", "ObjectStore", "put_new", "store.put_new"),
    ("fraglab.store", "ObjectStore", "safe_write", "store.safe_write"),
    ("fraglab.store", "ObjectStore", "get", "store.get"),
    ("fraglab.store", "ObjectStore", "verify_layout", "store.verify_layout"),
    ("fraglab.store", "ObjectStore", "scan_layout", "store.scan_layout"),
    ("fraglab.volume", "Volume", "clear_markers", "volume.clear_markers"),
    ("fraglab.volume", "Volume", "release", "volume.release"),
    ("fraglab.volume", "Volume", "checkpoint", "volume.checkpoint"),
    ("fraglab.volume", "Volume", "read_cost", "volume.read_cost"),
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters = {"alloc.extents": 0, "volume.markers_set": 0,
                         "volume.clear_markers.clusters": 0}
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code (a phase)."""
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn with a span around every call; after(args, result) counts work."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self) -> None:
        import importlib

        from fraglab import alloc

        counters = self.counters

        def count_alloc(_args, extents):
            counters["alloc.extents"] += len(extents)
            counters["volume.markers_set"] += sum(e.length for e in extents)

        def count_commit(_args, record):
            # the commit re-marks every cluster of the new copy under its id
            counters["volume.markers_set"] += record.allocated_clusters

        def count_clear(args, _result):
            counters["volume.clear_markers.clusters"] += sum(e.length for e in args[1])

        after = {"store.safe_write": count_commit, "volume.clear_markers": count_clear}
        for module, owner, attr, name in TARGETS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            self._patch(target, attr, name, after.get(name))
        for cls in vars(alloc).values():
            if isinstance(cls, type) and issubclass(cls, alloc.AllocPolicy) and "alloc" in vars(cls):
                self._patch(cls, "alloc", "alloc.alloc", count_alloc)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str, meta: dict) -> None:
        header = {"format": SPAN_FORMAT, "names": self.names, "count": len(self.starts),
                  "counters": self.counters, "meta": meta}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(out)


def read_spans(path: str) -> tuple[dict, array, array, array, array]:
    """The header and the four span columns of a span file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        if header.get("format") != SPAN_FORMAT:
            raise ValueError(f"{path}: not a span file")
        n = header["count"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(f, n)
            columns.append(column)
    return (header, *columns)


def span_totals(path: str) -> dict:
    """Calls, total and self time per span name; the roots' wall time; counters."""
    header, name_ids, parents, starts, ends = read_spans(path)
    n = header["count"]
    durations = [ends[i] - starts[i] for i in range(n)]
    child_time = [0.0] * n
    phase_s = 0.0
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            child_time[parent] += durations[i]
        else:
            phase_s += durations[i]
    by_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in header["names"]}
    min_self = 0.0
    for i in range(n):
        entry = by_name[header["names"][name_ids[i]]]
        self_s = durations[i] - child_time[i]
        min_self = min(min_self, self_s)
        entry["calls"] += 1
        entry["total_s"] += durations[i]
        entry["self_s"] += self_s
    return {"by_name": by_name, "phase_s": phase_s, "min_self_s": min_self,
            "spans": n, "counters": header["counters"]}


def layer_metrics(totals: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from span totals, and any accounting problems.

    Returns {metric name: (value, unit)}.  The problems list is non-empty
    when a child span outlasts its parent or the layer self times do not add
    up to the phases' wall time.
    """
    by_name = totals["by_name"]
    counters = totals["counters"]

    def fn(name: str) -> dict:
        return by_name.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in by_name.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    alloc_calls = fn("alloc.alloc")["calls"]
    out = {
        "harness.config_s": (fn("harness.config")["total_s"], "s"),
        "alloc.calls": (alloc_calls, "count"),
        "alloc.us_per_call": (layer_self["alloc"] / max(alloc_calls, 1) * 1e6, "us"),
        "alloc.extents_per_call": (counters["alloc.extents"] / max(alloc_calls, 1), "extents/call"),
        "volume.markers_set": (counters["volume.markers_set"], "count"),
        "volume.clear_markers.clusters": (counters["volume.clear_markers.clusters"], "count"),
        "store.scan_layout.s": (fn("store.scan_layout")["total_s"], "s"),
        "trace.phase_s": (totals["phase_s"], "s"),
        "trace.spans": (totals["spans"], "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    for name in ("store.put_new", "store.safe_write", "store.get", "volume.release",
                 "volume.checkpoint", "volume.read_cost", "metrics.build_report"):
        out[f"{name}.calls"] = (fn(name)["calls"], "count")
        out[f"{name}.self_s"] = (fn(name)["self_s"], "s")
    for name in ("workload.bulk_load", "workload.run_to_age", "volume.clear_markers",
                 "store.verify_layout"):
        out[f"{name}.self_s"] = (fn(name)["self_s"], "s")

    problems = []
    if totals["min_self_s"] < -1e-6:
        problems.append(f"a child span outlasts its parent by {-totals['min_self_s']:.3g} s")
    self_sum = sum(layer_self.values())
    if abs(self_sum - totals["phase_s"]) > 1e-6 * max(totals["phase_s"], 1.0):
        problems.append(f"layer self times add to {self_sum!r} s, phases took {totals['phase_s']!r} s")
    return out, problems
