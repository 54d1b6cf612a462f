"""Spans taken from outside the program, by wrapping its public functions.

``Tracer.install`` replaces every public function of the traced modules
(and the few methods in ``METHODS``) by a wrapper that records a span:
name, start, end and parent.  A module that did ``from .diagrams import
trace`` holds its own reference, so each wrapper is rebound under every
name, in every ``pipedreams`` module, that held the original.

Spans live in compact arrays and are written once, when the round ends.
Aggregates are kept as the spans close: calls, inclusive seconds (outermost
call only, so recursion is not counted twice) and self seconds (the span
minus the time its child spans cover).  A generator gets one span; its time
is the time spent inside its resumptions, and what the consumer does
between them belongs to the consumer.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

MODULES = ("pipedream", "diagrams", "polynomials", "mvpd", "bvpd", "construct")
METHODS = {
    "polynomials": ("Poly.__mul__", "Poly.__add__"),
    "diagrams": ("TraceResult.pipe_at",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self._depth: list[int] = []
        self.yields: dict[tuple[int, int], int] = {}  # (generator, parent name) -> items
        self.fresh_items: list[int] = []  # len() of results computed on a cache miss
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.gc_gen2_count = 0
        self.gc_gen2_ns = 0
        self._gc_start = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.incl_ns, self.self_ns, self._depth, self.fresh_items):
                column.append(0)
        return nid

    def _open(self, nid: int, start: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start)
        self.span_end.append(start)
        return idx

    def _wrap_call(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack
        depth = self._depth
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            frame = [self._open(nid, start), 0]
            stack.append(frame)
            depth[nid] += 1
            misses = cache_info().misses if cache_info else 0
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[nid] -= 1
                dur = end - start
                self.span_end[frame[0]] = end
                self.calls[nid] += 1
                self.self_ns[nid] += dur - frame[1]
                if not depth[nid]:
                    self.incl_ns[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if cache_info and cache_info().misses > misses and hasattr(out, "__len__"):
                self.fresh_items[nid] += len(out)
            return out

        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid, perf_counter_ns())
            parent = self.span_parent[idx]
            key = (nid, self.span_name[parent] if parent >= 0 else -1)
            self.calls[nid] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    start = perf_counter_ns()
                    frame = [idx, 0]
                    stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter_ns()
                        stack.pop()
                        dur = end - start
                        self.self_ns[nid] += dur - frame[1]
                        self.incl_ns[nid] += dur
                        self.span_end[idx] = end
                        if stack:
                            stack[-1][1] += dur
                    self.yields[key] = self.yields.get(key, 0) + 1
                    yield item
            finally:
                it.close()

        return wrapper

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_call(name, fn)

    def install(self) -> None:
        """Wrap the traced modules' public functions and listen to the collector."""
        package = importlib.import_module("pipedreams")
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"pipedreams.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for qual in METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(f"{short}.{qual}", vars(cls)[meth]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith("pipedreams."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(module, attr, replaced[id(obj)])
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_gen2_count += 1
            self.gc_gen2_ns += perf_counter_ns() - self._gc_start

    def aggregates(self) -> dict:
        """calls / inclusive s / self s per span name, plus the counters."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[k],
                    "s": self.incl_ns[k] / 1e9,
                    "self_s": self.self_ns[k] / 1e9,
                    "fresh_items": self.fresh_items[k],
                }
                for k, name in enumerate(self.names)
            },
            "yields": [
                [self.names[g], self.names[p] if p >= 0 else None, count]
                for (g, p), count in self.yields.items()
            ],
            "gc_gen2_count": self.gc_gen2_count,
            "gc_gen2_s": self.gc_gen2_ns / 1e9,
        }

    def write(self, path) -> None:
        """All spans, columnar; times are ns from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0
        columns = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [t - origin for t in self.span_start],
            "end_ns": [t - origin for t in self.span_end],
        }
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(columns))
