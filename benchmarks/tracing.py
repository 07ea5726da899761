"""Span tracing of hstrata's public functions, installed from outside.

Each wrapped function is replaced at every name an hstrata module binds it
to, which is where its callers look it up.  A call records a span (name id,
start, end, parent span) in flat arrays kept in memory; a generator returned
by a wrapped function records one span per next().  Self time is a span's
duration minus the time its direct children cover, and is summed per name
as the calls finish.

Tiny recursive helpers (stirling2, RatPoly arithmetic) and the diagrams
module are left unwrapped: their cost stays in their callers' self time.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (layer, function, is the result an iterator that should be traced per next())
TRACED = (
    ("enumeration", "cauchon_diagrams", True),
    ("enumeration", "tally_dimensions", False),
    ("enumeration", "diagram_from_permutation", False),
    ("pipedreams", "trace_permutation", False),
    ("pipedreams", "toric_permutation", False),
    ("pipedreams", "cycle_decomposition", False),
    ("pipedreams", "odd_cycle_count", False),
    ("exactlinalg", "white_adjacency_matrix", False),
    ("exactlinalg", "kernel_dim", False),
    ("exactlinalg", "kernel_basis", False),
    ("genfunc", "stratum_poly", False),
    ("genfunc", "closed_form_coeffs", False),
    ("genfunc", "stratum_series", False),
    ("genfunc", "series_pipeline_check", False),
    ("cli", "run_verify", False),
)
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name, _ in TRACED)
MODULES = ("diagrams", "pipedreams", "exactlinalg", "genfunc", "enumeration", "cli")


class Tracer:
    """Collects spans for one process; install() patches hstrata in place."""

    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self.yielded = 0
        self.max_kernel_order = 0
        self.lookups = 0
        self.lookup_traces = 0
        self._stack: list[list] = []  # [span index, time covered by children]
        self._open_lookups = 0

    # ------------------------------------------------------------ spans

    def _call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        index = len(self.ids)
        self.ids.append(nid)
        self.parents.append(stack[-1][0] if stack else -1)
        self.ends.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        self.starts.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.ends[index] = end
            duration = end - start
            self.self_s[nid] += duration - frame[1]
            self.calls[nid] += 1
            if stack:
                stack[-1][1] += duration

    def _iterate(self, nid: int, iterator):
        step = iterator.__next__
        while True:
            try:
                item = self._call(nid, step, (), {})
            except StopIteration:
                return
            self.yielded += 1
            yield item

    # ------------------------------------------------------------ wrappers

    def _wrap(self, nid: int, name: str, fn, is_iter: bool):
        call = self._call
        if is_iter:
            def wrapper(*args, **kwargs):
                return self._iterate(nid, call(nid, fn, args, kwargs))
        elif name == "kernel_dim":
            def wrapper(matrix, *args, **kwargs):
                order = getattr(matrix, "cols", None)
                if order is None:
                    order = len(matrix)
                self.max_kernel_order = max(self.max_kernel_order, order)
                return call(nid, fn, (matrix, *args), kwargs)
        elif name == "trace_permutation":
            def wrapper(*args, **kwargs):
                if self._open_lookups:
                    self.lookup_traces += 1
                return call(nid, fn, args, kwargs)
        elif name == "diagram_from_permutation":
            def wrapper(*args, **kwargs):
                self.lookups += 1
                self._open_lookups += 1
                try:
                    return call(nid, fn, args, kwargs)
                finally:
                    self._open_lookups -= 1
        else:
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def install(self) -> None:
        """Replace each traced function at every hstrata name bound to it."""
        modules = [importlib.import_module(f"hstrata.{m}") for m in MODULES]
        modules.append(importlib.import_module("hstrata"))
        for nid, (layer, name, is_iter) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"hstrata.{layer}"), name)
            wrapper = self._wrap(nid, name, original, is_iter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # ------------------------------------------------------------ output

    def summary(self) -> dict:
        return {
            "self_s": dict(zip(self.names, self.self_s)),
            "calls": dict(zip(self.names, self.calls)),
            "yielded": self.yielded,
            "max_kernel_order": self.max_kernel_order,
            "lookups": self.lookups,
            "lookup_traces": self.lookup_traces,
            "spans": len(self.ids),
        }

    def write(self, stem: Path) -> None:
        """Write the spans as flat binary arrays plus a JSON header."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": list(self.names),
            "count": len(self.ids),
            "arrays": ["ids:i", "parents:i", "starts:d", "ends:d"],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header))
        with open(stem.with_suffix(".spans"), "wb") as out:
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(out)


def merge(summaries: list[dict]) -> dict:
    """Sum several process summaries (the cli workload traces one per command)."""
    total = {
        "self_s": dict.fromkeys(SPAN_NAMES, 0.0),
        "calls": dict.fromkeys(SPAN_NAMES, 0),
        "yielded": 0,
        "max_kernel_order": 0,
        "lookups": 0,
        "lookup_traces": 0,
        "spans": 0,
    }
    for s in summaries:
        for name in SPAN_NAMES:
            total["self_s"][name] += s["self_s"][name]
            total["calls"][name] += s["calls"][name]
        for key in ("yielded", "lookups", "lookup_traces", "spans"):
            total[key] += s[key]
        total["max_kernel_order"] = max(total["max_kernel_order"], s["max_kernel_order"])
    return total
