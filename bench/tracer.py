"""Outside-in tracing of fracfactor's public functions.

The tracer patches the library from the outside: every public function in
TARGETS is replaced, in every loaded ``fracfactor`` module that holds it by
name, with a wrapper that records a span (name, start, end, parent). The
methods in METHOD_TARGETS are wrapped on their classes. Nothing inside
``src/`` is instrumented, and ``uninstall`` puts every original object back.

Spans are kept in flat arrays in memory and written out at the end of a run.
A span's self time is its duration minus the durations of its children; the
benchmark's own root spans ("bench.setup", "bench.op") take the time not
spent in the library, so self times over all names sum to the root time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

clock = time.perf_counter

# (span name, defining module, attribute, kind). Kind "generator" times each
# next() on the returned iterator instead of the call that creates it.
TARGETS = (
    ("graphs.parse_edge_list", "fracfactor.graphs", "parse_edge_list", "call"),
    ("maxflow.feasible_flow", "fracfactor.maxflow", "feasible_flow", "call"),
    ("factor.solve", "fracfactor.factor", "find_fractional_factor", "call"),
    ("factor.scan", "fracfactor.factor", "has_fractional_factor_bruteforce", "call"),
    ("factor.validate", "fracfactor.factor", "validate_assignment", "call"),
    ("factor.delta_st", "fracfactor.factor", "delta_st", "call"),
    ("criticality.check", "fracfactor.criticality", "is_fractional_id_factor_critical", "call"),
    ("criticality.enumerate", "fracfactor.criticality", "enumerate_independent_sets", "generator"),
    ("criticality.maximal", "fracfactor.criticality", "maximal_independent_sets", "generator"),
    ("conditions.check", "fracfactor.conditions", "check_criticality_conditions", "call"),
    ("conditions.invariants", "fracfactor.conditions", "check_deletion_invariants", "call"),
    ("constructions.random_graph", "fracfactor.constructions", "random_graph", "call"),
    ("constructions.verify_sharpness", "fracfactor.constructions", "verify_sharpness", "call"),
    ("sweep.run_sweep", "fracfactor.sweep", "run_sweep", "call"),
)

# (span name, defining module, class, method, kind). Kind "count" counts
# calls without opening a span.
METHOD_TARGETS = (
    ("graphs.build", "fracfactor.graphs", "Graph", "__init__", "call"),
    ("graphs.delete_vertices", "fracfactor.graphs", "Graph", "delete_vertices", "call"),
    ("maxflow.max_flow", "fracfactor.maxflow", "Dinic", "max_flow", "call"),
    ("maxflow.add_edge", "fracfactor.maxflow", "Dinic", "add_edge", "count"),
)


class Tracer:
    """Span recorder with a stack of open spans; one thread, one caller."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.inclusive_s: list[float] = []
        self.root_s = 0.0
        self.counters: Counter[str] = Counter()
        # open spans: [span id, name index, start, time covered by children]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.inclusive_s.append(0.0)
        return idx

    def push(self, idx: int) -> None:
        sid = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(idx)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        start = clock()
        self.span_start.append(start)
        self._stack.append([sid, idx, start, 0.0])

    def pop(self) -> None:
        end = clock()
        sid, idx, start, child = self._stack.pop()
        self.span_end[sid] = end
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        self.inclusive_s[idx] += dur
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.root_s += dur

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1][1]] if self._stack else None

    def span(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span; used for the benchmark's root spans."""
        idx = self.name_index(name)
        self.push(idx)
        try:
            return fn(*args)
        finally:
            self.pop()

    # -- per-name totals ----------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) for one span name."""
        idx = self._index.get(name)
        if idx is None:
            return 0, 0.0, 0.0
        return self.calls[idx], self.self_s[idx], self.inclusive_s[idx]

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded fracfactor module."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "fracfactor" or name.startswith("fracfactor.")
        ]
        for span, module, attr, kind in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span, original, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for span, module, cls_name, attr, kind in METHOD_TARGETS:
            cls = getattr(sys.modules[module], cls_name)
            self._patch(cls, attr, self._wrap(span, vars(cls)[attr], kind))

    def uninstall(self) -> None:
        """Put back every object install replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn: Callable, kind: str) -> Callable:
        idx = self.name_index(span)
        on_result = self._result_hooks().get(span)
        push, pop, counters = self.push, self.pop, self.counters

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[span] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == "generator":
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return _TracedIterator(self, idx, span, fn(*args, **kwargs))
            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            push(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counters[f"{span}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                pop()
            if on_result is not None:
                on_result(result)
            return result
        return call

    def _result_hooks(self) -> dict[str, Callable]:
        counters = self.counters

        def solved(result) -> None:
            if not result:
                counters["factor.solve.infeasible"] += 1
                if result.certificate is not None:
                    counters["factor.solve.certified"] += 1

        def conditions_checked(report) -> None:
            # Only run_sweep's own filter call is one (graph, pair) examined;
            # check_deletion_invariants repeats the check per maximal set.
            if self.current() == "sweep.run_sweep":
                counters["sweep.graphs_examined"] += 1
                counters["sweep.condition_passing"] += report.all_ok

        return {"factor.solve": solved, "conditions.check": conditions_checked}

    def _yielded(self, span: str) -> None:
        self.counters[f"{span}.yielded"] += 1
        parent = self.current()
        if parent is not None:
            self.counters[f"{span}.yielded_in.{parent}"] += 1

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every span as [name, start, end, parent] rows, gzipped JSON."""
        rows = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_start))
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))


class _TracedIterator:
    """Times each next() of a library generator as one span."""

    __slots__ = ("_tracer", "_idx", "_span", "_it")

    def __init__(self, tracer: Tracer, idx: int, span: str, it) -> None:
        self._tracer = tracer
        self._idx = idx
        self._span = span
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.push(self._idx)
        try:
            value = next(self._it)
        finally:
            tracer.pop()
        tracer._yielded(self._span)
        return value
