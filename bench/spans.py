"""Span recorder for the traced run.

Wrappers are installed on the package's functions as they are bound in
their caller's module (gmbound.bounds.optimal_trees, gmbound.graph.degree,
...), so the package itself is not edited.  Each call records a span
(graph, span id, parent span id, name, start ns, end ns); spans of one
graph share the graph id.  Spans stay in memory and are written out once,
at the end of the run.  A span's call count is the number of its spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

GRAPH, SPAN, PARENT, NAME, START, END = range(6)


class Recorder:
    """Spans kept column by column: plain lists of ints and names, so that
    recording allocates no object per span for the garbage collector."""

    def __init__(self):
        self.graph = -1  # a span opened with no span open starts the next graph
        self.graphs: list[int] = []
        self.parents: list[int] = []
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.returned: Counter = Counter()  # summed len() of results, for counted spans
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count_result: bool = False):
        graphs, parents, names, starts, ends = self.graphs, self.parents, self.names, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(starts)
            if not stack:
                self.graph += 1
            graphs.append(self.graph)
            parents.append(stack[-1] if stack else -1)
            names.append(name)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count_result:
                self.returned[name] += len(result)
            return result

        return traced

    def rows(self) -> list[tuple]:
        """The spans as (graph, span id, parent span id, name, start ns, end ns)."""
        return list(zip(self.graphs, range(len(self.starts)), self.parents, self.names,
                        self.starts, self.ends))

    @contextmanager
    def patched(self, bindings):
        """Replace module attributes by traced wrappers for the duration.

        bindings holds (module, attribute, span name, count_result) tuples.
        """
        saved = []
        try:
            for module, attr, name, count_result in bindings:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count_result))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[tuple]) -> list[int]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for s in spans:
        inside = [(max(a, s[START]), min(b, s[END])) for a, b in children.get(s[SPAN], ())]
        out.append(s[END] - s[START] - _covered([iv for iv in inside if iv[0] < iv[1]]))
    return out


def summarize(spans: list[tuple], graphs) -> dict[str, list[int]]:
    """name -> [calls, inclusive ns, self ns] over the spans of the given graphs."""
    wanted = set(graphs)
    out: dict[str, list[int]] = {}
    for s, own in zip(spans, self_times(spans)):
        if s[GRAPH] in wanted:
            row = out.setdefault(s[NAME], [0, 0, 0])
            row[0] += 1
            row[1] += s[END] - s[START]
            row[2] += own
    return out


def unbalanced_graphs(spans: list[tuple]) -> list[int]:
    """Graphs whose span self times do not add up to their root span's
    duration, which happens only when spans fail to nest."""
    roots: dict[int, int] = {}
    totals: Counter = Counter()
    for s, own in zip(spans, self_times(spans)):
        totals[s[GRAPH]] += own
        if s[PARENT] < 0:
            roots[s[GRAPH]] = roots.get(s[GRAPH], 0) + s[END] - s[START]
    return sorted(g for g in totals if totals[g] != roots.get(g))


def write(spans: list[tuple], path) -> None:
    """One JSON array per span after a header line naming the columns."""
    with open(path, "w") as out:
        out.write(json.dumps({"columns": ["graph", "span", "parent", "name", "start_ns", "end_ns"]}) + "\n")
        for s in spans:
            out.write(json.dumps(s) + "\n")
