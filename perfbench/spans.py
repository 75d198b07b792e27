"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the benchmark's own calls into multipack's public
functions; nothing inside the library is patched.  Each span holds its name
(the layer it times), start and end (seconds from the recorder's creation),
parent span, op id and phase.  Spans stay in memory and are written out once,
when the run ends.

Some public entry points redo the work of other layers internally (for
example `greedy_2_multipacking` ranks neighbours and builds the conflict
graph before its local search).  For those calls the recorder times the
sub-steps separately on the same instance after the op has finished, charges
that time to the sub-step's layer, and subtracts it from the caller's self
time, which is then marked derived.  Sub-step calls run outside the op's
timed region, so they never count towards op latency.
"""

from __future__ import annotations

import time
from collections import Counter

import multipack as mp
from multipack import geometry


class Tracer:
    """Records spans and per-layer totals while `enabled`; otherwise a pass-through."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.self_s: Counter = Counter()  # layer -> summed self seconds
        self.calls: Counter = Counter()  # layer -> calls, direct and derived
        self.counts: Counter = Counter()  # named work counters
        self.maxima: dict[str, int] = {}
        self.phase = "setup"
        self.op: int | None = None
        self._origin = time.perf_counter()
        self._open: list[dict] = []
        self._pending: list[tuple[dict, object, str]] = []

    def call(self, layer: str, fn, *args, derive: tuple | None = None, **kwargs):
        """Run fn(*args, **kwargs), recorded as a span of `layer` when tracing.

        `derive=(pts, what)` names the sub-steps fn performs internally on
        `pts` (see `SubSteps`); they are timed and charged by `settle`.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self._begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._end(rec, layer=True)
        if derive is not None:
            self._pending.append((rec, derive[0], derive[1]))
        return result

    def structural(self, name: str) -> dict | None:
        """Open a span that groups layer calls (an op or a pass) and is no layer itself."""
        return self._begin(name) if self.enabled else None

    def close(self, rec: dict | None, **attrs) -> None:
        if rec is not None:
            rec.update(attrs)
            self._end(rec, layer=False)

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def peak(self, name: str, value: int) -> None:
        if self.enabled and value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def settle(self) -> None:
        """Time the sub-steps of the finished op's composite calls and re-attribute them."""
        subs: dict[int, SubSteps] = {}
        for rec, pts, what in self._pending:
            steps = subs.setdefault(id(pts), SubSteps(self, pts))
            parts = steps.parts(what)
            rec["derived"] = [[name, secs] for name, secs in parts]
            for name, secs in parts:
                self.self_s[name] += secs
                self.calls[name] += 1
                self.self_s[rec["name"]] -= secs
        self._pending.clear()

    def shadow(self, layer: str, fn, *args) -> tuple[object, dict]:
        """Time one sub-step call as a span flagged `shadow`; `settle` charges its time."""
        rec = self._begin(layer)
        rec["shadow"] = True
        try:
            result = fn(*args)
        finally:
            self._end(rec, layer=False)
        return result, rec

    def _begin(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op,
            "phase": self.phase,
            "start": time.perf_counter() - self._origin,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["_child"] = 0.0
        return rec

    def _end(self, rec: dict, layer: bool) -> None:
        rec["end"] = time.perf_counter() - self._origin
        self._open.pop()
        duration = rec["end"] - rec["start"]
        if self._open:
            self._open[-1]["_child"] += duration
        own = duration - rec.pop("_child")
        if layer:
            self.self_s[rec["name"]] += own
            self.calls[rec["name"]] += 1


def _components(adj) -> tuple[int, int]:
    """Number of connected components and size of the largest one."""
    seen = [False] * len(adj)
    count = largest = 0
    for root in range(len(adj)):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        stack = [root]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        largest = max(largest, size)
    return count, largest


class SubSteps:
    """Separately timed sub-steps of one instance's composite solver calls.

    Each sub-step is timed once per instance and op, then charged to every
    composite call on that instance that performs it internally.  Graph
    builds are timed on a precomputed neighbour table, so their time is
    measured directly rather than as a difference with ranking.
    """

    def __init__(self, tracer: Tracer, pts):
        self.tracer = tracer
        self.pts = pts
        self._done: dict[tuple, tuple[object, float]] = {}

    def _timed(self, key: tuple, layer: str, fn, *args) -> tuple[object, float]:
        if key not in self._done:
            result, rec = self.tracer.shadow(layer, fn, *args)
            self._done[key] = result, rec["end"] - rec["start"]
            if key == ("graph", 2):
                self._describe(result, rec)
        return self._done[key]

    def _describe(self, graph, rec: dict) -> None:
        """Count edges and components of a conflict graph (outside any timed region)."""
        tracer = self.tracer
        comps, largest = _components(graph.adj)
        tracer.count("plane.graph_edges", sum(len(row) for row in graph.adj) // 2)
        tracer.count("plane.components", comps)
        tracer.peak("plane.largest_component", largest)
        rec.update(n=graph.n, components=comps, largest_component=largest)

    def parts(self, what: str) -> list[tuple[str, float]]:
        pts = self.pts
        if what == "table":
            return [("geometry.table", self._timed(("table",), "geometry.table", mp.build_neighbor_table, pts)[1])]
        k = {"rank2": 2, "graph1": 1, "graph2": 2}[what]
        profile, rank = self._timed(("rank", k), "geometry.rank", geometry.nearest_profile, pts, k)
        if what == "rank2":
            return [("geometry.rank", rank)]
        build = mp.build_nearest_neighbor_graph if k == 1 else mp.build_conflict_graph
        table = mp.NeighborTable(order=tuple(profile))
        graph = self._timed(("graph", k), "plane.graph", build, pts, table)[1]
        return [("geometry.rank", rank), ("plane.graph", graph)]
