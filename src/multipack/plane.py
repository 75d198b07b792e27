"""Planar multipacking solvers built on two derived graphs.

For radius 1 the maximum multipackings of a point set are exactly the
maximum independent sets of its nearest-neighbor graph, which is a forest,
so a tree DP solves them.  For radius 2 they are the maximum independent
sets of a conflict graph with one triangle {v, first(v), second(v)} per
point; that graph has maximum degree at most 17, which powers the exact
branch-and-bound, the bounded-depth branching search, and the greedy
approximation below.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from numbers import Integral
from typing import Callable, Iterable

import numpy as np

from .geometry import NeighborTable, PointSet, _ranking, nearest_order
from .multipacking import BudgetExceededError, SolveReport

DEGREE_BOUND = 17


class NotAForestError(RuntimeError):
    """Nearest-neighbor graph contained a cycle; upstream ordering is broken."""


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected simple graph in canonical form: row v holds v's neighbors,
    integers in 0..n-1 in strictly increasing order, each edge at both ends."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if not isinstance(n, Integral) or n < 1 or len(self.adj) != n:
            raise ValueError("adjacency size does not match n")
        flat = np.array(list(chain.from_iterable(self.adj)))
        owner = np.repeat(np.arange(n), [len(row) for row in self.adj])
        if flat.dtype.kind == "i" and flat.shape == owner.shape and flat.min() >= 0 and flat.max() < n:
            keys = owner * n + flat  # (row, neighbor) pairs: strictly increasing iff every row is
            mirrored = np.sort(flat * n + owner)  # the same pairs reversed, in that order
            if not (flat == owner).any() and (np.diff(keys) > 0).all() and np.array_equal(keys, mirrored):
                return
        _raise_first_fault(n, self.adj)  # returns only when the bulk test cannot read the entries as int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ConflictGraph":
        pairs = [(a, b) for a, b in edges]
        for u in chain.from_iterable(pairs):
            if not isinstance(u, Integral):
                raise ValueError(f"vertex {u!r} out of range")
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} out of range")
        both = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return _from_pairs(n, both[:, 0], both[:, 1])

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in self.adj[v] if v < u]

    def max_degree(self) -> int:
        return max(len(row) for row in self.adj)


def _raise_first_fault(n: int, adj: tuple[tuple[int, ...], ...]) -> None:
    """Raise ValueError for the first fault of an adjacency with n rows, if any:
    rows in order; within a row, an entry that is not an integer, then the
    order, then each endpoint's range, loop and reverse edge."""
    for v, row in enumerate(adj):
        for u in row:
            if not isinstance(u, Integral):
                raise ValueError(f"vertex {u!r} out of range")
        row = [int(u) for u in row]  # numpy integers and bools print as plain ints
        if row != sorted(set(row)):
            raise ValueError(f"adjacency of {v} must be sorted and duplicate-free")
        for u in row:
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} out of range")
            if u == v:
                raise ValueError(f"loop at {v}")
            if v not in adj[u]:
                raise ValueError(f"edge {v}-{u} is not symmetric")


def _from_pairs(n: int, src: np.ndarray, dst: np.ndarray) -> ConflictGraph:
    """The graph on 0..n-1 with an edge for each pair (src[i], dst[i]),
    in both directions, duplicates merged; endpoints must be in range."""
    src, dst = src.astype(np.int64), dst.astype(np.int64)
    keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))  # by (row, neighbor)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    bounds = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    nbrs = (keys % n).tolist()
    return ConflictGraph(n=n, adj=tuple(tuple(nbrs[bounds[v] : bounds[v + 1]]) for v in range(n)))


def edge_list_text(graph: ConflictGraph) -> str:
    """Debug dump: one 'u v' line per edge with u < v, sorted."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges())


def parse_edge_list(text: str, n: int | None = None) -> ConflictGraph:
    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        a, b = int(parts[0]), int(parts[1])
        top = max(top, a, b)
        edges.append((a, b))
    size = n if n is not None else top + 1
    if size < 1:
        raise ValueError("edge list is empty and no n was given")
    return ConflictGraph.from_edges(size, edges)


def _nng_from_order(n: int, order: np.ndarray) -> ConflictGraph:
    return _from_pairs(n, np.arange(n), order[:, 0])


def _conflict_from_order(n: int, order: np.ndarray) -> ConflictGraph:
    v, a, b = np.arange(n), order[:, 0], order[:, 1]
    return _from_pairs(n, np.concatenate([v, v, a]), np.concatenate([a, b, b]))


def _graph(
    pts: PointSet, table: NeighborTable | None, k: int, build: Callable[[int, np.ndarray], ConflictGraph]
) -> ConflictGraph:
    """`build` on each point's k nearest.  Read from the set's own ranking,
    the graph is built once and kept next to it; a validated table builds afresh."""
    if table is not None:
        return build(pts.n, table._prefix(pts.n, k))
    graphs = _ranking(pts).graphs
    if k not in graphs:
        graphs[k] = build(pts.n, nearest_order(pts, k))  # a tie raises here: nothing is kept
    return graphs[k]


def build_nearest_neighbor_graph(pts: PointSet, table: NeighborTable | None = None) -> ConflictGraph:
    """Edge from every point to its unique nearest point (deduplicated)."""
    if pts.n < 2:
        raise ValueError("need at least 2 points")
    return _graph(pts, table, 1, _nng_from_order)


def build_conflict_graph(pts: PointSet, table: NeighborTable | None = None) -> ConflictGraph:
    """Triangle on {v, first(v), second(v)} for every v; independence in the
    result is exactly the radius-2 multipacking condition."""
    if pts.n < 3:
        raise ValueError("need at least 3 points")
    return _graph(pts, table, 2, _conflict_from_order)


# ---------------------------------------------------------------------------
# forest independent set
# ---------------------------------------------------------------------------

def forest_max_independent_set(graph: ConflictGraph) -> tuple[int, ...]:
    """Maximum independent set of a forest by two-state DP.

    A simple graph is a forest exactly when it has n - c edges for c
    components; any other graph raises NotAForestError.  Each component is
    rooted at its smallest index (`_components`).  Sums come bottom-up over
    the reversed BFS order; then, top-down, a vertex is kept when its parent
    is not and keeping it beats dropping it, so ties drop the vertex.  The
    witness does not depend on the order of children.
    """
    n = graph.n
    comps, parent = _components(graph.adj)
    edges = sum(map(len, graph.adj)) // 2
    if edges != n - len(comps):
        raise NotAForestError(f"{edges} edges on {n} vertices in {len(comps)} components is not a forest")
    order = [v for comp in comps for v in comp]
    in_sz = [1] * n
    out_sz = [0] * n
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            in_sz[p] += out_sz[v]
            out_sz[p] += max(in_sz[v], out_sz[v])
    kept = bytearray(n)
    for v in order:
        p = parent[v]
        kept[v] = (p < 0 or not kept[p]) and in_sz[v] > out_sz[v]
    return tuple(v for v in range(n) if kept[v])


def max_1_multipacking(pts: PointSet) -> SolveReport:
    """Maximum 1-multipacking via the nearest-neighbor forest."""
    if pts.n == 1:
        return SolveReport(size=1, indices=(0,), r=1, method="nng", stats={"components": 1, "edges": 0})
    graph = build_nearest_neighbor_graph(pts)
    witness = forest_max_independent_set(graph)
    edges = sum(map(len, graph.adj)) // 2
    return SolveReport(
        size=len(witness),
        indices=witness,
        r=1,
        method="nng",
        stats={"components": pts.n - edges, "edges": edges},
    )


# ---------------------------------------------------------------------------
# exact independent set (branch and bound on bitmasks)
# ---------------------------------------------------------------------------

def _adjacency_masks(adj: tuple[tuple[int, ...], ...], verts) -> list[int]:
    """Neighbor masks of the subgraph on `verts` (a union of components),
    with bit j standing for verts[j]."""
    local = {v: j for j, v in enumerate(verts)}
    masks = []
    for v in verts:
        m = 0
        for u in adj[v]:
            m |= 1 << local[u]
        masks.append(m)
    return masks


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_cover_bound(adjm: list[int], rem: int) -> int:
    """Greedy clique cover size; an upper bound on the independent set size."""
    count = 0
    left = rem
    while left:
        v = (left & -left).bit_length() - 1
        clique = 1 << v
        for u in _iter_bits(adjm[v] & left):
            if adjm[u] & clique == clique:
                clique |= 1 << u
        left &= ~clique
        count += 1
    return count


class _Search:
    """Independent-set search over the vertex masks of one graph.

    Both branching rules prune with the greedy clique-cover bound and return
    a mask or None.  `find` branches on a vertex of maximum remaining degree
    (ties toward the smaller index) after taking every vertex with at most
    one remaining neighbor; `fpt` branches over the closed neighborhood of a
    vertex of minimum remaining degree.  `nodes` counts search calls on top
    of the count passed in, so one `max_nodes` budget can span several
    searches; going past it raises BudgetExceededError.
    """

    def __init__(self, adjm: list[int], max_nodes: int | None, nodes: int = 0):
        self.adjm = adjm
        self.closed = [m | (1 << v) for v, m in enumerate(adjm)]
        self.max_nodes = max_nodes
        self.nodes = nodes

    def _tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(f"search exceeded {self.max_nodes} nodes")

    def _reduce(self, rem: int, taken: int) -> tuple[int, int]:
        """Repeatedly take vertices of remaining degree <= 1 (optimal-safe)."""
        adjm = self.adjm
        while True:
            changed = False
            for v in _iter_bits(rem):
                if not (rem >> v) & 1:
                    continue  # removed earlier in this same pass
                live = adjm[v] & rem
                if live & (live - 1) == 0:  # no neighbor or exactly one left
                    rem &= ~self.closed[v]
                    taken |= 1 << v
                    changed = True
            if not changed:
                return rem, taken

    def find(self, rem: int, k: int) -> int | None:
        """An independent set of size >= k inside `rem` as a mask, or None."""
        self._tick()
        if k <= 0:
            return 0
        rem, taken = self._reduce(rem, 0)
        k -= taken.bit_count()
        if k <= 0:
            return taken
        if rem == 0 or _clique_cover_bound(self.adjm, rem) < k:
            return None
        adjm = self.adjm
        v = max(_iter_bits(rem), key=lambda u: ((adjm[u] & rem).bit_count(), -u))
        found = self.find(rem & ~self.closed[v], k - 1)
        if found is not None:
            return taken | (1 << v) | found
        found = self.find(rem & ~(1 << v), k)
        return None if found is None else taken | found

    def fpt(self, rem: int, k: int) -> int | None:
        """An independent set of size exactly k inside `rem` as a mask, or None.

        Every independent set of size k can be moved to intersect the closed
        neighborhood of any vertex, so branching over the <= 18 members of a
        minimum-degree vertex's closed neighborhood and recursing with k-1
        explores at most 18^k nodes.
        """
        self._tick()
        if k == 0:
            return 0
        if rem == 0 or _clique_cover_bound(self.adjm, rem) < k:
            return None
        adjm, closed = self.adjm, self.closed
        v = min(_iter_bits(rem), key=lambda u: ((adjm[u] & rem).bit_count(), u))
        for u in _iter_bits(closed[v] & rem):
            found = self.fpt(rem & ~closed[u], k - 1)
            if found is not None:
                return found | (1 << u)
        return None


def _components(adj: tuple[tuple[int, ...], ...]) -> tuple[list[list[int]], list[int]]:
    """Connected components by smallest vertex, each in BFS order from that
    vertex, plus every vertex's BFS parent (-1 for a root)."""
    parent = [-2] * len(adj)  # -2: not reached yet
    comps = []
    for root in range(len(adj)):
        if parent[root] != -2:
            continue
        parent[root] = -1
        comp = [root]
        for v in comp:  # the list grows while it is scanned
            for u in adj[v]:
                if parent[u] == -2:
                    parent[u] = v
                    comp.append(u)
        comps.append(comp)
    return comps, parent


def _first_max_set(search: _Search, known: int) -> int:
    """Lexicographically smallest maximum independent set of the whole graph.

    `known` is an independent set, the component's share of the
    minimum-degree greedy set.  `find` first raises it to an optimum, one
    size at a time, until no larger set exists.  The witness pass then
    visits vertices in ascending order and takes each one that still leaves
    room for an optimum.  `known` stays an optimum that agrees with every
    decision so far: a vertex in it is taken without a search, and a
    successful search for any other vertex becomes the new `known`.
    """
    closed = search.closed
    rem = (1 << len(closed)) - 1
    while (better := search.find(rem, known.bit_count() + 1)) is not None:
        known = better
    need = known.bit_count()
    chosen = 0
    for i in range(len(closed)):
        if need == 0:
            break
        bit = 1 << i
        if not rem & bit:
            continue
        if not known & bit:
            found = search.find(rem & ~closed[i], need - 1)
            if found is None:
                rem &= ~bit
                continue
            known = found | bit
        chosen |= bit
        rem &= ~closed[i]
        need -= 1
    return chosen


def _exact_max_is(graph: ConflictGraph, max_nodes: int | None) -> tuple[tuple[int, ...], dict]:
    """`exact_max_is` plus its stats: nodes, components, largest component."""
    comps = [sorted(comp) for comp in _components(graph.adj)[0]]
    seed = bytearray(graph.n)
    for v in _greedy_min_degree(graph):
        seed[v] = 1
    nodes = 0
    witness: list[int] = []
    for verts in comps:
        search = _Search(_adjacency_masks(graph.adj, verts), max_nodes, nodes)
        known = sum(1 << j for j, v in enumerate(verts) if seed[v])
        witness.extend(verts[j] for j in _iter_bits(_first_max_set(search, known)))
        nodes = search.nodes
    stats = {"nodes": nodes, "components": len(comps), "largest_component": max(map(len, comps))}
    return tuple(sorted(witness)), stats


def exact_max_is(graph: ConflictGraph, max_nodes: int | None = None) -> tuple[tuple[int, ...], int]:
    """Maximum independent set with a deterministic witness.

    Each connected component is solved on its own masks, re-indexed to local
    bits in ascending vertex order.  The component's share of one
    minimum-degree greedy set is the first lower bound; branch and bound
    (`_Search.find`: max-degree branching, greedy clique-cover pruning,
    degree <= 1 reductions) raises it to an optimum, then a witness pass
    forces the lexicographically smallest optimum of the component index by
    index.  The union over components is the lexicographically smallest
    maximum independent set of the whole graph, since every forced choice
    constrains only its own component.  Returns (witness, explored nodes),
    the nodes summed over every component and both passes; max_nodes caps
    that total and raises BudgetExceededError past it.
    """
    witness, stats = _exact_max_is(graph, max_nodes)
    return witness, stats["nodes"]


def max_2_multipacking_exact(pts: PointSet, max_nodes: int | None = None) -> SolveReport:
    """Exact maximum 2-multipacking via independence in the conflict graph."""
    graph = build_conflict_graph(pts)
    witness, stats = _exact_max_is(graph, max_nodes)
    return SolveReport(
        size=len(witness),
        indices=witness,
        r=2,
        method="exact",
        stats={**stats, "max_degree": graph.max_degree()},
    )


# ---------------------------------------------------------------------------
# bounded-depth branching search (size exactly k)
# ---------------------------------------------------------------------------

def fpt_find_in_graph(
    graph: ConflictGraph, k: int, max_nodes: int | None = None
) -> tuple[tuple[int, ...] | None, int]:
    """Find an independent set of size exactly k, or report none.

    Runs `_Search.fpt` on the whole graph: at most 18^k nodes for a graph of
    maximum degree 17.  Returns (witness or None, explored nodes).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    search = _Search(_adjacency_masks(graph.adj, range(graph.n)), max_nodes)
    found = search.fpt((1 << graph.n) - 1, k)
    return (None if found is None else tuple(_iter_bits(found))), search.nodes


def fpt_2_multipacking(pts: PointSet, k: int, max_nodes: int | None = None) -> SolveReport:
    """2-multipacking of size exactly k; size 0 and no indices when none exists."""
    graph = build_conflict_graph(pts)
    witness, nodes = fpt_find_in_graph(graph, k, max_nodes=max_nodes)
    return SolveReport(
        size=0 if witness is None else k,
        indices=witness or (),
        r=2,
        method="fpt",
        stats={"nodes": nodes},
    )


# ---------------------------------------------------------------------------
# greedy with local search
# ---------------------------------------------------------------------------

def _greedy_min_degree(graph: ConflictGraph) -> list[int]:
    n = graph.n
    adj = graph.adj
    alive = [True] * n
    deg = [len(adj[v]) for v in range(n)]
    heap = [(deg[v], v) for v in range(n)]
    heapify(heap)
    chosen = []
    while heap:
        d, v = heappop(heap)
        if not alive[v]:
            continue
        if d != deg[v]:
            heappush(heap, (deg[v], v))
            continue
        chosen.append(v)
        killed = [v] + [u for u in adj[v] if alive[u]]
        for u in killed:
            alive[u] = False
        for u in killed:
            for w in adj[u]:
                if alive[w]:
                    deg[w] -= 1
                    heappush(heap, (deg[w], w))
    return sorted(chosen)


def _local_search(graph: ConflictGraph, members: list[int]) -> tuple[list[int], int, int]:
    """Improve an independent set until no free insert or 1-out/2-in swap applies.

    `members` must be sorted.  Each round counts every vertex's blockers
    (the members in its closed neighborhood) and then inserts the smallest
    vertex with none or, failing that, makes the first swap: the first member
    u, in ascending order, whose pool -- the vertices blocked by u alone, in
    ascending order -- holds a non-adjacent pair, and the first such pair.
    The pools are bucketed by owner in one pass, so a round costs O(n * D)
    for maximum degree D.  Returns (members, rounds, improvements); every
    round but the last makes one improvement.
    """
    n = graph.n
    adj = graph.adj
    rounds = 0
    improvements = 0
    while True:
        rounds += 1
        count = [0] * n
        owner = [-1] * n
        for w in members:
            for x in (w, *adj[w]):
                count[x] += 1
                owner[x] = w
        free = None
        pools: dict[int, list[int]] = {}
        for x in range(n):
            if count[x] == 0:
                free = x
                break
            if count[x] == 1:
                pools.setdefault(owner[x], []).append(x)
        if free is not None:
            members.append(free)
            members.sort()
            improvements += 1
            continue
        for u in members:
            pool = pools.get(u, [])
            pair = next(((x, y) for i, x in enumerate(pool) for y in pool[i + 1 :] if y not in adj[x]), None)
            if pair is not None:
                members.remove(u)
                members.extend(pair)
                members.sort()
                improvements += 1
                break
        else:
            return members, rounds, improvements


def greedy_2_multipacking(pts: PointSet) -> SolveReport:
    """Minimum-degree greedy on the conflict graph plus swap improvement.

    The greedy pass removes at most 18 vertices per pick, so the result has
    at least n/18 members.  Local search then repeatedly inserts any vertex
    that conflicts with nothing and applies 1-out/2-in swaps (drop one
    member, add two compatible vertices) until neither step applies.  Each
    round of it is one O(n * D) pass over the conflict graph (maximum degree
    D <= 17) and makes one improvement, except the last, so rounds =
    improvements + 1.
    """
    graph = build_conflict_graph(pts)
    members = _greedy_min_degree(graph)
    greedy_size = len(members)
    members, rounds, improvements = _local_search(graph, members)
    return SolveReport(
        size=len(members),
        indices=tuple(members),
        r=2,
        method="greedy",
        stats={
            "greedy_size": greedy_size,
            "rounds": rounds,
            "improvements": improvements,
            "max_degree": graph.max_degree(),
        },
    )


# ---------------------------------------------------------------------------
# degree audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeAudit:
    """Conflict-graph degree summary for one point set."""

    n: int
    max_degree: int
    argmax: int
    within_bound: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "max_degree": self.max_degree,
            "argmax": self.argmax,
            "within_bound": self.within_bound,
            "bound": DEGREE_BOUND,
        }


def max_degree_audit(pts: PointSet, graph: ConflictGraph | None = None) -> DegreeAudit:
    """Max conflict-graph degree; the construction guarantees at most 17."""
    if graph is None:
        graph = build_conflict_graph(pts)
    elif graph.n != pts.n:
        raise ValueError("graph does not match point set")
    degrees = [len(row) for row in graph.adj]
    top = max(degrees)
    return DegreeAudit(
        n=pts.n,
        max_degree=top,
        argmax=degrees.index(top),
        within_bound=top <= DEGREE_BOUND,
    )
