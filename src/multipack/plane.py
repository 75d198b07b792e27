"""Planar multipacking solvers built on two derived graphs.

Both graphs put a clique on each point's closed k-neighborhood: the point
and its k nearest.  For radius 1 (k = 1) the maximum multipackings of a
point set are exactly the maximum independent sets of this
nearest-neighbor graph, which is a forest, so a tree DP solves them.  For
radius 2 (k = 2) they are the maximum independent sets of the conflict
graph, with one triangle {v, first(v), second(v)} per point.  Most of its
vertices are simplicial (their neighbors form a clique), which the exact
search takes outright before it branches; the maximum degree of at most 17
bounds the size-k search's branching tree and the greedy approximation
below.  That greedy picks vertices from a bucket queue (one heap of vertex
ids per degree) and then improves its set in local-search rounds, each a
fixed number of numpy passes over the graph's directed edge keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations
from numbers import Integral
from typing import Iterable

import numpy as np

from .geometry import NeighborTable, PointSet, _ranking, nearest_order
from .multipacking import BudgetExceededError, SolveReport

DEGREE_BOUND = 17


class NotAForestError(RuntimeError):
    """Nearest-neighbor graph contained a cycle; upstream ordering is broken."""


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected simple graph in canonical form: row v holds v's neighbors,
    integers in 0..n-1 in strictly increasing order, each edge at both ends.

    Its directed edge keys v * n + u, ascending, live in a private
    attribute `_keys` that is not a field; the greedy's local search reads
    them.  A graph built here from index pairs is canonical by construction
    and skips validation.  Both constructors take n only as an integer >= 1
    that is not a bool.  `ConflictGraph(n, adj)` then checks every row in
    one pass and names the first fault; `from_edges` checks each endpoint
    and rejects a loop, naming the smallest looped vertex."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if not _is_size(n) or len(self.adj) != n:
            raise ValueError("adjacency size does not match n")
        _raise_first_fault(n, self.adj)
        owner = np.repeat(np.arange(n), [len(row) for row in self.adj])
        flat = np.array([int(u) for u in chain.from_iterable(self.adj)], dtype=np.int64)
        object.__setattr__(self, "_keys", owner * n + flat)  # frozen, but not a field

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ConflictGraph":
        if not _is_size(n):
            raise ValueError("adjacency size does not match n")
        pairs = [(a, b) for a, b in edges]
        for u in chain.from_iterable(pairs):
            if not isinstance(u, Integral):
                raise ValueError(f"vertex {u!r} out of range")
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} out of range")
        src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        loops = src[src == dst]
        if loops.size:
            raise ValueError(f"loop at {loops.min()}")
        return _from_pairs(n, src, dst)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in self.adj[v] if v < u]

    def max_degree(self) -> int:
        return max(len(row) for row in self.adj)


def _is_size(n) -> bool:
    return isinstance(n, Integral) and not isinstance(n, bool) and n >= 1


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
    in both directions, duplicates merged; endpoints must be in range and
    distinct, as the graph is not validated."""
    src, dst = src.astype(np.int64), dst.astype(np.int64)
    keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))  # by (row, neighbor)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    bounds = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    nbrs = (keys % n).tolist()
    adj = tuple(tuple(nbrs[bounds[v] : bounds[v + 1]]) for v in range(n))
    graph = object.__new__(ConflictGraph)  # canonical by construction: skips __post_init__
    for name, value in (("n", n), ("adj", adj), ("_keys", keys)):
        object.__setattr__(graph, name, value)  # frozen
    return graph


def edge_list_text(graph: ConflictGraph) -> str:
    """Debug dump: one 'u v' line per edge with u < v, sorted."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges())


def _from_order(n: int, order: np.ndarray) -> ConflictGraph:
    """A clique on {v} + order[v] for every v: with each point's k nearest as
    its row, the k = 1 nearest-neighbor forest or the k = 2 conflict graph."""
    closed = np.vstack((np.arange(n), order.T))  # row 0 every v, row j each v's j-th nearest
    first, second = np.array(list(combinations(range(len(closed)), 2))).T
    return _from_pairs(n, closed[first].ravel(), closed[second].ravel())


def _graph(pts: PointSet, table: NeighborTable | None, k: int) -> ConflictGraph:
    """`_from_order` on each point's k nearest.  Read from the set's own ranking,
    the graph is built once and kept next to it; a validated table builds afresh."""
    if pts.n < k + 1:
        raise ValueError(f"need at least {k + 1} points")
    if table is not None:
        return _from_order(pts.n, table._prefix(pts.n, k))
    graphs = _ranking(pts).graphs
    if k not in graphs:
        graphs[k] = _from_order(pts.n, nearest_order(pts, k))  # a tie raises here: nothing is kept
    return graphs[k]


def build_nearest_neighbor_graph(pts: PointSet, table: NeighborTable | None = None) -> ConflictGraph:
    """Edge from every point to its unique nearest point (deduplicated)."""
    return _graph(pts, table, 1)


def build_conflict_graph(pts: PointSet, table: NeighborTable | None = None) -> ConflictGraph:
    """Triangle on {v, first(v), second(v)} for every v; independence in the
    result is exactly the radius-2 multipacking condition."""
    return _graph(pts, table, 2)


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
# exact independent set (memoized component search on bitmasks)
# ---------------------------------------------------------------------------

def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _grow(adjm: list[int], rem: int, todo: int) -> int:
    """The component of `rem` that holds `todo`'s vertices (all in one component)."""
    comp = 0
    while todo:
        low = todo & -todo
        comp |= low
        todo = (todo | adjm[low.bit_length() - 1] & rem) & ~comp
    return comp


class _Search:
    """Independent-set search over the vertex masks of the subgraph on
    `verts` (a union of components of `adj`), with bit j standing for
    verts[j].

    `size` is the independence number of a vertex mask, with one maximum
    independent set inside it as a mask.  It splits the mask into connected
    components and solves each one once, keeping both answers in `memo` by
    component mask: it takes every simplicial vertex (its remaining
    neighbors are pairwise adjacent, so some optimum holds it), then
    branches on a vertex of maximum remaining degree (ties toward the
    smaller index), in or out, keeping the in branch's set on a tie (Fomin
    & Kratsch, *Exact Exponential Algorithms*, 2010, ch. 6).  `fpt` walks the tree that branches over the
    closed neighborhood of a vertex of minimum remaining degree, asking
    `size` which child to enter.  `nodes` counts the components `size`
    solves and the tree nodes `fpt` visits on top of the count passed in,
    so one `max_nodes` budget can span several searches; going past it
    raises BudgetExceededError.
    """

    def __init__(self, adj: tuple[tuple[int, ...], ...], verts, max_nodes: int | None, nodes: int = 0):
        local = {v: j for j, v in enumerate(verts)}
        self.adjm = []
        for v in verts:
            m = 0
            for u in adj[v]:
                m |= 1 << local[u]
            self.adjm.append(m)
        self.closed = [m | (1 << v) for v, m in enumerate(self.adjm)]
        self.max_nodes = max_nodes
        self.nodes = nodes
        self.memo: dict[int, tuple[int, int]] = {}

    def _tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(f"search exceeded {self.max_nodes} nodes")

    def size(self, rem: int) -> tuple[int, int]:
        """Size of a maximum independent set inside `rem`, and one such set as a mask."""
        adjm, memo = self.adjm, self.memo
        total, found = 0, 0
        while rem:
            comp = _grow(adjm, rem, rem & -rem)
            rem &= ~comp
            if comp not in memo:
                memo[comp] = self._component(comp)
            size, mask = memo[comp]
            total += size
            found |= mask
        return total, found

    def _component(self, rem: int) -> tuple[int, int]:
        """`size` of the connected mask `rem`."""
        self._tick()
        adjm, closed = self.adjm, self.closed
        # Taking a simplicial vertex keeps every remaining simplicial vertex
        # simplicial, and two adjacent simplicial vertices share their closed
        # neighborhood, so every peel order ends at the same kernel (Newman's
        # lemma).  A vertex is checked again only once a neighbor has left.
        taken, todo = 0, rem
        while todo:
            low = todo & -todo
            todo ^= low
            live = adjm[low.bit_length() - 1] & rem
            for u in _iter_bits(live):
                if live & ~closed[u]:
                    break  # two live neighbors are not adjacent
            else:
                rem &= ~(live | low)
                taken |= low
                for u in _iter_bits(live):
                    todo |= adjm[u]
                todo &= rem
        if rem:
            v = max(_iter_bits(rem), key=lambda u: ((adjm[u] & rem).bit_count(), -u))
            size_in, mask_in = self.size(rem & ~closed[v])
            size_out, mask_out = self.size(rem & ~(1 << v))
            taken |= mask_in | 1 << v if size_in + 1 >= size_out else mask_out
        return taken.bit_count(), taken

    def fpt(self, rem: int, k: int) -> tuple[int | None, int]:
        """An independent set of size exactly k inside `rem` as a mask, or
        None, and the branching-tree nodes visited: at most 1 + 18k.

        Any independent set of size k can be moved to meet the closed
        neighborhood of any vertex v, so each level takes the first u, in
        ascending order, among the <= 18 of v (of minimum remaining degree)
        whose removal leaves room for k - 1 more by `size`: the set the
        depth-first search over this tree finds, without backtracking.
        """
        self._tick()
        if self.size(rem)[0] < k:
            return None, 1
        adjm, closed = self.adjm, self.closed
        found, visited = 0, 1
        for need in range(k - 1, -1, -1):
            v = min(_iter_bits(rem), key=lambda u: ((adjm[u] & rem).bit_count(), u))
            for u in _iter_bits(closed[v] & rem):
                self._tick()
                visited += 1
                if self.size(rem & ~closed[u])[0] >= need:
                    break
            found |= 1 << u
            rem &= ~closed[u]
        return found, visited


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


def _first_max_set(search: _Search) -> int:
    """Lexicographically smallest maximum independent set of the whole graph.

    Visits vertices in ascending order and takes each one that still leaves
    room for an optimum of the mask `rem` left so far.  It keeps `known`, one
    optimum of `rem`, so that most vertices need no `size` query: a vertex
    with at most one neighbor in `known` is taken outright, and any other is
    decided by one query on its own component of `rem`.
    """
    closed = search.closed
    rem = (1 << len(closed)) - 1
    known = search.size(rem)[1]
    chosen = 0
    while known:
        bit = rem & -rem
        i = bit.bit_length() - 1
        # i in known: known - i is an optimum of rem - N[i].  If i has just one
        # neighbor j in known, known - j + i is independent and as large, so it
        # is an optimum that holds i, and known - N[i] is one of rem - N[i].
        if (known & closed[i]).bit_count() > 1:
            # Components of rem are solved apart, and known meets each in an
            # optimum of it; only i's component C loses N[i].  So an optimum of
            # rem holds i iff C - N[i] has one fewer than known & C.
            comp = _grow(search.adjm, rem, bit)
            size, mask = search.size(comp & ~closed[i])
            if size < (known & comp).bit_count() - 1:
                rem ^= bit  # known misses i, so it stays an optimum of rem - i
                continue
            known = known & ~comp | mask
        chosen |= bit
        rem &= ~closed[i]
        known &= ~closed[i]
    return chosen


def _exact_max_is(graph: ConflictGraph, max_nodes: int | None) -> tuple[tuple[int, ...], dict]:
    """`exact_max_is` plus its stats: nodes, components, largest component."""
    comps = [sorted(comp) for comp in _components(graph.adj)[0]]
    nodes = 0
    witness: list[int] = []
    for verts in comps:
        search = _Search(graph.adj, verts, max_nodes, nodes)
        witness.extend(verts[j] for j in _iter_bits(_first_max_set(search)))
        nodes = search.nodes
    stats = {"nodes": nodes, "components": len(comps), "largest_component": max(map(len, comps))}
    return tuple(sorted(witness)), stats


def exact_max_is(graph: ConflictGraph, max_nodes: int | None = None) -> tuple[tuple[int, ...], int]:
    """Maximum independent set with a deterministic witness.

    Each connected component is solved on its own masks, re-indexed to local
    bits in ascending vertex order.  `_Search.size` gives its optimum size
    and one optimum set, then a witness pass (`_first_max_set`) forces the
    lexicographically smallest optimum of the component index by index.  It
    keeps a known optimum of what is left: a vertex with at most one
    neighbor in it goes in with no query, and any other is decided by one
    `size` query on its own component of what is left.  The union over
    components is the lexicographically smallest maximum independent set of
    the whole graph, since every forced choice constrains only its own
    component.  Returns (witness, explored nodes): the sub-components
    solved (memo misses), summed over every component and both passes;
    max_nodes caps that total and raises BudgetExceededError past it.
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

    Runs `_Search.fpt` on the whole graph.  Returns (witness or None,
    branching-tree nodes visited): at most 1 + 18k on a graph of maximum
    degree 17, and 1 when no set of size k exists.  `max_nodes` caps the
    search's one node count, those tree nodes plus the sub-components the
    `size` oracle solves, and raises BudgetExceededError past it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    search = _Search(graph.adj, range(graph.n), max_nodes)
    found, visited = search.fpt((1 << graph.n) - 1, k)
    return (None if found is None else tuple(_iter_bits(found))), visited


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
    """Minimum-degree greedy independent set, sorted (Halldórsson &
    Radhakrishnan, Algorithmica 1997).

    Repeatedly takes the live vertex of least (live degree, index) and kills
    it and its live neighbors.  The queue is one heap of vertex ids per
    degree, searched from the lowest non-empty one.  Degrees only fall, and
    each fall pushes the vertex onto its new degree's heap, so the lowest
    entry of a live vertex sits at its current degree; entries of dead
    vertices are skipped when they pop.
    """
    adj = graph.adj
    deg = list(map(len, adj))
    alive = [True] * graph.n
    buckets: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)  # ascending ids: each list is already a heap
    chosen = []
    low = 0
    while True:
        while low < len(buckets) and not buckets[low]:
            low += 1
        if low == len(buckets):
            return sorted(chosen)
        v = heappop(buckets[low])
        if not alive[v]:
            continue
        chosen.append(v)
        killed = [v] + [u for u in adj[v] if alive[u]]
        for u in killed:
            alive[u] = False
        for u in killed:
            for w in adj[u]:
                if alive[w]:
                    d = deg[w] = deg[w] - 1
                    heappush(buckets[d], w)
                    if d < low:
                        low = d


def _local_search(graph: ConflictGraph, members: list[int]) -> tuple[list[int], int, int]:
    """Improve an independent set until no free insert or 1-out/2-in swap applies.

    Each round counts every vertex's blockers (the members in its closed
    neighborhood) with one `bincount` over the graph's directed edges, then
    inserts the smallest vertex with none or, failing that, makes the first
    swap: the first member u, in ascending order, whose pool -- the vertices
    blocked by u alone, in ascending order -- holds a non-adjacent pair, and
    the first such pair.  The pools are the edges (u, x) from a member to a
    vertex of count 1, which the edge order already lists by (u, x); their
    pairs are listed in (u, x, y) order and looked up in the sorted edge
    keys.  (u itself is in its pool too, but adjacent to all of it.)  So a
    round is a fixed number of array passes, O(n * D) for maximum degree D.
    Returns (sorted members, rounds, improvements); every round but the last
    makes one improvement.
    """
    n = graph.n
    keys = graph._keys
    src, dst = np.divmod(keys, n)
    keys = np.append(keys, n * n)  # above every key: a lookup never runs off the end
    chosen = np.zeros(n, dtype=bool)
    chosen[members] = True
    rounds = 0
    improvements = 0
    while True:
        rounds += 1
        covers = chosen[src]
        count = np.bincount(dst[covers], minlength=n) + chosen
        free = count.argmin()
        if count[free] == 0:
            chosen[free] = True
            improvements += 1
            continue
        alone = covers & (count[dst] == 1)
        owner, pool = src[alone], dst[alone]
        # pair (i, j), i < j, for each two entries of one pool, by (i, j)
        after = np.arange(1, owner.size + 1)
        later = np.searchsorted(owner, owner, side="right") - after
        first = np.repeat(after - 1, later)
        second = np.arange(first.size) + np.repeat(after + later - np.cumsum(later), later)
        pair = pool[first] * n + pool[second]
        apart = np.flatnonzero(keys[np.searchsorted(keys, pair)] != pair)
        if not apart.size:
            return np.flatnonzero(chosen).tolist(), rounds, improvements
        i, j = first[apart[0]], second[apart[0]]
        chosen[owner[i]] = False
        chosen[pool[i]] = chosen[pool[j]] = True
        improvements += 1


def greedy_2_multipacking(pts: PointSet) -> SolveReport:
    """Minimum-degree greedy on the conflict graph plus swap improvement.

    The greedy pass takes vertices from a bucket queue by least (degree,
    index) and removes at most 18 vertices per pick, so the result has at
    least n/18 members.  Local search then repeatedly inserts any vertex
    that conflicts with nothing and applies 1-out/2-in swaps (drop one
    member, add two compatible vertices) until neither step applies.  Each
    round of it is one O(n * D) pass over the conflict graph (maximum degree
    D <= 17), run as array passes over its directed edges, and makes one
    improvement, except the last, so rounds = improvements + 1.
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
