"""Shared test utilities: independent reference solvers, instance generators and small builders."""

import functools
import itertools
import os
from heapq import heapify, heappop, heappush
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import multipack
from multipack import (
    BudgetExceededError,
    NeighborTable,
    PointSet,
    SolveReport,
    Violation,
    build_neighbor_table,
    is_r_multipacking,
    squared_distance,
)
from multipack.geometry import nearest_order, nearest_profile


def pts1d(*coords) -> PointSet:
    return PointSet.of([(c,) for c in coords])


def pts2d(*coords) -> PointSet:
    return PointSet.of(list(coords))


def child_env() -> dict:
    """The environment for a child Python, with the package's absolute `src` first on PYTHONPATH:
    a relative entry (`PYTHONPATH=src`) does not resolve in a child started in another directory."""
    src = str(Path(multipack.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


@functools.cache
def sunflower(n: int) -> PointSet:
    """Point i at radius sqrt(i) and angle 3 sqrt(i), scaled by 10^6, jittered by +-3."""
    rng = np.random.default_rng(1)
    i = np.arange(n)
    rad, ang = np.sqrt(i), 3 * np.sqrt(i)
    xy = np.rint(np.column_stack((rad * np.cos(ang), rad * np.sin(ang))) * 10**6).astype(np.int64)
    return PointSet.of((xy + rng.integers(-3, 4, size=(n, 2))).tolist())


@functools.cache
def lattice(width: int) -> PointSet:
    """A width x width square lattice of spacing 10^6, jittered by +-1000."""
    rng = np.random.default_rng(1)
    rows, cols = np.divmod(np.arange(width * width), width)
    xy = np.column_stack((rows, cols)) * 10**6 + rng.integers(-1000, 1001, size=(width * width, 2))
    return PointSet.of(xy.tolist())


def save_three_decimals(n: int, path) -> None:
    """Write n random planar points in (-1000, 1000)^2 as a CSV of plain three-decimal
    coordinates ('-12.345'), the tokens `parse_coordinate` reads without `Fraction`."""
    xy = np.random.default_rng(1).integers(-10**6, 10**6, size=(n, 2))
    np.savetxt(path, xy / 1000, fmt="%.3f", delimiter=",", header="x,y", comments="")


def reference_prefix(pts, k):
    """Each point's k nearest neighbors by plain sorting, or the tie to raise.

    Returns (rows, None), or (None, (v, a, b)) for the smallest v with two
    equal distances among its first min(k+1, n-1); a < b are the two
    smallest indices of its first such tie.
    """
    n = pts.n
    rows = []
    for v in range(n):
        ranked = sorted((squared_distance(pts[v], pts[u]), u) for u in range(n) if u != v)
        ranked = ranked[: min(k + 1, n - 1)]
        for (d1, a), (d2, b) in zip(ranked, ranked[1:]):
            if d1 == d2:
                return None, (v, a, b)
        rows.append(tuple(u for _, u in ranked[:k]))
    return rows, None


def reference_ties(pts):
    """Every (v, a, b) with a < b equidistant from v, in (v, distance, a, b) order."""
    out = []
    for v in range(pts.n):
        groups = {}
        for u in range(pts.n):
            if u != v:
                groups.setdefault(squared_distance(pts[v], pts[u]), []).append(u)
        for _, tied in sorted(groups.items()):
            out.extend((v, a, b) for a, b in itertools.combinations(tied, 2))
    return out


def reference_exact_sort(arr, rows, cand):
    """Each row's candidates sorted by exact distance with one stable sort, ties in candidate order.

    Distances are |dx| on a line and squared distances in the plane, summed
    over a (rows, width, dim) array of differences.
    """
    diff = arr[cand] - arr[rows, None, :]
    if arr.shape[1] == 1:
        dist = np.abs(diff[:, :, 0])
    else:
        diff *= diff
        dist = diff.sum(axis=2)
    del diff
    order = np.argsort(dist, axis=1, kind="stable")  # stable: ties stay in candidate order
    return np.take_along_axis(dist, order, axis=1), np.take_along_axis(cand, order, axis=1)


def reference_greedy_1d(pts: PointSet, r: int) -> SolveReport:
    """The greedy sweep that re-runs the full checker after every insertion.

    O(n^2 * r): n sweep steps, each an O(n*r) check.
    """
    if pts.dim != 1:
        raise ValueError(f"greedy sweep needs dimension 1, got {pts.dim}")
    n = pts.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}, got {r}")
    table = NeighborTable(order=tuple(nearest_profile(pts, r)))
    sweep = sorted(range(n), key=lambda i: pts[i][0])
    members: set[int] = set()
    checks = 0
    for idx in sweep:
        members.add(idx)
        ok, _ = is_r_multipacking(pts, table, members, r)
        checks += 1
        if not ok:
            members.discard(idx)
    return SolveReport(
        size=len(members),
        indices=tuple(sorted(members)),
        r=r,
        method="greedy1d",
        stats={"checks": checks},
    )


def reference_slack_sweep_1d(pts: PointSet, r: int) -> SolveReport:
    """The greedy sweep as it was before the run-bound table: a slack matrix.

    The kept set is always an r-multipacking, so adding u can only break the
    constraints (v, s) with u in N_s[v]; u is kept when every one of them
    has slack left.  After ranking each point's r nearest neighbors,
    deciding u reads one integer per row that ranks it (n*(r+1) reads over
    the sweep), and keeping u rewrites those rows, O(r) integers each.
    Memory is O(n*r).  At r = n - 1 every row ranks every point, so each
    kept point rewrites all n rows of n - 1 integers; with at least
    floor(n/3) points kept, the keep updates total about n^3/3 integer
    writes or more.
    """
    if pts.dim != 1:
        raise ValueError(f"greedy sweep needs dimension 1, got {pts.dim}")
    n = pts.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}, got {r}")
    # ranked[v, k] is v's k-th nearest point; column 0 is v itself
    profile = nearest_order(pts, r).astype(np.int32)
    ranked = np.column_stack((np.arange(n, dtype=np.int32), profile))
    # where each point is ranked: slots[bounds[u]:bounds[u + 1]] are the flat
    # positions v*(r+1) + k with ranked[v, k] == u, kept in the narrowest
    # dtype that holds n*(r+1), which trims the sweep's peak memory
    slots = np.argsort(ranked, axis=None, kind="stable").astype(np.min_scalar_type(ranked.size))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ranked.ravel(), minlength=n))))
    del profile, ranked
    # low[v, s-1] = min over t >= s of floor((t+1)/2) - |N_t[v] & kept|; the
    # bounds rise with t, so for the empty set it is the bound at s itself
    low = np.tile(np.arange(2, r + 2, dtype=np.int32) >> 1, (n, 1))
    kept = []
    for u in sorted(range(n), key=lambda i: pts[i][0]):
        rows, rank = np.divmod(slots[bounds[u] : bounds[u + 1]], r + 1)
        cols = np.maximum(rank, 1) - 1  # u counts in N_s[v] for every s >= max(rank, 1)
        edge = low[rows, cols]
        if edge.min() < 1:
            continue
        # slack drops by one from column cols on: so does every suffix
        # minimum from cols on, and one before cols (never above the one at
        # cols) only when it equals it; both are the entries >= edge
        block = low[rows]
        block -= block >= edge[:, None]
        low[rows] = block
        kept.append(u)
    return SolveReport(
        size=len(kept),
        indices=tuple(sorted(kept)),
        r=r,
        method="greedy1d",
        stats={"checks": n},
    )


def shortest_path_mp_1d(pts: PointSet, r: int) -> int:
    """MP_r of a line as a shortest path over difference constraints.

    With y_j the number of members before place j (places count from 0 in
    coordinate order), a set is an r-multipacking iff y_{lo+s+1} - y_lo <=
    floor((s+1)/2) for every run [lo, lo + s] = N_s[v], and 0 <= y_{j+1} -
    y_j <= 1.  The largest feasible y_n - y_0 is the shortest path from
    place 0 to place n over the edges lo -> lo+s+1 (weight floor((s+1)/2)),
    j -> j+1 (weight 1) and j+1 -> j (weight 0); see Cormen et al.,
    Introduction to Algorithms, section 24.4.
    """
    n = pts.n
    by_x = sorted(range(n), key=lambda i: pts[i][0])
    place = np.empty(n, dtype=np.int64)
    place[by_x] = np.arange(n)
    rows = np.column_stack((place, place[nearest_order(pts, r)]))
    lo = np.minimum.accumulate(rows, axis=1)[:, 1:]
    hi = np.maximum.accumulate(rows, axis=1)[:, 1:]
    assert (hi - lo == np.arange(1, r + 1)).all(), "a neighbourhood is not a run of places"
    # one edge per distinct run: the sparse build sums duplicate entries
    runs = np.unique(lo * (n + 1) + hi + 1)
    steps = np.arange(n)
    tails = np.concatenate((runs // (n + 1), steps, steps + 1))
    heads = np.concatenate((runs % (n + 1), steps + 1, steps))
    weights = np.concatenate(((runs % (n + 1) - runs // (n + 1)) // 2, np.ones(n), np.zeros(n)))
    # explicit zeros are edges to csgraph, so the back edges must survive the build
    graph = csr_matrix((weights, (tails, heads)), shape=(n + 1, n + 1))
    assert graph.nnz == len(weights)
    return int(dijkstra(graph, indices=0)[n])


def reference_check(pts, table, members, r):
    """The checker as it was: a Python loop over the table, n*r entries.

    Returns (True, None) or (False, first violation), scanning ascending
    point index, then ascending s.
    """
    n = pts.n
    if table.n != n:
        raise ValueError("table does not match point set")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}, got {r}")
    if table.width < r:
        raise ValueError(f"table width {table.width} is below r={r}")
    flags = bytearray(n)
    for i in members:
        if not 0 <= i < n:
            raise ValueError(f"member index {i} out of range for n={n}")
        flags[i] = 1
    for v in range(n):
        count = flags[v]
        row = table.order[v]
        for s in range(1, r + 1):
            count += flags[row[s - 1]]
            bound = (s + 1) >> 1
            if count > bound:
                return False, Violation(v=v, s=s, count=count, bound=bound)
    return True, None


MALFORMED_TABLES = ("negative-entry", "entry-past-n", "float-entry", "nested-entry", "short-later-row", "narrow", "unequal-rows")


def malformed_table(pts, case, k):
    """A table of `pts` that a width-k read must reject, and the message it raises.

    `case` is one of MALFORMED_TABLES; every table has n rows.
    """
    rows = [list(row) for row in nearest_profile(pts, pts.n - 1)]
    message = "table does not match point set"
    if case == "negative-entry":
        rows[0][0] = -1
    elif case == "entry-past-n":
        rows[0][0] = pts.n
    elif case == "float-entry":
        rows[0][0] = float(rows[0][0])
    elif case == "nested-entry":
        rows[0][0] = (rows[0][0],)
    elif case == "short-later-row":
        rows[-1] = rows[-1][: k - 1]
    elif case == "narrow":
        rows = [row[: k - 1] for row in rows]
        message = f"table width {k - 1} is below r={k}"
    elif case == "unequal-rows":
        rows = [row if v % 2 == 0 else row[: k - 1] for v, row in enumerate(rows)]
    return NeighborTable(order=tuple(map(tuple, rows))), message


def assert_valid(pts, indices, r):
    table = build_neighbor_table(pts)
    ok, violation = is_r_multipacking(pts, table, indices, r)
    assert ok, f"witness {indices} invalid at r={r}: {violation}"


def naive_best_witness(pts, table, r):
    """Largest valid set by direct enumeration, lexicographically smallest.

    Checks combinations in decreasing size; within a size, itertools yields
    index tuples in lexicographic order, so the first hit is the tie-break
    winner the solvers promise.
    """
    n = pts.n
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            ok, _ = is_r_multipacking(pts, table, combo, r)
            if ok:
                return combo
    return ()


def naive_max_independent_sets(n, edges):
    """All maximum independent sets of a tiny graph, by enumeration."""
    adjacent = set()
    for u, v in edges:
        adjacent.add((u, v))
        adjacent.add((v, u))
    best_size = 0
    best = []
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            if all((a, b) not in adjacent for a, b in itertools.combinations(combo, 2)):
                best_size = size
                best.append(combo)
        if best:
            break
    return best_size, best


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_cover(adjm, rem):
    """Size of a greedy clique cover of `rem`; an upper bound on its independence number."""
    count = 0
    while rem:
        clique = rem & -rem
        for u in _bits(adjm[clique.bit_length() - 1] & rem):
            if adjm[u] & clique == clique:
                clique |= 1 << u
        rem &= ~clique
        count += 1
    return count


def reference_exact_max_is(graph):
    """The exact r=2 search as it was: per-component branch and bound.

    Each component, on local bits in ascending vertex order, starts from its
    share of the minimum-degree greedy set; `find` (take every vertex of
    live degree <= 1, prune by a greedy clique cover, branch on a vertex of
    maximum live degree) raises that set to an optimum one size at a time.
    A forced pass then takes each vertex, in ascending order, that still
    leaves room for an optimum; a vertex of the current optimum goes in
    without a search.  Returns the lexicographically smallest maximum
    independent set of the whole graph.  The greedy set only sets the
    starting bound, so the answer does not depend on it.
    """
    adj = graph.adj
    seed = set(reference_min_degree_greedy(graph))
    seen = set()
    witness = []
    for root in range(graph.n):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for v in comp:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        verts = sorted(comp)
        local = {v: j for j, v in enumerate(verts)}
        adjm = [sum(1 << local[u] for u in adj[v]) for v in verts]
        closed = [m | (1 << j) for j, m in enumerate(adjm)]

        def find(rem, k):
            if k <= 0:
                return 0
            taken = 0
            changed = True
            while changed:
                changed = False
                for v in _bits(rem):
                    live = adjm[v] & rem
                    if rem >> v & 1 and live & (live - 1) == 0:
                        rem &= ~closed[v]
                        taken |= 1 << v
                        changed = True
            k -= taken.bit_count()
            if k <= 0:
                return taken
            if rem == 0 or _clique_cover(adjm, rem) < k:
                return None
            v = max(_bits(rem), key=lambda u: ((adjm[u] & rem).bit_count(), -u))
            found = find(rem & ~closed[v], k - 1)
            if found is not None:
                return taken | (1 << v) | found
            found = find(rem & ~(1 << v), k)
            return None if found is None else taken | found

        rem = (1 << len(verts)) - 1
        known = sum(1 << j for j, v in enumerate(verts) if v in seed)
        while (better := find(rem, known.bit_count() + 1)) is not None:
            known = better
        need = known.bit_count()
        for i in range(len(verts)):
            bit = 1 << i
            if not (need and rem & bit):
                continue
            if not known & bit:
                found = find(rem & ~closed[i], need - 1)
                if found is None:
                    rem &= ~bit
                    continue
                known = found | bit
            witness.append(verts[i])
            rem &= ~closed[i]
            need -= 1
    return tuple(sorted(witness))


def reference_fpt(graph, k, max_nodes=None):
    """The fpt search as it was: a recursive depth-first search that branches
    over the closed neighborhood of a minimum-degree vertex (ties toward the
    smaller index), in ascending order, and prunes with a greedy clique cover.

    Returns (witness or None, calls made); past `max_nodes` calls it raises
    BudgetExceededError.  Its recursion is k deep.
    """
    adjm = [sum(1 << u for u in row) for row in graph.adj]
    closed = [m | (1 << v) for v, m in enumerate(adjm)]
    nodes = 0

    def find(rem, k):
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExceededError(f"search exceeded {max_nodes} nodes")
        if k == 0:
            return 0
        if rem == 0 or _clique_cover(adjm, rem) < k:
            return None
        v = min(_bits(rem), key=lambda u: ((adjm[u] & rem).bit_count(), u))
        for u in _bits(closed[v] & rem):
            found = find(rem & ~closed[u], k - 1)
            if found is not None:
                return found | (1 << u)
        return None

    found = find((1 << graph.n) - 1, k)
    return (None if found is None else tuple(_bits(found))), nodes


def reference_min_degree_greedy(graph):
    """The minimum-degree greedy as it was: one heap of (degree, vertex) tuples.

    Takes the live vertex of least (degree, index), kills it and its live
    neighbors, and returns the taken vertices sorted.
    """
    n = graph.n
    adj = graph.adj
    alive = [True] * n
    deg = [len(adj[v]) for v in range(n)]
    heap = [(deg[v], v) for v in range(n)]
    heapify(heap)
    chosen = []
    while heap:
        _, v = heappop(heap)
        if not alive[v]:  # degrees only fall, each fall pushes: a live vertex pops at its current degree
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


def reference_local_search(graph, members):
    """The greedy's swap loop as it was: one O(n) pool scan per member.

    O(n * |M|) per round.  `members` is a sorted list; returns
    (members, rounds, improvements).
    """
    n = graph.n
    adj = graph.adj
    rounds = 0
    improvements = 0
    while True:
        rounds += 1
        # blocker count per vertex: how many members cover it (self counts)
        count = [0] * n
        owner = [-1] * n
        for w in members:
            for x in (w, *adj[w]):
                count[x] += 1
                owner[x] = w
        free = next((x for x in range(n) if count[x] == 0), None)
        if free is not None:
            members.append(free)
            members.sort()
            improvements += 1
            continue
        swapped = False
        for u in members:
            pool = [x for x in range(n) if count[x] == 1 and owner[x] == u]
            done = False
            for i, x in enumerate(pool):
                for y in pool[i + 1 :]:
                    if y not in adj[x]:
                        members.remove(u)
                        members.extend((x, y))
                        members.sort()
                        improvements += 1
                        done = True
                        break
                if done:
                    break
            if done:
                swapped = True
                break
        if not swapped:
            break
    return members, rounds, improvements


def reference_forest_mis(graph):
    """The forest DP as it was: a dict-based DFS per component.

    Roots each component at its smallest index, visits children in ascending
    order and breaks keep/drop ties toward dropping.  `graph` must be a
    forest; the old DP's own forest check is left out.
    """
    n = graph.n
    adj = graph.adj
    visited = [False] * n
    take: list[int] = []
    for root in range(n):
        if visited[root]:
            continue
        # iterative DFS: preorder plus parent/children bookkeeping
        order = []
        parent = {root: -1}
        children: dict[int, list[int]] = {}
        stack = [root]
        visited[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            kids = [u for u in adj[v] if u != parent[v]]
            children[v] = kids
            for u in reversed(kids):
                visited[u] = True
                parent[u] = v
                stack.append(u)
        in_sz = {}
        out_sz = {}
        for v in reversed(order):
            in_sz[v] = 1 + sum(out_sz[c] for c in children[v])
            out_sz[v] = sum(max(in_sz[c], out_sz[c]) for c in children[v])
        walk = [(root, False)]
        while walk:
            v, forced_out = walk.pop()
            keep = not forced_out and in_sz[v] > out_sz[v]
            if keep:
                take.append(v)
            for c in children[v]:
                walk.append((c, keep))
    return tuple(sorted(take))


def reference_adjacency_fault(n, adj):
    """The message `ConflictGraph` raises for (n, adj), or None: the per-row loop
    it ran before its checks became whole-array tests."""
    if n < 1 or len(adj) != n:
        return "adjacency size does not match n"
    for v, row in enumerate(adj):
        if list(row) != sorted(set(row)):
            return f"adjacency of {v} must be sorted and duplicate-free"
        for u in row:
            if not 0 <= u < n:
                return f"vertex {u} out of range"
            if u == v:
                return f"loop at {v}"
            if v not in adj[u]:
                return f"edge {v}-{u} is not symmetric"
    return None


def _reference_popcount_table(n_bits):
    size = 1 << n_bits
    pop = np.zeros(size, dtype=np.uint8)
    block = 1
    while block < size:
        pop[block : 2 * block] = pop[:block] + 1
        block *= 2
    return pop


def _reference_bit_reverse_table(n_bits):
    size = 1 << n_bits
    masks = np.arange(size, dtype=np.uint32)
    rev = np.zeros(size, dtype=np.uint32)
    for b in range(n_bits):
        rev |= ((masks >> np.uint32(b)) & np.uint32(1)) << np.uint32(n_bits - 1 - b)
    return rev


def reference_violation_scan(table):
    """The oracle's earlier scan: one popcount pass over all 2^n masks per (s, v).

    Returns (first_bad_s, popcount, bit_reversal) arrays indexed by mask;
    first_bad_s is n where no s up to the table's width is broken.  Writing
    larger s first and overwriting with smaller s leaves the minimum.
    """
    n = table.n
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
    pop = _reference_popcount_table(n)
    rev = _reference_bit_reverse_table(n)
    # prefix[v][s] = mask of v plus its s nearest points
    prefix = []
    for v in range(n):
        row = [1 << v]
        for u in table.order[v]:
            row.append(row[-1] | (1 << u))
        prefix.append(row)
    first_bad = np.full(size, n, dtype=np.int16)
    for s in range(table.width, 0, -1):
        bound = (s + 1) >> 1
        for v in range(n):
            counts = pop[masks & np.uint32(prefix[v][s])]
            first_bad[counts > bound] = s
    return first_bad, pop, rev


def reference_oracle_report(first_bad, pop, rev, r):
    """The oracle's report for radius r from `reference_violation_scan` arrays."""
    valid = first_bad > r
    best = int(pop[valid].max())
    candidates = np.nonzero(valid & (pop == best))[0]
    # lexicographically smallest index tuple == largest bit-reversed mask
    winner = int(candidates[np.argmax(rev[candidates])])
    return SolveReport(
        size=best,
        indices=tuple(i for i in range(len(first_bad).bit_length() - 1) if winner >> i & 1),
        r=r,
        method="bruteforce",
        stats={"subsets": int(first_bad.size)},
    )
