import hashlib
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MALFORMED_TABLES,
    lattice,
    malformed_table,
    naive_max_independent_sets,
    pts2d,
    reference_adjacency_fault,
    reference_exact_max_is,
    reference_fpt,
    reference_forest_mis,
    reference_local_search,
    reference_min_degree_greedy,
    sunflower,
)
from multipack import (
    BudgetExceededError,
    ConflictGraph,
    NeighborTable,
    NotAForestError,
    PointSet,
    bruteforce_max_r_multipacking,
    build_conflict_graph,
    build_nearest_neighbor_graph,
    build_neighbor_table,
    edge_list_text,
    exact_max_is,
    forest_max_independent_set,
    fpt_2_multipacking,
    fpt_find_in_graph,
    greedy_2_multipacking,
    is_r_multipacking,
    max_1_multipacking,
    max_2_multipacking_exact,
    max_degree_audit,
)
from multipack.geometry import nearest_order, nearest_profile
from multipack.instances import pentagon_five, random_point_set
from multipack.plane import DEGREE_BOUND, _from_pairs, _greedy_min_degree, _local_search, _Search

QUAD = pts2d((0, 0), (1, 0), (3, 0), (7, 0))


def graph_edges(graph: ConflictGraph) -> set:
    return set(graph.edges())


def test_nng_collinear_quad_is_a_path():
    graph = build_nearest_neighbor_graph(QUAD)
    assert graph_edges(graph) == {(0, 1), (1, 2), (2, 3)}


def test_nng_two_points():
    graph = build_nearest_neighbor_graph(pts2d((0, 0), (5, 1)))
    assert graph_edges(graph) == {(0, 1)}


def test_nng_two_far_mutual_pairs():
    graph = build_nearest_neighbor_graph(pts2d((0, 0), (1, 0), (1000, 3), (1001, 3)))
    assert graph_edges(graph) == {(0, 1), (2, 3)}


def test_nng_is_always_a_forest():
    for seed in range(25):
        graph = build_nearest_neighbor_graph(random_point_set(20, dim=2, seed=seed))
        assert len(graph.edges()) < graph.n


def test_forest_dp_path_and_star():
    path4 = ConflictGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert len(forest_max_independent_set(path4)) == 2
    edge = ConflictGraph.from_edges(2, [(0, 1)])
    assert len(forest_max_independent_set(edge)) == 1
    star = ConflictGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    assert forest_max_independent_set(star) == (1, 2, 3, 4, 5)


def test_forest_dp_rejects_cycles():
    triangle = ConflictGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    square = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    for graph in (triangle, square, build_conflict_graph(QUAD)):
        with pytest.raises(NotAForestError):
            forest_max_independent_set(graph)


@st.composite
def _forests(draw) -> ConflictGraph:
    """Random forests on shuffled labels: random trees, stars, long paths and isolated vertices."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["random", "star", "path", "mixed"]))
    parents = []  # None: v starts a new tree
    for v in range(1, n):
        if shape == "star":
            parents.append(0)
        elif shape == "path":
            parents.append(v - 1)
        elif shape == "random":
            parents.append(draw(st.integers(0, v - 1)))
        else:
            parents.append(draw(st.none() | st.integers(0, v - 1)))
    labels = draw(st.permutations(range(n)))
    return ConflictGraph.from_edges(n, [(labels[v], labels[p]) for v, p in enumerate(parents, 1) if p is not None])


_forest_graphs = st.one_of(
    _forests(),
    st.builds(lambda n, seed: build_nearest_neighbor_graph(random_point_set(n, dim=2, seed=seed)),
              st.integers(2, 80), st.integers(0, 10**6)),
)


def _cycle_closing_pairs(graph: ConflictGraph) -> list[tuple[int, int]]:
    """Non-adjacent pairs inside one tree of a forest; each closes a cycle."""
    tree = list(range(graph.n))
    for a, b in graph.edges():
        tree = [tree[a] if t == tree[b] else t for t in tree]
    return [(a, b) for a in range(graph.n) for b in range(a + 1, graph.n)
            if tree[a] == tree[b] and b not in graph.adj[a]]


@settings(max_examples=300, deadline=None)
@given(graph=_forest_graphs, data=st.data())
def test_forest_dp_matches_reference(graph, data):
    assert forest_max_independent_set(graph) == reference_forest_mis(graph)
    pairs = _cycle_closing_pairs(graph)
    if pairs:
        chord = data.draw(st.sampled_from(pairs), label="chord")
        with pytest.raises(NotAForestError):
            forest_max_independent_set(ConflictGraph.from_edges(graph.n, [*graph.edges(), chord]))


def test_nng_witnesses_are_pinned():
    # any change to the forest witness (roots, keep/drop ties) changes these digests
    digests = [hashlib.sha1(repr((r.indices, sorted(r.stats.items()))).encode()).hexdigest()
               for r in (max_1_multipacking(random_point_set(5000, seed=s, audit="none")) for s in (1, 6, 9))]
    assert digests == [
        "63bd5c0e27bb831c633b7e83e51364d28b18e34e",
        "e44db52c4e494929b6bb1a40a3a07c722edb8a92",
        "b97585cd5dbaccd5e88ef25abe5c6911d18c7122",
    ]


def test_n5000_graphs_are_pinned():
    # the conflict graph and the nearest-neighbor forest, byte for byte as `edge_list_text` dumps them
    digests = [
        tuple(hashlib.sha1(edge_list_text(build(pts)).encode()).hexdigest()
              for build in (build_conflict_graph, build_nearest_neighbor_graph))
        for pts in (random_point_set(5000, seed=s, audit="none") for s in (1, 6, 9))
    ]
    assert digests == [
        ("74b279215692cd01841ae61215c4f107c556921b", "49b75ea0142a4254e7460d03f97a9e8bd2a11ac0"),
        ("5ef21c10c9a21d02555a9c52e8fe8ac81358f5b2", "25fd0e9facda75a2a5f8d1b3fcb23aff25becf08"),
        ("434f901bfebbc314b684527cd14bc600bdd4d935", "7d1c360df5eacda4b76f2f099966fc88db87de4d"),
    ]


_SIX = pts2d((0, 0), (1, 0), (3, 0), (7, 1), (4, 9), (12, 20))


@pytest.mark.parametrize("call, message", [
    (lambda: build_conflict_graph(_SIX, NeighborTable(order=tuple(nearest_profile(_SIX, 2))[:5])),
     "table does not match point set"),
    (lambda: build_conflict_graph(_SIX, NeighborTable(order=((1, 2),) * 7)), "table does not match point set"),
    (lambda: build_nearest_neighbor_graph(_SIX, NeighborTable(order=tuple(nearest_profile(_SIX, 1))[:5])),
     "table does not match point set"),
    (lambda: build_nearest_neighbor_graph(_SIX, NeighborTable(order=((1,),) * 7)), "table does not match point set"),
    (lambda: build_conflict_graph(_SIX, NeighborTable(order=((1, 6),) * 6)), "table does not match point set"),
    (lambda: max_degree_audit(_SIX, ConflictGraph.from_edges(7, [(0, 6)])), "graph does not match point set"),
], ids=["conflict-short-table", "conflict-long-table", "nng-short-table", "nng-long-table",
        "conflict-table-out-of-range", "audit-larger-graph"])
def test_derived_data_of_another_point_set_is_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("case", MALFORMED_TABLES)
@pytest.mark.parametrize("build, k", [(build_nearest_neighbor_graph, 1), (build_conflict_graph, 2)],
                         ids=["nng", "conflict"])
def test_builders_reject_malformed_tables(build, k, case):
    table, message = malformed_table(_SIX, case, k)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(_SIX, table)


def test_builders_read_a_library_table_as_the_set_ranks():
    for pts in (pentagon_five(), random_point_set(60, dim=2, seed=3), random_point_set(150, dim=2, seed=3)):
        table = build_neighbor_table(pts)
        assert build_conflict_graph(pts, table) == build_conflict_graph(pts)
        assert build_nearest_neighbor_graph(pts, table) == build_nearest_neighbor_graph(pts)
        assert "order" not in table.__dict__


def test_max_1_multipacking_examples():
    assert max_1_multipacking(QUAD).size == 2
    assert max_1_multipacking(pts2d((0, 0), (9, 2))).size == 1
    one = max_1_multipacking(pts2d((5, 7)))
    assert (one.indices, one.stats) == ((0,), {"components": 1, "edges": 0})


def test_max_1_multipacking_pentagon():
    # a 5-vertex forest always has an independent set of size >= 3, so every
    # 5-point set does too; the oracle pins the pentagon at exactly 3
    pent = pentagon_five()
    report = max_1_multipacking(pent)
    assert report.size == 3
    assert report.size == bruteforce_max_r_multipacking(pent, 1).size


def test_max_1_multipacking_matches_oracle():
    for seed in range(30):
        n = 3 + seed % 8
        pts = random_point_set(n, dim=2, seed=seed)
        table = build_neighbor_table(pts)
        report = max_1_multipacking(pts)
        assert report.size == bruteforce_max_r_multipacking(pts, 1).size
        assert is_r_multipacking(pts, table, report.indices, 1)[0]


def test_conflict_graph_collinear_quad():
    graph = build_conflict_graph(QUAD)
    assert graph_edges(graph) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


def test_conflict_graph_three_points_is_triangle():
    graph = build_conflict_graph(random_point_set(3, dim=2, seed=2))
    assert graph_edges(graph) == {(0, 1), (0, 2), (1, 2)}


def test_conflict_graph_pentagon_is_complete():
    graph = build_conflict_graph(pentagon_five())
    assert len(graph.edges()) == 10
    assert graph.max_degree() == 4


def test_conflict_graph_needs_three_points():
    with pytest.raises(ValueError):
        build_conflict_graph(pts2d((0, 0), (1, 0)))


def test_exact_is_small_graphs():
    k5 = ConflictGraph.from_edges(5, itertools.combinations(range(5), 2))
    witness, _ = exact_max_is(k5)
    assert witness == (0,)
    path4 = ConflictGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    witness, _ = exact_max_is(path4)
    assert witness == (0, 2)


def test_exact_is_on_quad_conflict_graph():
    witness, _ = exact_max_is(build_conflict_graph(QUAD))
    assert witness == (0, 3)


def test_exact_is_matches_naive_enumeration():
    for seed in range(30):
        n = 6 + seed % 9
        graph = build_conflict_graph(random_point_set(n, dim=2, seed=100 + seed))
        witness, _ = exact_max_is(graph)
        best_size, best_sets = naive_max_independent_sets(n, graph.edges())
        assert len(witness) == best_size
        assert witness == min(best_sets)
    # 2-4 connected components whose vertex labels interleave
    for seed in range(40):
        graph = _interleaved_components(seed)
        witness, _ = exact_max_is(graph)
        best_size, best_sets = naive_max_independent_sets(graph.n, graph.edges())
        assert len(witness) == best_size
        assert witness == min(best_sets)


@pytest.mark.parametrize("n, edges, greedy, optimum", [
    # the min-degree greedy takes 4 first and ends one short of the optimum
    (7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 5), (3, 6)],
     [2, 3, 4], (0, 1, 5, 6)),
    # two short
    (10, [(0, 2), (0, 4), (0, 6), (1, 2), (1, 4), (1, 7), (1, 8), (1, 9), (2, 5), (3, 5),
          (3, 6), (3, 7), (3, 8), (4, 5), (5, 6), (5, 7), (5, 8), (6, 9), (7, 9), (8, 9)],
     [0, 1, 3], (2, 4, 6, 7, 8)),
])
def test_min_degree_greedy_falls_below_the_optimum(n, edges, greedy, optimum):
    graph = ConflictGraph.from_edges(n, edges)
    assert _greedy_min_degree(graph) == greedy
    assert exact_max_is(graph)[0] == optimum
    assert naive_max_independent_sets(n, graph.edges()) == (len(optimum), [optimum])


def _interleaved_components(seed: int) -> ConflictGraph:
    """A spanning path plus random chords on each of 2-4 shuffled label blocks."""
    rng = random.Random(seed)
    sizes = [rng.randint(2, 5) for _ in range(2 + seed % 3)]
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    edges = []
    for size in sizes:
        block, labels = labels[:size], labels[size:]
        edges += [(block[a], block[a + 1]) for a in range(size - 1)]
        edges += [(block[a], block[b]) for a in range(size) for b in range(a + 2, size)
                  if rng.random() < 0.4]
    return ConflictGraph.from_edges(sum(sizes), edges)


def _count_components(graph: ConflictGraph) -> tuple[int, int]:
    parent = list(range(graph.n))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in graph.edges():
        parent[root(a)] = root(b)
    sizes: dict[int, int] = {}
    for v in range(graph.n):
        sizes[root(v)] = sizes.get(root(v), 0) + 1
    return len(sizes), max(sizes.values())


def test_exact_matches_reference_witness():
    cases = [build_conflict_graph(random_point_set(10 + i % 51, dim=2, seed=60_000 + i)) for i in range(200)]
    cases += [build_conflict_graph(random_point_set(n, seed=1, audit="none")) for n in (300, 1000)]
    cases += [_interleaved_components(seed) for seed in range(40)]
    for graph in cases:
        assert exact_max_is(graph)[0] == reference_exact_max_is(graph)


def _grid(width: int) -> ConflictGraph:
    edges = [(v, v + 1) for v in range(width * width) if (v + 1) % width]
    edges += [(v, v + width) for v in range(width * (width - 1))]
    return ConflictGraph.from_edges(width * width, edges)


def _cubic(n: int, seed: int) -> ConflictGraph:
    """A random simple 3-regular graph: stubs paired at random until simple."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(a != b for a, b in pairs) and len({frozenset(pair) for pair in pairs}) == len(pairs):
            return ConflictGraph.from_edges(n, pairs)


def _gnp(n: int, p: float, seed: int) -> ConflictGraph:
    rng = random.Random(seed)
    return ConflictGraph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


@pytest.mark.parametrize("graph", [_grid(8), _grid(10), _cubic(80, 0), _gnp(60, 0.1, 0), _gnp(50, 0.3, 0)],
                         ids=["grid8", "grid10", "cubic80", "gnp60", "gnp50"])
def test_exact_stays_bounded_without_simplicial_vertices(graph):
    # graphs with few simplicial vertices leave the search to branching; a
    # slide into exponential behaviour trips the budget
    assert exact_max_is(graph, max_nodes=20_000)[0] == reference_exact_max_is(graph)


@pytest.mark.parametrize("n", [3000, 10_000])
def test_exact_size_matches_milp_at_scale(n):
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    pts = random_point_set(n, seed=1, audit="none")
    report = max_2_multipacking_exact(pts)
    # one row per point: at most one member in {v, first(v), second(v)}
    cols = np.column_stack((np.arange(n), nearest_order(pts, 2))).ravel()
    rows = csr_matrix((np.ones(3 * n), (np.repeat(np.arange(n), 3), cols)), shape=(n, n))
    result = milp(-np.ones(n), constraints=LinearConstraint(rows, ub=1), integrality=np.ones(n),
                  bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
    assert result.status == 0
    assert report.size == round(-result.fun)
    table = NeighborTable(order=tuple(nearest_profile(pts, 2)))
    assert is_r_multipacking(pts, table, report.indices, 2)[0]
    if n == 3000:
        assert report.stats["nodes"] < 5_000  # reads 545, and 567 without the memo


def test_exact_witnesses_are_pinned():
    # the criterion 08 instances; any change to the lexicographic witness
    # (component order, local re-indexing, tie-breaks) changes this digest
    witnesses = [max_2_multipacking_exact(random_point_set(10 + i % 51, dim=2, seed=60_000 + i)).indices
                 for i in range(200)]
    digest = hashlib.sha1(repr(witnesses).encode()).hexdigest()
    assert digest == "0e1db137083d94b448b78e8bb177039d49be7215"


def test_exact_budget_is_one_total():
    # the budget covers every component and both the size and witness passes
    pts = random_point_set(40, dim=2, seed=7)
    assert max_2_multipacking_exact(pts).stats["components"] >= 2
    graph = build_conflict_graph(pts)
    witness, nodes = exact_max_is(graph)
    assert exact_max_is(graph, max_nodes=nodes) == (witness, nodes)
    with pytest.raises(BudgetExceededError):
        exact_max_is(graph, max_nodes=nodes - 1)


def test_exact_report_stats():
    for seed in range(10):
        pts = random_point_set(30 + 5 * seed, dim=2, seed=seed)
        report = max_2_multipacking_exact(pts)
        graph = build_conflict_graph(pts)
        assert set(report.stats) == {"nodes", "components", "largest_component", "max_degree"}
        assert report.stats["nodes"] == exact_max_is(graph)[1]
        assert (report.stats["components"], report.stats["largest_component"]) == _count_components(graph)
        assert report.stats["max_degree"] == graph.max_degree()


def test_exact_budget_raises():
    graph = build_conflict_graph(random_point_set(40, dim=2, seed=7))
    assert exact_max_is(graph)[1] > 2
    with pytest.raises(BudgetExceededError):
        exact_max_is(graph, max_nodes=2)


@pytest.mark.parametrize("pts", [sunflower(200), sunflower(400), lattice(12)],
                         ids=["sunflower200", "sunflower400", "lattice12"])
def test_exact_matches_reference_on_giant_components(pts):
    graph = build_conflict_graph(pts)
    assert _count_components(graph)[1] > pts.n // 2
    assert exact_max_is(graph)[0] == reference_exact_max_is(graph)


@pytest.mark.parametrize("pts, digest, stats", [
    (sunflower(1500), "827ea51e15b85ba533986509295754fea181fa75",
     {"nodes": 3, "components": 1, "largest_component": 1500, "max_degree": 6}),
    (lattice(40), "68961b1acfb90e30d0d757f5d1cde04b47c89444",
     {"nodes": 144, "components": 3, "largest_component": 1588, "max_degree": 8}),
], ids=["sunflower1500", "lattice40"])
def test_exact_giant_components_are_pinned(pts, digest, stats):
    # the witness, and apart from it the stats: nodes count the sub-components
    # solved, so a change to the peel's kernel or to the masks `size` is asked
    # about moves them, while the witness may not move
    report = max_2_multipacking_exact(pts)
    assert hashlib.sha1(repr(report.indices).encode()).hexdigest() == digest
    assert report.stats == stats


def test_exact_budget_raises_on_a_giant_component():
    graph = build_conflict_graph(lattice(40))
    nodes = exact_max_is(graph)[1]
    with pytest.raises(BudgetExceededError):
        exact_max_is(graph, max_nodes=nodes - 1)


def test_max_2_multipacking_examples():
    assert max_2_multipacking_exact(pentagon_five()).size == 1
    quad_report = max_2_multipacking_exact(QUAD)
    assert quad_report.size == 2
    assert quad_report.indices == (0, 3)
    assert max_2_multipacking_exact(random_point_set(3, dim=2, seed=0)).size == 1


def test_max_2_multipacking_matches_oracle():
    for seed in range(30):
        n = 4 + seed % 9
        pts = random_point_set(n, dim=2, seed=seed)
        table = build_neighbor_table(pts)
        report = max_2_multipacking_exact(pts)
        assert report.size == bruteforce_max_r_multipacking(pts, 2).size
        assert is_r_multipacking(pts, table, report.indices, 2)[0]


def test_exact_solver_is_dimension_agnostic():
    from multipack import lower_family_1d

    pts = lower_family_1d(8)
    report = max_2_multipacking_exact(pts)
    assert report.size == bruteforce_max_r_multipacking(pts, 2).size


def test_fpt_pentagon():
    found = fpt_2_multipacking(pentagon_five(), 1)
    assert found.size == 1 and len(found.indices) == 1
    miss = fpt_2_multipacking(pentagon_five(), 2)
    assert miss.size == 0 and miss.indices == ()


def test_fpt_quad():
    found = fpt_2_multipacking(QUAD, 2)
    assert found.size == 2
    table = build_neighbor_table(QUAD)
    assert is_r_multipacking(QUAD, table, found.indices, 2)[0]


def test_fpt_agrees_with_exact_for_every_k():
    for seed in range(20):
        n = 6 + seed % 10
        pts = random_point_set(n, dim=2, seed=seed)
        optimum = max_2_multipacking_exact(pts).size
        graph = build_conflict_graph(pts)
        for k in range(1, optimum + 2):
            witness, nodes = fpt_find_in_graph(graph, k)
            assert (witness is not None) == (k <= optimum)
            assert nodes <= 18**k


def _criterion_07_queries():
    """(graph, k) for every k <= optimum + 1 on the criterion 07 instances."""
    for i in range(100):
        graph = build_conflict_graph(random_point_set(6 + i % 35, dim=2, seed=50_000 + i))
        optimum = len(exact_max_is(graph)[0])
        yield from ((graph, k) for k in range(1, optimum + 2))


def test_fpt_witnesses_are_pinned():
    results = [fpt_find_in_graph(graph, k) for graph, k in _criterion_07_queries()]
    witnesses = hashlib.sha1(repr([w for w, _ in results]).encode()).hexdigest()
    assert witnesses == "df1cfa5f710ab96416e21d3300cec95dd03296c5"  # as the clique-cover DFS found them
    digest = hashlib.sha1(repr(results).encode()).hexdigest()
    assert digest == "1e300d14676b42641150d1e115e014106c299de9"


def test_fpt_matches_the_depth_first_reference_on_criterion_07():
    for graph, k in _criterion_07_queries():
        assert fpt_find_in_graph(graph, k)[0] == reference_fpt(graph, k)[0]


# first k at which the reference spends more than 100 000 nodes; every larger
# k up to optimum + 1 does too (each such query costs it seconds to confirm)
_REFERENCE_WALL = {
    (60, 0): 22, (60, 2): 24, (60, 6): 24,
    (120, 0): 52, (120, 1): 46, (120, 2): 43, (120, 3): 44, (120, 4): 46,
    (300, 0): 99, (300, 1): 102,
}


def test_fpt_matches_the_depth_first_reference_at_larger_n():
    queries = 0
    for n, seeds in ((60, range(10)), (120, range(5)), (300, range(2))):
        for seed in seeds:
            graph = build_conflict_graph(random_point_set(n, seed=seed, audit="none"))
            top = len(exact_max_is(graph)[0]) + 1
            for k in range(1, min(top, _REFERENCE_WALL.get((n, seed), top + 1) - 1) + 1):
                assert fpt_find_in_graph(graph, k)[0] == reference_fpt(graph, k, max_nodes=100_000)[0]
                queries += 1
    assert queries == 665


def test_fpt_walks_past_the_recursion_limit():
    # a perfect matching: each level takes the lower end of the next edge
    m = sys.getrecursionlimit() + 50
    graph = ConflictGraph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
    assert fpt_find_in_graph(graph, m) == (tuple(range(0, 2 * m, 2)), m + 1)


@pytest.mark.parametrize("n, ks", [(120, (46, 47)), (300, None)])
def test_fpt_answers_where_the_clique_cover_search_stalled(n, ks):
    # the clique-cover DFS ran out of 100 000 nodes on both k at n = 120 and on k >= 102 at n = 300
    graph = build_conflict_graph(random_point_set(n, seed=1, audit="none"))
    optimum = len(exact_max_is(graph)[0])
    for k in ks or range(1, optimum + 2):
        witness, nodes = fpt_find_in_graph(graph, k)
        assert (witness is not None) == (k <= optimum)
        assert nodes <= 1 + 18 * k


def test_fpt_rejects_bad_k():
    with pytest.raises(ValueError):
        fpt_2_multipacking(QUAD, 0)


def test_fpt_budget_raises():
    graph = build_conflict_graph(random_point_set(35, dim=2, seed=3))
    with pytest.raises(BudgetExceededError):
        fpt_find_in_graph(graph, 5, max_nodes=2)


def test_greedy_2_multipacking_examples():
    assert greedy_2_multipacking(pentagon_five()).size == 1
    assert greedy_2_multipacking(QUAD).size == 2


def test_greedy_2_multipacking_is_valid_and_near_optimal():
    for seed in range(25):
        n = 8 + seed % 20
        pts = random_point_set(n, dim=2, seed=seed)
        table = build_neighbor_table(pts)
        greedy = greedy_2_multipacking(pts)
        assert is_r_multipacking(pts, table, greedy.indices, 2)[0]
        optimum = max_2_multipacking_exact(pts).size
        assert 4 * greedy.size >= optimum


def test_greedy_2_multipacking_pigeonhole_floor():
    pts = random_point_set(60, dim=2, seed=8)
    assert greedy_2_multipacking(pts).size >= 60 // 18 + 1


# witness SHA-1 and stats of greedy_2_multipacking(random_point_set(5000, seed=s,
# audit="none")), recorded before the swap pools were bucketed by owner
GREEDY_PINS = {
    1: ("a024d6bc445b60c97e023ba2dde204176970db6d", 1940, 1940, 1, 0),
    6: ("25ee7e7050690f2168f860af47581ec5724e1307", 1952, 1951, 2, 1),
    9: ("17c521da80c310da7171c3f7244e565c8a753dba", 1943, 1942, 2, 1),
    13: ("a959064950cf2c3bc780fbf0005066726f80b7e6", 1938, 1937, 2, 1),
    21: ("1cc625e68aa9bdbc7fa68537b6741c36f02424f5", 1973, 1972, 2, 1),
}


@pytest.fixture(scope="module")
def pinned_greedy():
    out = []
    for seed in GREEDY_PINS:
        pts = random_point_set(5000, dim=2, seed=seed, audit="none")
        out.append((seed, pts, greedy_2_multipacking(pts)))
    return out


def test_greedy_witnesses_are_pinned(pinned_greedy):
    for seed, _, report in pinned_greedy:
        digest, size, greedy_size, rounds, improvements = GREEDY_PINS[seed]
        assert hashlib.sha1(repr(report.indices).encode()).hexdigest() == digest
        assert report.size == size
        assert report.stats == {"greedy_size": greedy_size, "rounds": rounds,
                                "improvements": improvements, "max_degree": 8}


# witness SHA-1, size and stats of greedy_2_multipacking(random_point_set(100000, seed=1,
# audit="none")), recorded before the greedy ran on a bucket queue and array rounds: seven
# rounds of free inserts and swaps
GREEDY_PIN_100K = ("d4fdb0cd5862687f3214e96927c65f019b951222", 38871,
                   {"greedy_size": 38865, "rounds": 7, "improvements": 6, "max_degree": 8})


def test_greedy_witness_is_pinned_at_a_hundred_thousand_points():
    report = greedy_2_multipacking(random_point_set(100_000, dim=2, seed=1, audit="none"))
    digest, size, stats = GREEDY_PIN_100K
    assert hashlib.sha1(repr(report.indices).encode()).hexdigest() == digest
    assert (report.size, report.stats) == (size, stats)


def _assert_local_fixpoint(pts, members):
    """No vertex is free and no member alone blocks two non-adjacent vertices.

    Conflicts come straight from each point's two nearest neighbors, and a
    vertex's blockers are the members equal or adjacent to it.
    """
    adjacent = set()
    for v, (a, b) in enumerate(nearest_profile(pts, 2)):
        adjacent.update(itertools.permutations((v, a, b), 2))
    chosen = set(members)
    blockers = [{x} & chosen for x in range(pts.n)]
    for a, b in adjacent:
        if a in chosen:
            blockers[b].add(a)
    assert all(blockers[m] == {m} for m in members), "members conflict"
    assert all(blockers), "a free vertex is left"
    alone: dict[int, list[int]] = {}
    for x, found in enumerate(blockers):
        if len(found) == 1:
            alone.setdefault(min(found), []).append(x)
    for u, pool in alone.items():
        for x, y in itertools.combinations(pool, 2):
            assert (x, y) in adjacent, f"swap {u} -> {x}, {y} is left"


def test_greedy_ends_at_a_local_search_fixpoint(pinned_greedy):
    for _, pts, report in pinned_greedy:
        _assert_local_fixpoint(pts, report.indices)
    for seed in range(40):
        pts = random_point_set(3 + seed * 2, dim=2, seed=seed)
        _assert_local_fixpoint(pts, greedy_2_multipacking(pts).indices)


@st.composite
def _generic_graphs(draw) -> ConflictGraph:
    n = draw(st.integers(1, 14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return ConflictGraph.from_edges(n, edges)


_local_search_graphs = st.one_of(
    st.builds(lambda n, seed: build_conflict_graph(random_point_set(n, dim=2, seed=seed)),
              st.integers(3, 80), st.integers(0, 10**6)),
    _generic_graphs(),
)


@st.composite
def _pair_graphs(draw) -> ConflictGraph:
    """`_from_pairs` on arbitrary distinct pairs, repeats and both directions included."""
    n = draw(st.integers(2, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])))
    both = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return _from_pairs(n, both[:, 0], both[:, 1])


@settings(max_examples=200, deadline=None)
@given(graph=st.one_of(
    _local_search_graphs,
    st.builds(lambda n, seed: build_nearest_neighbor_graph(random_point_set(n, dim=2, seed=seed)),
              st.integers(2, 80), st.integers(0, 10**6)),
    _pair_graphs(),
))
def test_built_graphs_pass_validation(graph):
    """A graph built from index pairs skips validation; validating it anew gives the same graph and keys."""
    validated = ConflictGraph(graph.n, graph.adj)
    assert validated == graph
    assert validated._keys.dtype == graph._keys.dtype
    assert validated._keys.tolist() == graph._keys.tolist()


_EDGELESS = [ConflictGraph.from_edges(n, []) for n in (1, 2, 5)]


@settings(max_examples=200, deadline=None)
@given(graph=_local_search_graphs)
@example(graph=_EDGELESS[0])
@example(graph=_EDGELESS[2])
def test_min_degree_greedy_matches_reference(graph):
    assert _greedy_min_degree(graph) == reference_min_degree_greedy(graph)


@settings(max_examples=120, deadline=None)
@given(graph=_local_search_graphs, data=st.data())
def test_local_search_matches_reference(graph, data):
    # greedy starts on random point sets almost never leave a swap, so the
    # search also starts from poor sets that force inserts and swaps
    order = data.draw(st.permutations(range(graph.n)), label="order")
    maximal: list[int] = []
    for v in order:
        if not any(u in graph.adj[v] for u in maximal):
            maximal.append(v)
    single = data.draw(st.integers(0, graph.n - 1), label="single")
    for start in ([], [single], sorted(maximal), _greedy_min_degree(graph)):
        assert _local_search(graph, list(start)) == reference_local_search(graph, list(start))


def test_local_search_fills_an_edgeless_graph():
    for graph in _EDGELESS:
        for start in ([], [0], list(range(graph.n))):
            expected = (list(range(graph.n)), graph.n - len(start) + 1, graph.n - len(start))
            assert _local_search(graph, list(start)) == reference_local_search(graph, list(start)) == expected


@settings(max_examples=200, deadline=None)
@given(graph=_generic_graphs())
def test_exact_is_matches_naive_property(graph):
    witness, _ = exact_max_is(graph)
    best_size, best_sets = naive_max_independent_sets(graph.n, graph.edges())
    assert len(witness) == best_size
    assert witness == min(best_sets)
    assert witness == reference_exact_max_is(graph)


@st.composite
def _sparse_graphs(draw) -> ConflictGraph:
    """15-40 vertices with at most 2n random edges: many components once the witness pass removes a few."""
    n = draw(st.integers(15, 40))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    return ConflictGraph.from_edges(n, pairs)


@st.composite
def _triangle_unions(draw) -> ConflictGraph:
    """Unions of random triangles, as a conflict graph is, with no geometry behind them."""
    n = draw(st.integers(3, 40))
    triangles = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True), max_size=n))
    return ConflictGraph.from_edges(n, [(a, b) for tri in triangles for a, b in itertools.combinations(tri, 2)])


@st.composite
def _cycle_unions(draw) -> ConflictGraph:
    """Random cycles of length 4-9 plus a few chords: graphs far from chordal.  In about one in
    five, a vertex outside the witness pass's known optimum has one neighbor in it (the swap rule)."""
    n = draw(st.integers(4, 30))
    edges = []
    for cycle in draw(st.lists(st.lists(st.integers(0, n - 1), min_size=4, max_size=9, unique=True),
                               min_size=1, max_size=6)):
        edges += zip(cycle, cycle[1:] + cycle[:1])
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=n // 3))
    return ConflictGraph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(graph=st.one_of(_sparse_graphs(), _triangle_unions(), _cycle_unions()))
def test_exact_is_matches_reference_past_enumeration_property(graph):
    """The witness pass's shortcuts (a vertex with at most one neighbor in the known optimum goes in
    without a query; any other is asked about on its own component) against the reference, which
    asks about every vertex outside its optimum on the whole mask left."""
    assert exact_max_is(graph)[0] == reference_exact_max_is(graph)


@settings(max_examples=200, deadline=None)
@given(graph=st.one_of(_generic_graphs(), _sparse_graphs(), _cycle_unions()), data=st.data())
def test_search_size_mask_is_an_optimum_property(graph, data):
    """`size` returns, with the optimum size, an independent set of that size inside the mask it
    was asked about, fresh or from the memo; on small graphs the size is the enumerated optimum."""
    search = _Search(graph.adj, range(graph.n), None)
    full = (1 << graph.n) - 1
    masks = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=6), label="masks")
    for rem in [full, *masks, full]:
        size, mask = search.size(rem)
        assert mask & ~rem == 0
        members = [v for v in range(graph.n) if mask >> v & 1]
        assert len(members) == size
        assert not any(search.adjm[v] & mask for v in members)
        if graph.n <= 14:
            kept = [v for v in range(graph.n) if rem >> v & 1]
            edges = [(kept.index(a), kept.index(b)) for a, b in graph.edges() if a in kept and b in kept]
            assert size == naive_max_independent_sets(len(kept), edges)[0]


def test_degree_audit_examples():
    three = max_degree_audit(random_point_set(3, dim=2, seed=4))
    assert three.max_degree == 2 and three.within_bound
    pent = max_degree_audit(pentagon_five())
    assert pent.max_degree == 4 and pent.within_bound


def test_degree_audit_accepts_prebuilt_graph():
    pts = random_point_set(50, dim=2, seed=6)
    graph = build_conflict_graph(pts)
    assert max_degree_audit(pts, graph=graph) == max_degree_audit(pts)


def test_degree_bound_on_random_instances():
    for seed in range(20):
        audit = max_degree_audit(random_point_set(200, dim=2, seed=seed))
        assert audit.within_bound
        assert audit.max_degree <= DEGREE_BOUND


def test_conflict_graph_rejects_malformed_adjacency():
    """Each fault and its message; rows are scanned in order, and within a row
    a non-integer entry comes first, then the order check, then each
    endpoint: range, loop, symmetry.  `from_edges` checks n, then each
    endpoint, then names the smallest looped vertex."""
    graph, edges = ConflictGraph, ConflictGraph.from_edges
    cases = [
        (graph, 3, ((1,), (0,)), "adjacency size does not match n"),
        (graph, 0, (), "adjacency size does not match n"),
        (graph, 2.0, ((1,), (0,)), "adjacency size does not match n"),
        (graph, True, ((),), "adjacency size does not match n"),
        (edges, 2.0, [(0, 1)], "adjacency size does not match n"),
        (edges, True, [], "adjacency size does not match n"),
        (edges, 0, [], "adjacency size does not match n"),
        (graph, 3, ((2, 1), (0,), (0,)), "adjacency of 0 must be sorted and duplicate-free"),
        (graph, 3, ((1, 1), (0,), ()), "adjacency of 0 must be sorted and duplicate-free"),
        (graph, 2, ((2,), ()), "vertex 2 out of range"),
        (graph, 2, ((2**70,), ()), f"vertex {2**70} out of range"),
        (graph, 2, ((-1,), ()), "vertex -1 out of range"),
        (graph, 1, ((0,),), "loop at 0"),
        (graph, 2, ((1,), ()), "edge 0-1 is not symmetric"),
        (graph, 3, ((1.5,), (0,), ()), "vertex 1.5 out of range"),
        (graph, 2, ((1.0,), (0,)), "vertex 1.0 out of range"),
        (graph, 2, (("1",), (0,)), "vertex '1' out of range"),
        (graph, 2, ((None,), ()), "vertex None out of range"),
        (edges, 3, [(0, 1.5)], "vertex 1.5 out of range"),
        (edges, 3, [(0, 5)], "vertex 5 out of range"),
        (edges, 3, [(0, -1)], "vertex -1 out of range"),
        (edges, 3, [(1, 1)], "loop at 1"),
        (graph, 2, ((1, (0, 2)), (0,)), "vertex (0, 2) out of range"),
        # two faults each: the first in scan order is named
        (graph, 3, ((1,), (2, 0), (1,)), "adjacency of 1 must be sorted and duplicate-free"),
        (graph, 3, ((0, 1), (), ()), "loop at 0"),
        (graph, 3, ((1, 5), (-1, 0), ()), "vertex 5 out of range"),
        (graph, 3, ((2,), (0,), ()), "edge 0-2 is not symmetric"),
        (graph, 3, ((5, 1.5), (), ()), "vertex 1.5 out of range"),
        (edges, 3, [(2, 2), (0, 1), (1, 1)], "loop at 1"),
    ]
    for make, n, data, message in cases:
        with pytest.raises(ValueError) as info:
            make(n, data)
        assert str(info.value) == message, (n, data)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_conflict_graph_validation_matches_reference(n, data):
    """A random simple graph with up to three entries inserted or deleted is
    accepted or rejected, with the same message, as the per-row loop does."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = [sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v}) for v in range(n)]
    for _ in range(data.draw(st.integers(0, 3))):
        row = rows[data.draw(st.integers(0, n - 1))]
        if row and data.draw(st.booleans()):
            del row[data.draw(st.integers(0, len(row) - 1))]
        else:
            row.insert(data.draw(st.integers(0, len(row))), data.draw(st.sampled_from([-1, n, 2**70, *range(n)])))
    adj = tuple(map(tuple, rows))
    expected = reference_adjacency_fault(n, adj)
    if expected is None:
        ConflictGraph(n=n, adj=adj)
    else:
        with pytest.raises(ValueError) as info:
            ConflictGraph(n=n, adj=adj)
        assert str(info.value) == expected
