import hashlib
import random

import pytest

from helpers import naive_max_independent_sets, pts2d
from multipack import (
    BudgetExceededError,
    ConflictGraph,
    NotAForestError,
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
    parse_edge_list,
)
from multipack.instances import pentagon_five, random_point_set
from multipack.plane import DEGREE_BOUND

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
        assert graph.kind == "nng"
        assert len(graph.edges()) < graph.n


def test_forest_dp_path_and_star():
    path4 = parse_edge_list("0 1\n1 2\n2 3\n", n=4, kind="nng")
    assert len(forest_max_independent_set(path4)) == 2
    edge = parse_edge_list("0 1\n", n=2, kind="nng")
    assert len(forest_max_independent_set(edge)) == 1
    star = parse_edge_list("0 1\n0 2\n0 3\n0 4\n0 5\n", n=6, kind="nng")
    assert forest_max_independent_set(star) == (1, 2, 3, 4, 5)


def test_forest_dp_rejects_cycles():
    with pytest.raises(NotAForestError):
        parse_edge_list("0 1\n1 2\n0 2\n", n=3, kind="nng")
    triangle = parse_edge_list("0 1\n1 2\n0 2\n", n=3)
    square = ConflictGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    for graph in (triangle, square, build_conflict_graph(QUAD)):
        with pytest.raises(NotAForestError):
            forest_max_independent_set(graph)


def test_forest_check_runs_once_per_r1_solve(monkeypatch):
    from multipack import plane

    calls = []
    check = plane._assert_forest
    monkeypatch.setattr(plane, "_assert_forest", lambda n, edges: calls.append(n) or check(n, edges))
    assert max_1_multipacking(random_point_set(40, dim=2, seed=3)).size > 0
    assert calls == [40]


def test_max_1_multipacking_examples():
    assert max_1_multipacking(QUAD).size == 2
    assert max_1_multipacking(pts2d((0, 0), (9, 2))).size == 1


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
    assert graph.kind == "conflict"
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
    k5 = parse_edge_list("\n".join(f"{a} {b}" for a in range(5) for b in range(a + 1, 5)), n=5)
    witness, _ = exact_max_is(k5)
    assert witness == (0,)
    path4 = parse_edge_list("0 1\n1 2\n2 3\n", n=4)
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
    graph = build_conflict_graph(random_point_set(30, dim=2, seed=1))
    with pytest.raises(BudgetExceededError):
        exact_max_is(graph, max_nodes=2)


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
    assert found is not None and found.size == 1
    assert fpt_2_multipacking(pentagon_five(), 2) is None


def test_fpt_quad():
    found = fpt_2_multipacking(QUAD, 2)
    assert found is not None
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


def test_edge_list_round_trip():
    graph = build_conflict_graph(random_point_set(15, dim=2, seed=9))
    text = edge_list_text(graph)
    parsed = parse_edge_list(text, n=graph.n)
    assert parsed.adj == graph.adj


def test_conflict_graph_rejects_malformed_adjacency():
    with pytest.raises(ValueError):
        ConflictGraph(n=2, adj=((1,), ()), kind="generic")
    with pytest.raises(ValueError):
        ConflictGraph(n=1, adj=((0,),), kind="generic")
