"""Tour of the 2D solvers on one random instance: the nearest-neighbor
forest for r=1, and the exact, parameterized, and greedy routes for r=2.

Run: python demos/plane_solvers.py
"""

from multipack import (
    build_conflict_graph,
    build_nearest_neighbor_graph,
    build_neighbor_table,
    fpt_2_multipacking,
    greedy_2_multipacking,
    is_r_multipacking,
    max_1_multipacking,
    max_2_multipacking_exact,
    random_point_set,
)


def main():
    pts = random_point_set(30, dim=2, seed=42)
    table = build_neighbor_table(pts)
    print("instance: 30 random points on a million-unit grid (seed 42)")

    print()
    print("== r = 1: independent sets of the nearest-neighbor forest ==")
    nng = build_nearest_neighbor_graph(pts)
    print(f"  forest: {len(nng.edges())} edges over {nng.n} vertices")
    one = max_1_multipacking(pts)
    print(f"  tree DP maximum: size {one.size}, indices {list(one.indices)}")
    ok, _ = is_r_multipacking(pts, table, one.indices, 1)
    print(f"  checker agrees: {ok}")

    print()
    print("== r = 2: independent sets of the conflict graph ==")
    graph = build_conflict_graph(pts)
    print(f"  conflict graph: {len(graph.edges())} edges, "
          f"max degree {graph.max_degree()} (never above 17)")

    exact = max_2_multipacking_exact(pts)
    print(f"  exact component search: size {exact.size} "
          f"after {exact.stats['nodes']} nodes")

    greedy = greedy_2_multipacking(pts)
    ratio = exact.size / greedy.size
    print(f"  greedy + swaps: size {greedy.size} "
          f"(ratio {ratio:.3f}, guaranteed within 4)")

    print()
    print("== the parameterized route answers size-k queries directly ==")
    for k in range(exact.size - 1, exact.size + 2):
        found = fpt_2_multipacking(pts, k)
        if found.size == 0:
            print(f"  k={k}: none (matches exact optimum {exact.size})")
        else:
            print(f"  k={k}: found, {found.stats['nodes']} tree nodes "
                  f"(at most 1 + 18k = {1 + 18 * k})")


if __name__ == "__main__":
    main()
