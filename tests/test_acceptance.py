"""Acceptance gate: ten release criteria, one pass line each.

Each test prints a single `criterion NN <name>: PASS (...)` line with the
observed counts; pytest's -rA summary surfaces them in CI logs.  Thresholds
and instance counts are part of the release contract and must not shrink.
"""

import subprocess
import sys
import time

import pytest

from helpers import child_env
from multipack import (
    bruteforce_max_r_multipacking,
    bruteforce_profile,
    build_conflict_graph,
    build_neighbor_table,
    fpt_find_in_graph,
    greedy_2_multipacking,
    greedy_max_r_multipacking_1d,
    is_r_multipacking,
    lower_family_1d,
    max_1_multipacking,
    max_2_multipacking_exact,
    max_degree_audit,
    multipacking_number,
    pentagon_five,
    random_point_set,
    scan_six_point_sets,
    square_four,
    upper_family_1d,
)


def announce(number: int, name: str, detail: str) -> None:
    print(f"criterion {number:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def line_suite():
    """500 random 1D instances, n <= 12, solved by greedy and oracle at every r."""
    started = time.perf_counter()
    rows = []
    for i in range(500):
        n = 2 + i % 11
        pts = random_point_set(n, dim=1, seed=10_000 + i)
        oracle = [report.size for report in bruteforce_profile(pts)]
        greedy = [greedy_max_r_multipacking_1d(pts, r).size for r in range(1, n)]
        rows.append((n, oracle, greedy))
    return rows, time.perf_counter() - started


def test_criterion_01_line_greedy_is_exact(line_suite):
    rows, elapsed = line_suite
    radii = 0
    mismatches = 0
    for n, oracle, greedy in rows:
        assert len(oracle) == len(greedy) == n - 1
        radii += n - 1
        mismatches += sum(1 for a, b in zip(oracle, greedy) if a != b)
    assert mismatches == 0
    assert elapsed < 60.0
    announce(1, "line greedy is exact",
             f"{len(rows)} instances, {radii} radii, 0 mismatches, {elapsed:.1f}s")


def test_criterion_02_line_bounds_hold(line_suite):
    rows, _ = line_suite
    violations = 0
    for n, oracle, _ in rows:
        mp = oracle[-1]
        if not n // 3 <= mp <= n // 2:
            violations += 1
    assert violations == 0
    announce(2, "floor(n/3) <= MP <= floor(n/2) on the line",
             f"{len(rows)} instances, 0 violations")


def test_criterion_03_tight_families():
    for n in (3, 6, 9, 12):
        assert multipacking_number(lower_family_1d(n)) == n // 3
    for n in (5, 7, 9, 11):
        assert multipacking_number(upper_family_1d(n)) == n // 2
    # even n = 6 genuinely falls short of floor(n/2); kept as-is, not patched
    assert multipacking_number(upper_family_1d(6)) == 2 < 6 // 2
    announce(3, "tight families",
             "lower n in {3,6,9,12} at n/3; upper odd n in {5,7,9,11} at n//2; "
             "upper n=6 reproduces MP 2 < 3")


def test_criterion_04_forest_dp_equals_oracle():
    mismatches = 0
    count = 200
    for i in range(count):
        n = 3 + i % 10
        pts = random_point_set(n, dim=2, seed=20_000 + i)
        table = build_neighbor_table(pts)
        report = max_1_multipacking(pts)
        if report.size != bruteforce_max_r_multipacking(pts, 1).size:
            mismatches += 1
        assert is_r_multipacking(pts, table, report.indices, 1)[0]
    assert mismatches == 0
    announce(4, "forest DP equals r=1 oracle",
             f"{count} instances, 0 mismatches, all witnesses checker-valid")


def test_criterion_05_conflict_graph_equivalence():
    count = 100
    subsets = 0
    for i in range(count):
        n = 4 + i % 7
        pts = random_point_set(n, dim=2, seed=30_000 + i)
        table = build_neighbor_table(pts)
        masks = [0] * n
        for u, v in build_conflict_graph(pts).edges():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        for mask in range(1 << n):
            members = [v for v in range(n) if (mask >> v) & 1]
            independent = all(masks[v] & mask == 0 for v in members)
            valid = is_r_multipacking(pts, table, members, 2)[0]
            assert independent == valid
            subsets += 1
    announce(5, "independence in the conflict graph iff r=2 validity",
             f"{count} instances, {subsets} subsets, 0 mismatches")


def test_criterion_06_degree_bound():
    count = 100
    n = 10_000
    top = 0
    for seed in range(count):
        pts = random_point_set(n, dim=2, seed=40_000 + seed, audit="none")
        audit = max_degree_audit(pts)
        assert audit.within_bound, f"seed {seed}: degree {audit.max_degree} > 17"
        top = max(top, audit.max_degree)
    announce(6, "conflict-graph degree at most 17",
             f"{count} instances x {n} points = {count * n} points, max degree seen {top}")


def test_criterion_07_fpt_matches_exact_existence():
    count = 100
    queries = 0
    for i in range(count):
        n = 6 + i % 35
        pts = random_point_set(n, dim=2, seed=50_000 + i)
        optimum = max_2_multipacking_exact(pts).size
        graph = build_conflict_graph(pts)
        for k in range(1, optimum + 2):
            witness, nodes = fpt_find_in_graph(graph, k)
            assert (witness is not None) == (k <= optimum)
            assert nodes <= 18**k
            queries += 1
    announce(7, "fpt existence matches exact, nodes within 18^k",
             f"{count} instances, {queries} queries, 0 disagreements")


def test_criterion_08_greedy_within_ratio_four():
    count = 200
    worst = 1.0
    for i in range(count):
        n = 10 + i % 51
        pts = random_point_set(n, dim=2, seed=60_000 + i)
        optimum = max_2_multipacking_exact(pts).size
        greedy = greedy_2_multipacking(pts)
        assert 4 * greedy.size >= optimum
        table = build_neighbor_table(pts)
        assert is_r_multipacking(pts, table, greedy.indices, 2)[0]
        worst = max(worst, optimum / greedy.size)
    announce(8, "greedy within factor 4 of optimum",
             f"{count} instances, n <= 60, worst ratio {worst:.4f}")


def test_criterion_09_small_extremal_instances():
    started = time.perf_counter()
    assert multipacking_number(pentagon_five()) == 1
    assert max_2_multipacking_exact(pentagon_five()).size == 1
    assert multipacking_number(square_four()) == 1
    scan = scan_six_point_sets(1000, seed=0)
    elapsed = time.perf_counter() - started
    assert scan["counterexamples"] == []
    assert scan["min_mp"] >= 2
    assert elapsed < 600.0
    announce(9, "pentagon and square at MP 1; six points always reach 2",
             f"scan of {scan['checked']} six-point sets, min MP {scan['min_mp']}, "
             f"0 counterexamples, {elapsed:.1f}s")


def _run_cli(tmp, *argv) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "multipack.cli", *argv],
        cwd=tmp, capture_output=True, check=False, env=child_env(),
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def _drive_all_commands(tmp):
    """One scripted pass over every subcommand; returns all observable bytes."""
    outputs = {}
    outputs["gen_upper"] = _run_cli(tmp, "gen", "--family", "upper1d", "--n", "7",
                                    "--out", "upper7.csv")
    outputs["gen_random"] = _run_cli(tmp, "gen", "--family", "random", "--n", "40",
                                     "--seed", "5", "--out", "rand40.csv")
    outputs["gen_pentagon"] = _run_cli(tmp, "gen", "--family", "pentagon",
                                       "--out", "pent.csv")
    outputs["solve_line"] = _run_cli(tmp, "solve", "--input", "upper7.csv")
    outputs["solve_exact"] = _run_cli(tmp, "solve", "--input", "rand40.csv",
                                      "--r", "2", "--out", "witness.json")
    outputs["check"] = _run_cli(tmp, "check", "--input", "rand40.csv",
                                "--set", "witness.json")
    outputs["audit"] = _run_cli(tmp, "audit-degree", "--input", "rand40.csv",
                                "--dump-edges", "edges.txt")
    outputs["bench1d"] = _run_cli(tmp, "bench", "--family", "random1d", "--trials", "6",
                                  "--no-timing", "--report", "bench1d.csv")
    outputs["scan"] = _run_cli(tmp, "bench", "--family", "scan6", "--trials", "10",
                               "--no-timing", "--report", "scan.csv")
    outputs["render"] = _run_cli(tmp, "render", "--input", "pent.csv",
                                 "--set", "witness_pent.json", "--circles",
                                 "--out", "pent.svg")
    for name in ("upper7.csv", "rand40.csv", "pent.csv", "witness.json",
                 "edges.txt", "bench1d.csv", "scan.csv", "pent.svg"):
        outputs[f"file:{name}"] = (tmp / name).read_bytes()
    return outputs


def test_criterion_10_cli_byte_determinism(tmp_path):
    runs = []
    for label in ("first", "second"):
        tmp = tmp_path / label
        tmp.mkdir()
        (tmp / "witness_pent.json").write_text('{"indices": [2], "r": 4}')
        runs.append(_drive_all_commands(tmp))
    first, second = runs
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
    announce(10, "cli byte determinism",
             f"{len(first)} outputs compared across two runs, all identical")
