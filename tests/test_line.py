import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    pts1d,
    pts2d,
    reference_greedy_1d,
    reference_slack_sweep_1d,
    shortest_path_mp_1d,
)
from multipack import (
    GeneralPositionError,
    NeighborTable,
    PointSet,
    bruteforce_max_r_multipacking,
    bruteforce_profile,
    build_neighbor_table,
    greedy_max_r_multipacking_1d,
    is_r_multipacking,
    lower_family_1d,
    multipacking_number,
    upper_family_1d,
    verify_1d_bounds,
)
from multipack.geometry import nearest_profile
from multipack.instances import random_point_set


def coords(pts: PointSet) -> tuple:
    return tuple(p[0] for p in pts)


def test_greedy_powers_of_two():
    report = greedy_max_r_multipacking_1d(pts1d(2, 4, 8, 16, 32, 64), 5)
    assert report.size == 2
    assert report.indices == (0, 3)


def test_greedy_scaled_upper_six():
    report = greedy_max_r_multipacking_1d(pts1d(0, 6, 9, 33, 54, 150), 5)
    assert report.size == 2
    assert report.indices == (0, 3)


def test_greedy_unscaled_upper_seven():
    pts = pts1d(0, 2, 3, 11, 18, 50, 81)
    report = greedy_max_r_multipacking_1d(pts, 6)
    assert report.size == 3 == 7 // 2
    assert report.indices == (0, 3, 5)


def test_greedy_solves_a_lone_point():
    """One point is its own maximum multipacking at every r >= 1, as the oracle says."""
    one = pts1d(7)
    for r in (1, 2, 5):
        report = greedy_max_r_multipacking_1d(one, r)
        assert (report.size, report.indices, report.r, report.stats) == (1, (0,), r, {"checks": 1})
        assert report.indices == bruteforce_max_r_multipacking(one, r).indices
    with pytest.raises(ValueError, match="r must be >= 1"):
        greedy_max_r_multipacking_1d(one, 0)


def test_greedy_rejects_2d_input():
    with pytest.raises(ValueError):
        greedy_max_r_multipacking_1d(pts2d((0, 0), (1, 2)), 1)


def test_greedy_handles_unsorted_input():
    shuffled = pts1d(16, 2, 64, 8, 4, 32)
    report = greedy_max_r_multipacking_1d(shuffled, 5)
    assert report.size == 2
    assert {shuffled[i][0] for i in report.indices} == {2, 16}


def test_greedy_matches_oracle_on_random_instances():
    for seed in range(40):
        n = 3 + seed % 8
        pts = random_point_set(n, dim=1, seed=seed)
        for r in range(1, n):
            got = greedy_max_r_multipacking_1d(pts, r)
            assert got.size == bruteforce_max_r_multipacking(pts, r).size


def test_greedy_witness_passes_checker():
    for seed in range(20):
        n = 4 + seed % 7
        pts = random_point_set(n, dim=1, seed=seed)
        table = build_neighbor_table(pts)
        r = 1 + seed % (n - 1)
        report = greedy_max_r_multipacking_1d(pts, r)
        assert is_r_multipacking(pts, table, report.indices, r)[0]


def test_greedy_invariant_under_translation_and_scale():
    for seed in range(10):
        pts = random_point_set(8, dim=1, seed=seed)
        base = greedy_max_r_multipacking_1d(pts, 7).indices
        moved = PointSet.of([(5 * c + 1234,) for (c,) in pts])
        assert greedy_max_r_multipacking_1d(moved, 7).indices == base


def test_greedy_prefix_maximality():
    for seed in range(10):
        n = 6 + seed % 5
        pts = random_point_set(n, dim=1, seed=seed)
        table = build_neighbor_table(pts)
        r = n - 1
        witness = set(greedy_max_r_multipacking_1d(pts, r).indices)
        for rejected in set(range(n)) - witness:
            assert not is_r_multipacking(pts, table, witness | {rejected}, r)[0]


_line_coordinates = st.one_of(
    st.lists(st.integers(-(2**40), 2**40), min_size=2, max_size=40, unique=True),
    st.lists(st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 1000)),
             min_size=2, max_size=40, unique=True),
    st.builds(lambda family, n: [c for (c,) in family(n)],
              st.sampled_from([lower_family_1d, upper_family_1d]), st.integers(2, 40)),
    # a short range forces ties, which both sweeps must raise alike
    st.lists(st.integers(0, 30), min_size=2, max_size=12, unique=True),
)


@settings(max_examples=150, deadline=None)
@given(coordinates=_line_coordinates, data=st.data())
def test_greedy_matches_reference_sweep(coordinates, data):
    shuffled = data.draw(st.permutations(coordinates))
    pts = PointSet.of([(c,) for c in shuffled])
    for r in range(1, pts.n):
        try:
            expected = reference_greedy_1d(pts, r)
        except GeneralPositionError as exc:
            with pytest.raises(GeneralPositionError) as info:
                greedy_max_r_multipacking_1d(pts, r)
            assert info.value.triple == exc.triple
            continue
        assert greedy_max_r_multipacking_1d(pts, r) == expected


def _moved(pts: PointSet, seed: int) -> PointSet:
    rng = random.Random(seed)
    shift = rng.randrange(-10**6, 10**6)
    rows = [(c + shift,) for (c,) in pts]
    rng.shuffle(rows)
    return PointSet.of(rows)


def test_family_witnesses_are_pinned():
    # SHA-1 of the JSON witness list; recorded with the sweep that re-ran the
    # full checker after every insertion
    lower, upper = lower_family_1d(300), upper_family_1d(299)
    cases = {
        "lower300": (lower, "7b9d0c86108f04bd1e9c87a679df4082dea0b8ba"),
        "upper299": (upper, "24a7060411b7a5ed4a6248926fa7807d1c719933"),
        "lower300 moved": (_moved(lower, 1), "320c3fd0359a7b7f7b5b3afe363dcac5168d9419"),
        "upper299 moved": (_moved(upper, 2), "d703132df1b085aab2d5af2a434ac15235a5de20"),
    }
    for label, (pts, digest) in cases.items():
        report = greedy_max_r_multipacking_1d(pts, pts.n - 1)
        assert report.stats == {"checks": pts.n}, label
        assert hashlib.sha1(json.dumps(list(report.indices)).encode()).hexdigest() == digest, label


def _radii(n: int) -> tuple:
    return (1, 2, 7, n - 1)


@pytest.mark.parametrize("n", [300, 1000])
def test_greedy_matches_slack_sweep_on_long_lines(n):
    # the full-checker reference is O(n^2 * r), so past n = 40 the sweep is
    # compared with the slack-matrix sweep it replaced
    pts = random_point_set(n, dim=1, seed=n)
    for r in _radii(n):
        assert greedy_max_r_multipacking_1d(pts, r) == reference_slack_sweep_1d(pts, r), r


def test_shortest_path_oracle_matches_bruteforce():
    for seed in range(40):
        n = 2 + seed % 11
        pts = random_point_set(n, dim=1, seed=seed)
        for r in range(1, n):
            assert shortest_path_mp_1d(pts, r) == bruteforce_max_r_multipacking(pts, r).size


def test_shortest_path_oracle_keeps_the_back_edges():
    # a path restricted to forward edges lets y fall between runs and reads 5
    pts = pts1d(92051, 290840, 354694, 365670, 466167, 560680, 583435, 679703,
                722286, 763720, 856179)
    for r in (2, 3):
        assert shortest_path_mp_1d(pts, r) == 4 == bruteforce_max_r_multipacking(pts, r).size


@pytest.mark.parametrize("n", [300, 1000])
def test_greedy_is_optimal_on_long_lines(n):
    pts = random_point_set(n, dim=1, seed=n + 1)
    for r in _radii(n):
        assert greedy_max_r_multipacking_1d(pts, r).size == shortest_path_mp_1d(pts, r), r


@pytest.mark.parametrize("n", [300, 1000])
def test_full_radius_optimum_within_line_bounds(n):
    for seed in range(3):
        mp = shortest_path_mp_1d(random_point_set(n, dim=1, seed=seed), n - 1)
        assert n // 3 <= mp <= n // 2


def test_family_optima_from_shortest_path_oracle():
    lower, upper = lower_family_1d(300), upper_family_1d(299)
    assert shortest_path_mp_1d(lower, 299) == 100 == 300 // 3
    assert shortest_path_mp_1d(upper, 298) == 149 == 299 // 2
    assert greedy_max_r_multipacking_1d(lower, 299).size == 100
    assert greedy_max_r_multipacking_1d(upper, 298).size == 149


def test_greedy_full_radius_memory_stays_narrow():
    # the slack-matrix sweep peaked at 76 MiB here; the run-bound table is
    # n x n uint16 (7.6 MiB)
    n = 2000
    pts = random_point_set(n, dim=1, seed=7)
    expected = shortest_path_mp_1d(pts, n - 1)  # ranks pts at full width first
    tracemalloc.start()
    try:
        report = greedy_max_r_multipacking_1d(pts, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.size == expected
    assert peak <= 64 * 2**20, peak


def test_greedy_long_line_small_radius():
    # triangular numbers from T_7 on: point i's gaps are i+7 (left) and i+8
    # (right), so its three nearest are never tied, and the span (~2*10^8)
    # stays under the k-d tree ranking limit
    n = 20_000
    pts = PointSet.of([((i + 7) * (i + 8) // 2 - 28,) for i in range(n)])
    report = greedy_max_r_multipacking_1d(pts, 2)
    table = NeighborTable(order=tuple(nearest_profile(pts, 2)))
    assert is_r_multipacking(pts, table, report.indices, 2) == (True, None)
    # N_2[i] = {i-1, i, i+1} inside the line: at most one member per three
    # consecutive points, so every third point is the optimum
    assert report.indices == tuple(range(0, n, 3))


def test_lower_family_values():
    assert coords(lower_family_1d(3)) == (2, 4, 8)
    assert coords(lower_family_1d(6)) == (2, 4, 8, 16, 32, 64)


def test_lower_family_hits_lower_bound_at_multiples_of_three():
    for n in (3, 6, 9, 12):
        assert multipacking_number(lower_family_1d(n)) == n // 3


def test_lower_family_exceeds_bound_off_multiples():
    assert multipacking_number(lower_family_1d(4)) == 2 > 4 // 3


def test_upper_family_unscaled_values():
    assert coords(upper_family_1d(6, scaled=False)) == (0, 2, 3, 11, 18, 50)


def test_upper_family_scaled_values():
    assert coords(upper_family_1d(7)) == (0, 6, 9, 33, 54, 150, 243)


def test_upper_family_displacement_inequalities():
    p = coords(upper_family_1d(9, scaled=False))
    for k in range(1, 4):
        gap = p[2 * k + 1] - p[2 * k]
        assert gap > p[2 * k] - p[0]
        if 2 * k + 2 < len(p):
            assert gap > p[2 * k + 2] - p[2 * k + 1]


def test_upper_family_strictly_increasing():
    for n in (5, 8, 11):
        p = coords(upper_family_1d(n))
        assert all(a < b for a, b in zip(p, p[1:]))


def test_upper_family_hits_upper_bound_for_odd_n():
    for n in (5, 7, 9, 11):
        assert multipacking_number(upper_family_1d(n)) == n // 2


def test_upper_family_even_six_falls_short():
    pts = upper_family_1d(6)
    assert multipacking_number(pts) == 2 < 6 // 2
    table = build_neighbor_table(pts)
    ok, violation = is_r_multipacking(pts, table, {0, 3, 5}, 5)
    assert not ok
    assert (violation.v, violation.s) == (5, 2)


def test_scaled_and_unscaled_families_agree_on_structure():
    for n in (4, 7, 10):
        scaled = upper_family_1d(n)
        unscaled = upper_family_1d(n, scaled=False)
        assert coords(scaled) == tuple(3 * c for c in coords(unscaled))
        assert multipacking_number(scaled) == multipacking_number(unscaled)


def test_verify_bounds_lower_six():
    assert verify_1d_bounds(lower_family_1d(6)) == {
        "lower": 2, "upper": 3, "mp": 2, "holds": True,
    }


def test_verify_bounds_upper_seven():
    assert verify_1d_bounds(upper_family_1d(7)) == {
        "lower": 2, "upper": 3, "mp": 3, "holds": True,
    }


def test_verify_bounds_random_suite():
    for seed in range(30):
        n = 2 + seed % 11
        result = verify_1d_bounds(random_point_set(n, dim=1, seed=seed))
        assert result["holds"]
        assert result["lower"] == n // 3
        assert result["upper"] == n // 2


def test_full_radius_profile_floor_for_lower_family():
    profile = bruteforce_profile(lower_family_1d(6))
    assert profile[-1].size == 2
    assert profile[0].size >= profile[-1].size
