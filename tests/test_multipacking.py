import hashlib
import itertools
import json
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MALFORMED_TABLES,
    malformed_table,
    naive_best_witness,
    pts1d,
    pts2d,
    reference_check,
    reference_oracle_report,
    reference_violation_scan,
)
from multipack import (
    BudgetExceededError,
    GeneralPositionError,
    NeighborTable,
    Violation,
    bruteforce_max_r_multipacking,
    bruteforce_profile,
    build_neighbor_table,
    greedy_max_r_multipacking_1d,
    is_r_multipacking,
    load_witness,
    max_2_multipacking_exact,
    multipacking_number,
    save_witness,
)
import multipack
from multipack import multipacking
from multipack.geometry import nearest_order, nearest_profile
from multipack.instances import random_point_set
from multipack.line import lower_family_1d

POWERS = pts1d(2, 4, 8, 16)


def test_checker_accepts_far_pair():
    table = build_neighbor_table(POWERS)
    ok, violation = is_r_multipacking(POWERS, table, {0, 3}, 3)
    assert ok and violation is None


def test_checker_rejects_adjacent_pair():
    table = build_neighbor_table(POWERS)
    ok, violation = is_r_multipacking(POWERS, table, {0, 1}, 1)
    assert not ok
    assert violation == Violation(v=0, s=1, count=2, bound=1)


def test_checker_empty_and_singletons_always_valid():
    table = build_neighbor_table(POWERS)
    for r in range(1, POWERS.n):
        assert is_r_multipacking(POWERS, table, set(), r)[0]
        for v in range(POWERS.n):
            assert is_r_multipacking(POWERS, table, {v}, r)[0]


def test_checker_validates_r_range():
    table = build_neighbor_table(POWERS)
    with pytest.raises(ValueError):
        is_r_multipacking(POWERS, table, {0}, 0)
    with pytest.raises(ValueError):
        is_r_multipacking(POWERS, table, {0}, POWERS.n)


RADIUS_ENTRY_POINTS = {
    "oracle": bruteforce_max_r_multipacking,
    "checker": lambda pts, r: is_r_multipacking(pts, build_neighbor_table(pts), {0}, r),
    "greedy1d": greedy_max_r_multipacking_1d,
}


@pytest.mark.parametrize("r", [2.0, 1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("entry", RADIUS_ENTRY_POINTS)
def test_radius_must_be_an_integer(entry, r):
    with pytest.raises(ValueError, match=f"^r must be an integer, got {re.escape(repr(r))}$"):
        RADIUS_ENTRY_POINTS[entry](POWERS, r)


def test_oracle_rejects_a_non_integer_radius_on_one_point():
    with pytest.raises(ValueError, match=r"^r must be an integer, got 2\.5$"):
        bruteforce_max_r_multipacking(pts1d(7), 2.5)
    assert bruteforce_max_r_multipacking(pts1d(7), np.int64(2)).size == 1


def test_checker_rejects_table_narrower_than_r():
    table = NeighborTable(order=tuple(nearest_profile(POWERS, 2)))
    assert is_r_multipacking(POWERS, table, {0, 3}, 2)[0]
    with pytest.raises(ValueError, match="width"):
        is_r_multipacking(POWERS, table, {0, 3}, 3)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("case", MALFORMED_TABLES)
def test_checker_rejects_malformed_tables(case, r):
    # read as an index, the -1 in a row 0 of (-1, 2, 3) on 0, 1, 3, 7 would
    # be point 3 and reject the valid {0, 3} at r = 1
    pts = pts1d(0, 1, 3, 7)
    table, message = malformed_table(pts, case, r)
    with pytest.raises(ValueError, match=f"^{message}$"):
        is_r_multipacking(pts, table, {0, 3}, r)


def test_full_radius_check_reads_the_ranked_array(monkeypatch):
    # a library table is a view of nearest_order's array: no per-point tuples are built
    def refuse(*args):
        raise AssertionError("built neighbor tuples")

    monkeypatch.setattr(multipack.geometry, "nearest_profile", refuse)
    monkeypatch.setattr(multipack.geometry, "_rows", refuse)
    for pts in (lower_family_1d(300), random_point_set(40, dim=2, seed=4)):
        r = pts.n - 1
        table = build_neighbor_table(pts)
        witness = greedy_max_r_multipacking_1d(pts, r).indices if pts.dim == 1 else (0,)
        assert is_r_multipacking(pts, table, witness, r) == (True, None)
        assert is_r_multipacking(pts, table, range(pts.n), r)[0] is False
        assert "order" not in table.__dict__


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), dim=st.sampled_from([1, 2]), seed=st.integers(0, 10**6))
def test_checker_matches_reference(data, n, dim, seed):
    """Same (ok, Violation), or the same error, as the loop on full and width-r tables."""
    pts = random_point_set(n, dim=dim, seed=seed)
    r = data.draw(st.integers(1, n - 1), label="r")
    # random sets are both valid and invalid; a stray -1 or n tests the index check
    members = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="members")
    members += data.draw(st.sampled_from([[], [], [], [-1], [n]]), label="stray")
    for table in (build_neighbor_table(pts), NeighborTable(order=tuple(nearest_profile(pts, r)))):
        assert _outcome(is_r_multipacking, pts, table, members, r) == _outcome(
            reference_check, pts, table, members, r
        )


def test_oracle_reads_only_the_first_r_plus_one_distances():
    # point 0 has a tie at ranks 4 and 5, which radius 2 never reads
    pts = pts2d((0, 0), (1, 0), (0, 2), (0, 3), (10, 0), (0, 10))
    oracle = bruteforce_max_r_multipacking(pts, 2)
    assert oracle.indices == max_2_multipacking_exact(pts).indices
    with pytest.raises(ValueError):
        bruteforce_max_r_multipacking(pts, 4)


def test_checker_validates_member_indices():
    table = build_neighbor_table(POWERS)
    with pytest.raises(ValueError):
        is_r_multipacking(POWERS, table, {0, 4}, 1)


def test_checker_reports_first_violation_in_scan_order():
    pts = pts1d(0, 1, 3, 10)
    table = build_neighbor_table(pts)
    ok, violation = is_r_multipacking(pts, table, {0, 1, 2}, 2)
    assert not ok
    assert (violation.v, violation.s) == (0, 1)


def test_oracle_powers_of_two_n6():
    pts = pts1d(2, 4, 8, 16, 32, 64)
    report = bruteforce_max_r_multipacking(pts, 5)
    assert report.size == 2
    assert report.indices == (0, 3)


def test_oracle_upper_values_n5():
    report = bruteforce_max_r_multipacking(pts1d(0, 2, 3, 11, 18), 4)
    assert report.size == 2
    assert report.indices == (0, 3)


def test_oracle_singleton_convention():
    """One point, in either dimension, is its own maximum packing at any r >= 1."""
    for one in (pts1d(7), pts2d((5, 7))):
        assert multipacking_number(one) == 1
        for r in (1, 3):
            report = bruteforce_max_r_multipacking(one, r)
            assert (report.size, report.indices, report.stats) == (1, (0,), {"subsets": 2})


def test_checker_accepts_one_point_witnesses():
    """The oracle's one-point witness passes the checker at any r >= 1, as `multipack check` says."""
    for one in (pts1d(7), pts2d((5, 7))):
        table = build_neighbor_table(one)
        witness = bruteforce_max_r_multipacking(one, 1).indices
        for r in (1, 2, 5):
            assert is_r_multipacking(one, table, witness, r) == (True, None)
            assert is_r_multipacking(one, table, (), r) == (True, None)
        with pytest.raises(ValueError, match="out of range"):
            is_r_multipacking(one, table, (1,), 1)
        for r in (0, 1.5, True):
            with pytest.raises(ValueError):
                is_r_multipacking(one, table, witness, r)
        with pytest.raises(ValueError, match="does not match"):
            is_r_multipacking(one, build_neighbor_table(pts1d(1, 2)), witness, 1)


def test_multipacking_number_powers():
    assert multipacking_number(POWERS) == 2


def test_multipacking_number_any_three_points():
    for seed in range(5):
        assert multipacking_number(random_point_set(3, dim=2, seed=seed)) == 1


def test_oracle_size_guard():
    assert multipacking.ORACLE_MAX_N == 24
    big = random_point_set(25, dim=2, seed=0, audit="none")
    for oracle in (bruteforce_profile, multipacking_number, lambda pts: bruteforce_max_r_multipacking(pts, 3)):
        with pytest.raises(BudgetExceededError, match="^n=25 exceeds brute-force limit 24$"):
            oracle(big)


def test_oracle_raises_before_any_work_past_its_limit(monkeypatch):
    """Past ORACLE_MAX_N the oracle raises before it ranks or allocates anything."""

    def forbidden(*args):
        raise AssertionError("the oracle started work past its limit")

    monkeypatch.setattr(multipacking, "nearest_order", forbidden)
    monkeypatch.setattr(multipacking, "_violation_radius_scan", forbidden)
    for n in (25, 34):
        big = random_point_set(n, dim=2, seed=n, audit="none")
        for oracle in (bruteforce_profile, lambda pts: bruteforce_max_r_multipacking(pts, 3)):
            with pytest.raises(BudgetExceededError, match=f"^n={n} exceeds brute-force limit 24$"):
                oracle(big)
    at_limit = random_point_set(24, dim=2, seed=24, audit="none")
    for oracle in (bruteforce_profile, lambda pts: bruteforce_max_r_multipacking(pts, 3)):
        with pytest.raises(AssertionError, match="past its limit"):  # 24 points pass the size check
            oracle(at_limit)


def test_oracle_cross_checks_past_sixteen_points():
    """From the old n = 16 cap up to the n = 24 limit the oracle agrees with both exact solvers."""
    for n, seed in [*itertools.product(range(17, 23), (0, 1)), (23, 0), (24, 0)]:
        line = random_point_set(n, dim=1, seed=seed)
        greedy, oracle = greedy_max_r_multipacking_1d(line, n - 1), bruteforce_max_r_multipacking(line, n - 1)
        assert greedy.size == oracle.size, (n, seed)
        plane = random_point_set(n, dim=2, seed=seed)
        exact, oracle = max_2_multipacking_exact(plane), bruteforce_max_r_multipacking(plane, 2)
        assert (exact.size, exact.indices) == (oracle.size, oracle.indices), (n, seed)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
    small_grid=st.booleans(),
)
def test_oracle_matches_reference_scan(n, dim, seed, small_grid):
    """Every report, full profile and width-r tables alike, equals the earlier scan's.

    A grid of n * n leaves ties in many draws: those still run every radius
    whose table is tie-free, the narrowed tables that a full profile rejects.
    """
    pts = random_point_set(n, dim=dim, seed=seed, grid=n * n if small_grid else None, audit="none")
    for r in range(1, n):
        try:
            table = NeighborTable(order=tuple(nearest_profile(pts, r)))
        except GeneralPositionError:
            break
        expected = reference_oracle_report(*reference_violation_scan(table), r)
        assert bruteforce_max_r_multipacking(pts, r) == expected, r
    else:
        scan = reference_violation_scan(build_neighbor_table(pts))
        assert bruteforce_profile(pts) == [reference_oracle_report(*scan, r) for r in range(1, n)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 10),
    dim=st.sampled_from([1, 2]),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
    width=st.integers(1, 9),
)
def test_stacked_scan_matches_reference_per_set(n, dim, seeds, width):
    """Each set of a stack gets the first-bad radii the earlier scan gives it alone."""
    width = min(width, n - 1)
    stack = [random_point_set(n, dim=dim, seed=seed) for seed in seeds]  # tie-free at every width
    got_n, ids, first_bad, pop = multipacking._violation_radius_scan(
        np.stack([nearest_order(pts, width) for pts in stack])
    )
    assert got_n == n
    assert (np.diff(ids.astype(np.int64)) > 0).all()
    for k, pts in enumerate(stack):
        expected, expected_pop, _ = reference_violation_scan(NeighborTable(order=tuple(nearest_profile(pts, width))))
        mine = ids >> n == k
        radii = np.ones(1 << n, dtype=np.int16)  # every id the scan leaves out breaks s = 1
        radii[ids[mine] & ((1 << n) - 1)] = first_bad[mine]
        assert (radii == expected).all(), k
        assert (pop[mine] == expected_pop[ids[mine] & ((1 << n) - 1)]).all(), k


# SHA-1 of the JSON profile per (n, dim, seed), recorded with the earlier per-(s, v) scan
_PROFILE_DIGESTS = {
    (13, 1, 0): "9aa7a6e44da3187a377206019a063cfa87c75da3",
    (13, 1, 1): "379d5d94e92a6e29d0b03b54fa7aa5fd714ce958",
    (13, 2, 0): "df63f62183a0e269adf4f59005fb21b9b4c1db34",
    (13, 2, 1): "19e660123077b6677f0b7a539d3c6c294b68d6d7",
    (14, 1, 0): "06386ba0635cd5b4be9d6d62b09c0335af61053b",
    (14, 1, 1): "d55607597b75e019108184aafc962e3a8e8e721c",
    (14, 2, 0): "8c21be4e80c5ca971cd01c06fd8af9e434536b62",
    (14, 2, 1): "3d3063c42da618a814c1f72dfb20603226386679",
    (15, 1, 0): "91dd2df24a882953f49757c1ca2b19c7e078cbc3",
    (15, 1, 1): "2b9a48badfe91637a125cdddc1cf32fa07d5f890",
    (15, 2, 0): "da0417e276e1bd83c99dd305c664e6ac2326a472",
    (15, 2, 1): "6a967a9858d6a6087384d0c9ba111e299f0ad349",
    (16, 1, 0): "87e174f7d889881ba6c67e74cd04f2a0c46e218a",
    (16, 1, 1): "9b14f53beb38ce7c8909c1b229c091ce4b08a60b",
    (16, 2, 0): "a41348da8a4a4ea3b632ec6419744067b36a4708",
    (16, 2, 1): "2921fe3c26cd4a0316c89d263dd7220058a3319f",
}


def test_oracle_profiles_are_pinned():
    for (n, dim, seed), digest in _PROFILE_DIGESTS.items():
        reports = bruteforce_profile(random_point_set(n, dim=dim, seed=seed))
        assert all(report.stats == {"subsets": 2**n} for report in reports)
        payload = json.dumps([report.to_json_dict() for report in reports])
        assert hashlib.sha1(payload.encode()).hexdigest() == digest, (n, dim, seed)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 14), dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_odd_radius_keeps_the_radius_below_property(n, dim, seed):
    """For every odd r >= 3 the maximum r-multipacking is the (r-1)-one, size and witness: a closed
    r-neighborhood adds one point to the (r-1)-one, so its bound of (r+1)/2 follows from (r-1)/2."""
    profile = bruteforce_profile(random_point_set(n, dim=dim, seed=seed))
    for r in range(3, n, 2):
        assert (profile[r - 1].size, profile[r - 1].indices) == (profile[r - 2].size, profile[r - 2].indices), r


def test_oracle_matches_naive_enumeration():
    for seed in range(30):
        n = 4 + seed % 5
        pts = random_point_set(n, dim=1 + seed % 2, seed=seed)
        table = build_neighbor_table(pts)
        for r in range(1, n):
            report = bruteforce_max_r_multipacking(pts, r)
            assert report.indices == naive_best_witness(pts, table, r)


def test_oracle_witness_passes_checker():
    for seed in range(20):
        pts = random_point_set(7, dim=2, seed=seed)
        table = build_neighbor_table(pts)
        for r in range(1, 7):
            report = bruteforce_max_r_multipacking(pts, r)
            assert is_r_multipacking(pts, table, report.indices, r)[0]


def test_profile_matches_per_radius_calls():
    pts = random_point_set(8, dim=2, seed=12)
    profile = bruteforce_profile(pts)
    assert len(profile) == 7
    for report in profile:
        single = bruteforce_max_r_multipacking(pts, report.r)
        assert (report.size, report.indices) == (single.size, single.indices)


def test_hereditary_subsets_of_witnesses_are_valid():
    rng = random.Random(0)
    for seed in range(15):
        pts = random_point_set(9, dim=2, seed=seed)
        table = build_neighbor_table(pts)
        r = 1 + seed % 8
        witness = bruteforce_max_r_multipacking(pts, r).indices
        for _ in range(8):
            sub = [i for i in witness if rng.random() < 0.6]
            assert is_r_multipacking(pts, table, sub, r)[0]


def test_monotone_in_radius():
    for seed in range(15):
        pts = random_point_set(8, dim=1 + seed % 2, seed=seed)
        sizes = [report.size for report in bruteforce_profile(pts)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] >= 1


def test_full_radius_upper_bound():
    for seed in range(15):
        n = 4 + seed % 6
        pts = random_point_set(n, dim=2, seed=seed)
        assert multipacking_number(pts) <= n // 2


def test_valid_sets_stay_valid_for_smaller_r():
    pts = random_point_set(8, dim=2, seed=21)
    table = build_neighbor_table(pts)
    for combo in itertools.combinations(range(8), 3):
        if is_r_multipacking(pts, table, combo, 5)[0]:
            for smaller in range(1, 5):
                assert is_r_multipacking(pts, table, combo, smaller)[0]


def test_witness_json_round_trip(tmp_path):
    report = bruteforce_max_r_multipacking(pts1d(2, 4, 8, 16, 32, 64), 5)
    path = tmp_path / "witness.json"
    save_witness(report, path)
    data = json.loads(path.read_text())
    assert data == {"r": 5, "indices": [0, 3], "size": 2}
    indices, r = load_witness(path)
    assert indices == (0, 3)
    assert r == 5


@pytest.mark.parametrize("text, error", [
    ('{"indices": [0], "r": 1', "Expecting ',' delimiter"),
    ('{"indices": [0], "r": 1.5}', "'r' must be an integer"),
    ('{"indices": [0], "r": "2"}', "'r' must be an integer"),
    ('{"indices": [0], "r": LONG}', "integer string conversion"),
    ('{"indices": [0], "size": 1.0}', "'size' must be an integer"),
], ids=["cut", "fraction", "text", "long", "float-size"])
def test_load_witness_names_the_file(tmp_path, text, error):
    """Malformed JSON, a non-integer r or size and an integer past the int digit limit all name the file."""
    path = tmp_path / "witness.json"
    path.write_text(text.replace("LONG", "7" * (sys.get_int_max_str_digits() + 1)))
    with pytest.raises(ValueError) as info:
        load_witness(path)
    assert str(info.value).startswith(f"{path}: ") and error in str(info.value)


def test_load_witness_accepts_full_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"size":2,"indices":[1,4],"r":3,"method":"x","stats":{}}')
    assert load_witness(path) == ((1, 4), 3)
