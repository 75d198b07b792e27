import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pts1d, pts2d, reference_prefix, reference_ties
from multipack import (
    GeneralPositionError,
    ParseError,
    PointSet,
    assert_general_position,
    assert_global_distinct_distances,
    build_neighbor_table,
    load_points,
    load_points_csv,
    load_points_json,
    perturb,
    save_points_csv,
    save_points_json,
    squared_distance,
)
from multipack.geometry import (
    format_coordinate,
    nearest_profile,
    parse_coordinate,
    two_nearest,
)
from multipack.instances import random_point_set

UNIT_SQUARE = pts2d((0, 0), (1, 0), (1, 1), (0, 1))


def test_squared_distance_1d():
    assert squared_distance((0,), (3,)) == 9


def test_squared_distance_2d():
    assert squared_distance((0, 0), (3, 4)) == 25


def test_squared_distance_rational():
    assert squared_distance((Fraction(1, 2), 0), (0, 0)) == Fraction(1, 4)


def test_squared_distance_symmetric_and_zero_iff_equal():
    a, b = (3, -7), (10, 4)
    assert squared_distance(a, b) == squared_distance(b, a)
    assert squared_distance(a, a) == 0
    assert squared_distance(a, b) > 0


def test_squared_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        squared_distance((1,), (1, 2))


@pytest.mark.parametrize(
    "text,value",
    [
        ("-3.25", Fraction(-13, 4)),
        ("7/3", Fraction(7, 3)),
        ("42", 42),
        ("0.5", Fraction(1, 2)),
    ],
)
def test_parse_coordinate(text, value):
    assert parse_coordinate(text) == value


def test_parse_coordinate_rejects_garbage():
    with pytest.raises(ParseError):
        parse_coordinate("1.2.3")


def test_format_coordinate_round_trips():
    for value in (0, -17, Fraction(7, 3), Fraction(-13, 4)):
        assert parse_coordinate(format_coordinate(value)) == value


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError):
        pts2d((1, 2), (1, 2))


def test_point_set_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        PointSet.of([(1,), (1, 2)])


def test_neighbor_table_three_points():
    pts = pts1d(0, 3, 4)
    table = build_neighbor_table(pts)
    assert table.order[1] == (2, 0)
    assert table.order[0] == (1, 2)
    assert table.order[2] == (1, 0)


def test_neighbor_table_powers_of_two():
    pts = pts1d(2, 4, 8, 16)
    table = build_neighbor_table(pts)
    assert table.order[2] == (1, 0, 3)
    assert table.order[3] == (2, 1, 0)


def test_neighbor_table_collinear_2d():
    pts = pts2d((0, 0), (1, 0), (3, 0), (7, 0))
    table = build_neighbor_table(pts)
    assert table.order[3] == (2, 1, 0)


def test_neighbor_table_rows_cover_all_other_points():
    pts = random_point_set(9, dim=2, seed=5)
    table = build_neighbor_table(pts)
    for v in range(pts.n):
        assert len(table.order[v]) == pts.n - 1
        assert sorted(table.order[v]) == [u for u in range(pts.n) if u != v]


def test_neighbor_table_rank():
    pts = pts1d(2, 4, 8, 16)
    table = build_neighbor_table(pts)
    assert table.rank(2, 2) == 0
    assert table.rank(2, 1) == 1
    assert table.rank(2, 3) == 3


def test_general_position_midpoint_violation():
    assert assert_general_position(pts1d(0, 1, 2)) == [(1, 0, 2)]


def test_general_position_clean():
    assert assert_general_position(pts1d(0, 1, 3)) == []


def test_general_position_unit_square():
    violations = assert_general_position(UNIT_SQUARE)
    assert len(violations) == 4
    assert sorted({v for v, _, _ in violations}) == [0, 1, 2, 3]


def test_build_neighbor_table_raises_on_tie():
    with pytest.raises(GeneralPositionError) as info:
        build_neighbor_table(pts1d(0, 1, 2))
    assert info.value.triple == (1, 0, 2)


def test_global_distinct_distances_is_stricter():
    pts = pts2d((0, 0), (5, 0), (100, 0), (103, 4))
    assert assert_general_position(pts) == []
    pairs = assert_global_distinct_distances(pts)
    assert ((0, 1), (2, 3)) in pairs


def test_neighbor_order_translation_and_scale_invariant():
    for seed in range(8):
        pts = random_point_set(10, dim=2, seed=seed)
        base = build_neighbor_table(pts).order
        moved = PointSet.of([(3 * x + 17, 3 * y - 9) for x, y in pts])
        assert build_neighbor_table(moved).order == base


def test_neighbor_table_deterministic():
    pts = random_point_set(12, dim=2, seed=3)
    assert build_neighbor_table(pts).order == build_neighbor_table(pts).order


def rosettes(count, ring, seed):
    """Far-apart copies of a centre with a tie-free ring of radius ~100 round it.

    The centre's squared distances to its ring all lie within ~300 of each
    other, so its k-d tree nominees never clear the float margin and the
    centre is re-ranked over all points.
    """
    rng = random.Random(seed)
    points = []
    for c in range(count):
        while True:
            angles = [rng.uniform(0, 2 * math.pi) for _ in range(ring)]
            rosette = [(0, 0)] + [(round(100 * math.cos(a)), round(100 * math.sin(a))) for a in angles]
            if len(set(rosette)) == ring + 1 and not reference_ties(pts2d(*rosette)):
                break
        points += [(10_000 * c + x, 10_000 * (c % 7) + y) for x, y in rosette]
    return PointSet.of(points)


def test_nearest_profile_matches_reference():
    cases = {
        "all points are candidates": random_point_set(300, dim=2, seed=2, grid=100_000),
        "k-d tree nominees": random_point_set(600, dim=2, seed=2, grid=360_000),
        "k-d tree in 1D": random_point_set(700, dim=1, seed=3, grid=10**8),
        "rows failing the float guard": rosettes(50, 11, seed=1),
    }
    for label, pts in cases.items():
        for k in (1, 2, 3):
            rows, triple = reference_prefix(pts, k)
            assert triple is None, label
            assert nearest_profile(pts, k) == rows, (label, k)


_grid_points = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=12, unique=True)
_line_points = st.lists(st.tuples(st.integers(0, 12)), min_size=2, max_size=10, unique=True)
_fraction = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 7, 11]))
_fraction_points = st.lists(st.tuples(_fraction, _fraction), min_size=2, max_size=10, unique=True)
_huge = st.integers(-(2**40), 2**40)
_huge_points = st.lists(st.tuples(_huge, _huge), min_size=2, max_size=10, unique=True)
_tiny_points = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=3, unique=True)


@settings(max_examples=300, deadline=None)
@given(
    points=st.one_of(_grid_points, _line_points, _fraction_points, _huge_points, _tiny_points),
    k=st.integers(1, 12),
)
def test_nearest_profile_property(points, k):
    pts = PointSet.of(points)
    rows, triple = reference_prefix(pts, k)
    if triple is None:
        assert nearest_profile(pts, k) == rows
    else:
        with pytest.raises(GeneralPositionError) as info:
            nearest_profile(pts, k)
        assert info.value.triple == triple
    assert assert_general_position(pts) == reference_ties(pts)


def test_nearest_profile_matches_full_table():
    pts = random_point_set(40, dim=2, seed=9)
    table = build_neighbor_table(pts)
    profile = nearest_profile(pts, 3)
    for v in range(pts.n):
        assert profile[v] == table.order[v][:3]


def test_two_nearest_matches_table():
    pts = random_point_set(25, dim=2, seed=4)
    table = build_neighbor_table(pts)
    assert two_nearest(pts) == [row[:2] for row in table.order]


def test_perturb_preserves_well_separated_order():
    pts = pts1d(0, 100, 300, 700)
    before = build_neighbor_table(pts).order
    jittered = perturb(pts, Fraction(1, 1000), seed=1)
    assert build_neighbor_table(jittered).order == before


def test_perturb_fixes_unit_square():
    jittered = perturb(UNIT_SQUARE, Fraction(1, 1000), seed=7)
    assert assert_general_position(jittered) == []


def test_perturb_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        perturb(UNIT_SQUARE, 0, seed=1)
    with pytest.raises(TypeError):
        perturb(UNIT_SQUARE, 0.001, seed=1)


def test_perturb_deterministic():
    a = perturb(UNIT_SQUARE, Fraction(1, 1000), seed=11)
    b = perturb(UNIT_SQUARE, Fraction(1, 1000), seed=11)
    assert a.points == b.points


def test_perturb_breaks_exact_ties():
    jittered = perturb(pts1d(0, 1, 2), Fraction(1, 10**9), seed=0)
    assert assert_general_position(jittered) == []


def test_csv_round_trip_1d(tmp_path):
    pts = pts1d(Fraction(-13, 4), 0, Fraction(7, 3))
    path = tmp_path / "points.csv"
    save_points_csv(pts, path)
    assert load_points_csv(path).points == pts.points


def test_csv_round_trip_2d(tmp_path):
    pts = random_point_set(20, dim=2, seed=1)
    path = tmp_path / "points.csv"
    save_points_csv(pts, path)
    assert load_points_csv(path).points == pts.points


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        load_points_csv(path)


def test_json_round_trip(tmp_path):
    pts = pts2d((Fraction(1, 2), 3), (-2, Fraction(-7, 3)))
    path = tmp_path / "points.json"
    save_points_json(pts, path)
    assert load_points_json(path).points == pts.points


def test_json_decimals_parse_exactly(tmp_path):
    path = tmp_path / "points.json"
    path.write_text('{"dim": 1, "points": [[0.1], [0.3]]}')
    assert load_points_json(path).points == ((Fraction(1, 10),), (Fraction(3, 10),))


def test_load_points_dispatches_on_suffix(tmp_path):
    pts = pts1d(1, 5, 9)
    csv_path = tmp_path / "p.csv"
    json_path = tmp_path / "p.json"
    save_points_csv(pts, csv_path)
    save_points_json(pts, json_path)
    assert load_points(csv_path).points == pts.points
    assert load_points(json_path).points == pts.points
    txt_path = tmp_path / "p.txt"
    txt_path.write_text(csv_path.read_text())
    assert load_points(txt_path).points == pts.points
