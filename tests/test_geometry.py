import math
import random
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pts1d, pts2d, reference_prefix, reference_ties
from multipack import (
    GeneralPositionError,
    NeighborTable,
    ParseError,
    PointSet,
    assert_general_position,
    build_conflict_graph,
    build_nearest_neighbor_graph,
    build_neighbor_table,
    greedy_2_multipacking,
    is_r_multipacking,
    load_points,
    load_points_csv,
    load_points_json,
    max_1_multipacking,
    max_degree_audit,
    multipacking_number,
    perturb,
    save_points_csv,
    save_points_json,
    squared_distance,
)
from multipack import geometry, plane
from multipack.geometry import (
    _normalize,
    format_coordinate,
    nearest_profile,
    parse_coordinate,
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


def _fraction_outcome(token):
    try:
        return _normalize(Fraction(token.strip()))
    except (ValueError, ZeroDivisionError):
        return ParseError


def _parse_outcome(token):
    try:
        return parse_coordinate(token)
    except ParseError:
        return ParseError


def _assert_parses_like_fraction(token):
    got, expected = _parse_outcome(token), _fraction_outcome(token)
    assert got == expected and type(got) is type(expected), repr(token)


@pytest.mark.parametrize(
    "token",
    [
        "0", "-0", "+5", "-5", "007", "-007", "+007", "1_000", "-1_000", "_1", "1_", "1__0", "+_1",
        "- 5", "\xa05", "5\n", " 42 ", "\u20037\u2003", "\x1c5\x1f", "\u0663", "\uff11\uff12",
        "\u0661\u0662/\u0663", "1e3", "0x10", "0b1", "", " ", "1.5", "7/3", "1/0", "2/4",
        "5" * 5000, "-" + "9" * 5000, "3" * 4300,
    ],
    ids=lambda token: repr(token)[:16],
)
def test_parse_coordinate_matches_fraction(token):
    _assert_parses_like_fraction(token)


@settings(max_examples=500, deadline=None)
@given(token=st.one_of(st.text(), st.text(alphabet="0123456789_+-/.eE \n\t\xa0\u0663\uff12", max_size=10)))
def test_parse_coordinate_matches_fraction_on_any_token(token):
    _assert_parses_like_fraction(token)


def test_format_coordinate_round_trips():
    for value in (0, -17, Fraction(7, 3), Fraction(-13, 4)):
        assert parse_coordinate(format_coordinate(value)) == value


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError):
        pts2d((1, 2), (1, 2))


def test_point_set_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        PointSet.of([(1,), (1, 2)])


@pytest.mark.parametrize("point", [(0.5,), ("1",), (None,), (1.0,), (3, 0.25)], ids=repr)
def test_point_set_rejects_coordinates_that_are_not_exact_rationals(point):
    points = [(0,) * len(point), point, (7,) * len(point)]
    value = next(c for c in point if not isinstance(c, int))
    with pytest.raises(ValueError, match=f"^point 1 has coordinate {re.escape(repr(value))}, not an int or Fraction$"):
        PointSet.of(points)


def test_point_set_takes_bools_and_numpy_integers_as_ints():
    pts = PointSet.of([(True,), (np.int64(5),), (Fraction(1, 3),), (np.uint8(12),)])
    assert nearest_profile(pts, 2) == [(2, 1), (0, 2), (0, 1), (1, 0)]


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


def test_general_position_midpoint_violation():
    # point 1's tied neighbors: the smaller index on its left, then on its right
    for pts in (pts1d(0, 1, 2), pts1d(2, 1, 0)):
        assert assert_general_position(pts) == [(1, 0, 2)], pts


def test_general_position_clean():
    assert assert_general_position(pts1d(0, 1, 3)) == []


def test_general_position_unit_square():
    violations = assert_general_position(UNIT_SQUARE)
    assert len(violations) == 4
    assert sorted({v for v, _, _ in violations}) == [0, 1, 2, 3]


def test_build_neighbor_table_raises_on_tie():
    # point 1's tied neighbors: the smaller index on its left, then on its right
    for pts in (pts1d(0, 1, 2), pts1d(2, 1, 0)):
        with pytest.raises(GeneralPositionError) as info:
            build_neighbor_table(pts)
        assert info.value.triple == (1, 0, 2), pts


def test_neighbor_order_translation_and_scale_invariant():
    for seed in range(8):
        pts = random_point_set(10, dim=2, seed=seed)
        base = build_neighbor_table(pts).order
        moved = PointSet.of([(3 * x + 17, 3 * y - 9) for x, y in pts])
        assert build_neighbor_table(moved).order == base


def test_neighbor_table_deterministic():
    pts = random_point_set(12, dim=2, seed=3)
    assert build_neighbor_table(pts).order == build_neighbor_table(pts).order


GOLOMB = (0, 1, 4, 13, 28, 33, 47, 54, 64, 70, 72)  # every difference is distinct


def rosettes(count):
    """Far-apart centres, each with eleven points at nearly equal distance.

    A centre's eleven points stand on a vertical line `reach` away, at the
    Golomb heights, so its squared distances to them are distinct but all
    within 72^2 < reach^2 / 2^40 of each other: its k-d tree nominees never
    clear the float guard and the centre is re-ranked over all points.  The
    line points' own nearest neighbors are far apart in relative terms.
    """
    reach = 80_000_000
    points = []
    for c in range(count):
        x, y = 3 * reach * (c % 4), 3 * reach * (c // 4)
        points += [(x, y)] + [(x + reach, y + h) for h in GOLOMB]
    return PointSet.of(points)


def _all_points_rows(monkeypatch) -> list[int]:
    """Record the rows each `_exact_sort` call ranks over every point (the fallback)."""
    counts = []
    exact_sort = geometry._exact_sort

    def counting(arr, rows, cand):
        if cand.shape[1] == len(arr):
            counts.append(len(rows))
        return exact_sort(arr, rows, cand)

    monkeypatch.setattr(geometry, "_exact_sort", counting)
    return counts


def _counted(monkeypatch, module, name) -> list:
    """Record the arguments of every call to module.name."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_nearest_profile_matches_reference(monkeypatch):
    """Every ranking path against plain sorting, and which rows fell back to all points.

    The k-d tree keeps k + 5 certified columns, so its ranking for k = 1
    serves k = 2 and 3 too; a planar ranking over all points keeps k + 1
    columns, and so does a line, which always ranks the min(2k+3, n) places
    around each point, so each wider k ranks again.
    """
    cases = {  # label: (points, rows ranked over all points per ranking, rankings for k = 1, 2, 3)
        "k-d tree at n = 60": (random_point_set(60, dim=2, seed=2), 0, 1),
        "k-d tree at n = 300": (random_point_set(300, dim=2, seed=2, grid=100_000), 0, 1),
        "k-d tree at n = 600": (random_point_set(600, dim=2, seed=2, grid=360_000), 0, 1),
        **{
            f"k-d tree at span 2^{e}": (random_point_set(600, dim=2, seed=e, grid=2**e, audit="none"), 0, 1)
            for e in (29, 40, 50)
        },
        "all points: query_k >= n": (random_point_set(8, dim=2, seed=2), 8, 3),
        "all points: span >= 2^53": (random_point_set(40, dim=2, seed=2, grid=2**54, audit="none"), 40, 3),
        "rows failing the float guard": (rosettes(12), 12, 1),
        "sorted window on a line": (random_point_set(700, dim=1, seed=3, grid=10**8), 0, 3),
        **{
            f"sorted window at span 2^{e}": (random_point_set(300, dim=1, seed=e, grid=2**e, audit="none"), 0, 3)
            for e in (31, 45, 61, 63)
        },
    }
    counts = _all_points_rows(monkeypatch)
    rankings = _counted(monkeypatch, geometry, "_ranked_rows")
    for label, (drawn, fallback, ranked) in cases.items():
        pts = PointSet(points=drawn.points, dim=drawn.dim)  # unranked: a full audit leaves its ranking on the draw
        rows, triple = reference_prefix(pts, 3)
        assert triple is None, label
        counts.clear()
        rankings.clear()
        for k in (1, 2, 3):
            assert nearest_profile(pts, k) == [row[:k] for row in rows], (label, k)
        assert len(rankings) == ranked, label
        assert sum(counts) == ranked * fallback, label


def test_default_planar_draw_ranks_without_fallback(monkeypatch):
    """A default 20 000-point draw (span ~2^28.6) is ranked by the k-d tree alone."""
    pts = random_point_set(20_000, seed=1, audit="none")
    counts = _all_points_rows(monkeypatch)
    first = nearest_profile(pts, 1)
    assert [row[:1] for row in nearest_profile(pts, 2)] == first
    assert counts == []


def test_line_coordinates_stay_int64_below_span_2_62():
    """A line ranks by |dx|, so int64 holds it while its span, not 2 * span^2, fits."""
    def dtype(pts):
        return geometry._integer_coords(pts)[0].dtype

    assert dtype(pts1d(0, 5, 2**62 - 1)) == np.int64
    assert dtype(pts1d(0, 5, 2**62)) == object
    assert dtype(pts2d((0, 0), (0, 5), (2**30, 0))) == np.int64
    assert dtype(pts2d((0, 0), (0, 5), (2**31, 0))) == object


_grid_points = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=12, unique=True)
_line_points = st.lists(st.tuples(st.integers(0, 12)), min_size=2, max_size=10, unique=True)
_fraction = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 7, 11]))
_fraction_points = st.lists(st.tuples(_fraction, _fraction), min_size=2, max_size=10, unique=True)
_huge = st.integers(-(2**40), 2**40)
_huge_points = st.lists(st.tuples(_huge, _huge), min_size=2, max_size=10, unique=True)
_huge_line = st.lists(st.tuples(st.integers(-(2**61), 2**61)), min_size=2, max_size=10, unique=True)
_object_line = st.lists(st.tuples(st.integers(-(2**80), 2**80)), min_size=2, max_size=10, unique=True)
_tiny_points = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=3, unique=True)


@settings(max_examples=300, deadline=None)
@given(
    points=st.one_of(_grid_points, _line_points, _fraction_points, _huge_points, _huge_line, _object_line, _tiny_points),
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


def _profile_outcome(pts, k):
    try:
        return nearest_profile(pts, k), None
    except GeneralPositionError as exc:
        return None, exc.triple


_fraction_line = st.lists(st.tuples(_fraction), min_size=2, max_size=10, unique=True)


@settings(max_examples=300, deadline=None)
@given(
    points=st.one_of(_grid_points, _line_points, _fraction_points, _fraction_line, _object_line, _tiny_points),
    ks=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    audit_first=st.booleans(),
)
def test_nearest_profile_cache_property(points, ks, audit_first):
    """One shared set answers every width as a fresh copy and the reference do.

    A full audit first leaves its full-width ranking on the set for every
    later request to slice.
    """
    shared = PointSet.of(points)
    if audit_first:
        assert assert_general_position(shared) == reference_ties(shared)
    for k in ks:
        expected = reference_prefix(shared, k)
        assert _profile_outcome(shared, k) == expected, k
        assert _profile_outcome(PointSet(points=shared.points, dim=shared.dim), k) == expected, k


def test_audited_draw_ranks_once_for_the_oracle(monkeypatch):
    """A fully audited draw keeps its ranking, so the oracle on it ranks nothing more."""
    rankings = _counted(monkeypatch, geometry, "_ranked_rows")
    pts = random_point_set(6, dim=2, seed=5)
    assert [keep for _, keep in rankings] == [5]
    assert multipacking_number(pts) == 3
    assert len(rankings) == 1


def test_plane_op_ranks_once_and_builds_each_graph_once(tmp_path, monkeypatch):
    """The benchmark's planar op sequence ranks its set once and builds each graph once."""
    path = tmp_path / "plane.csv"
    save_points_csv(random_point_set(600, dim=2, seed=3), path)
    rankings = _counted(monkeypatch, geometry, "_ranked_rows")
    conflict_builds = _counted(monkeypatch, plane, "_conflict_from_order")
    nng_builds = _counted(monkeypatch, plane, "_nng_from_order")
    pts = load_points(path)
    nng = max_1_multipacking(pts)
    assert is_r_multipacking(pts, NeighborTable(order=tuple(nearest_profile(pts, 1))), nng.indices, 1)[0]
    greedy = greedy_2_multipacking(pts)
    assert is_r_multipacking(pts, NeighborTable(order=tuple(nearest_profile(pts, 2))), greedy.indices, 2)[0]
    assert max_degree_audit(pts, build_conflict_graph(pts)).within_bound
    assert [keep for _, keep in rankings] == [2]
    assert len(conflict_builds) == 1
    assert len(nng_builds) == 1


def test_cached_ranking_leaves_point_set_identity():
    pts = pts2d((0, 0), (1, 0), (3, 0), (7, 1), (4, 9))
    fresh = pts2d((0, 0), (1, 0), (3, 0), (7, 1), (4, 9))
    before = repr(pts), hash(pts)
    nearest_profile(pts, 2)
    assert pts == fresh and fresh == pts
    assert (repr(pts), hash(pts)) == before == (repr(fresh), hash(fresh))
    conflict, nng = build_conflict_graph(pts), build_nearest_neighbor_graph(pts)
    assert build_conflict_graph(pts) is conflict and build_nearest_neighbor_graph(pts) is nng
    assert pts == fresh and fresh == pts
    assert (repr(pts), hash(pts)) == before == (repr(fresh), hash(fresh))
    assert [f.name for f in fields(pts)] == ["points", "dim"]
    # point 0's second and third neighbors tie: width 2 raises every time and keeps nothing
    tied = pts2d((0, 0), (1, 0), (3, 0), (0, 3), (50, 60))
    for _ in range(3):
        with pytest.raises(GeneralPositionError) as info:
            build_conflict_graph(tied)
        assert info.value.triple == (0, 2, 3)
        assert geometry._ranking(tied).graphs == {}
    tied_nng = build_nearest_neighbor_graph(tied)  # width 1 has no tie
    assert geometry._ranking(tied).graphs == {1: tied_nng}
    with pytest.raises(GeneralPositionError):
        build_conflict_graph(tied)


def test_nearest_profile_matches_full_table():
    pts = random_point_set(40, dim=2, seed=9)
    table = build_neighbor_table(pts)
    profile = nearest_profile(pts, 3)
    for v in range(pts.n):
        assert profile[v] == table.order[v][:3]


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


_file_coordinate = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(2, 1000)),
)
_file_points = st.integers(1, 2).flatmap(
    lambda dim: st.lists(st.tuples(*[_file_coordinate] * dim), min_size=1, max_size=30, unique=True)
)


@settings(max_examples=200, deadline=None)
@given(points=_file_points)
def test_point_files_round_trip_property(tmp_path_factory, points):
    pts = PointSet.of(points)
    folder = tmp_path_factory.mktemp("round_trip")
    for save, load, name in (
        (save_points_csv, load_points_csv, "points.csv"),
        (save_points_json, load_points_json, "points.json"),
    ):
        save(pts, folder / name)
        assert load(folder / name) == pts, name


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
