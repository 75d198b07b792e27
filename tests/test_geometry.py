import csv
import fractions
import math
import random
import re
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pts1d, pts2d, reference_exact_sort, reference_prefix, reference_ties
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
    max_2_multipacking_exact,
    max_degree_audit,
    multipacking_number,
    perturb,
    save_points,
    save_points_csv,
    save_points_json,
    squared_distance,
)
from multipack import geometry, plane
from multipack.geometry import (
    _normalize,
    format_coordinate,
    nearest_order,
    nearest_profile,
    parse_coordinate,
)
from multipack.instances import random_point_set
from multipack.line import lower_family_1d, upper_family_1d

UNIT_SQUARE = pts2d((0, 0), (1, 0), (1, 1), (0, 1))


def test_squared_distance_1d():
    assert squared_distance((0,), (3,)) == 9


def test_squared_distance_2d():
    assert squared_distance((0, 0), (3, 4)) == 25


def test_squared_distance_rational():
    assert squared_distance((Fraction(1, 2), 0), (0, 0)) == Fraction(1, 4)


def test_squared_distance_of_int64_beyond_their_width():
    assert squared_distance((np.int64(2**62),), (np.int64(-2**62),)) == 2**126


def test_squared_distance_of_int64_square_beyond_their_width():
    assert squared_distance((np.int64(2**32), np.int64(0)), (np.int64(0), np.int64(0))) == 2**64


def test_squared_distance_of_unsigned_bytes():
    assert squared_distance((np.uint8(3),), (np.uint8(20),)) == 289


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
    with pytest.raises(ParseError, match=re.escape("bad coordinate '1.2.3': Invalid literal for Fraction: '1.2.3'")):
        parse_coordinate("1.2.3")


def _reference_outcome(text):
    """`parse_coordinate` by its general path alone: `int`, then the exponent
    guard and `Fraction`'s own parser; the value, or the ParseError text."""
    try:
        return int(text)
    except ValueError:
        pass
    token = text.strip()
    try:
        exponent = re.search(r"[eE][-+]?([\d_]+)\Z", token)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and int(exponent[1]) > limit:
            raise ValueError(f"exponent above {limit}")
        return _normalize(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad coordinate {text!r}: {exc}"


def _assert_parses_like_reference(token):
    try:
        got = parse_coordinate(token)
    except ParseError as exc:
        got = str(exc)
    expected = _reference_outcome(token)
    assert got == expected and type(got) is type(expected), repr(token)


@pytest.mark.parametrize(
    "token",
    [
        "-3.25", "+3.25", "003.2500", "-000.5", "-0.000", "0.0", " 1.5 ", "\t-2.75\n", "\xa01.5\u2003",
        "\u0661.\u0665", "1_0.5", "10.5_0", "1.", ".5", "-.5", "1.2.3", "1.5e3", "1.5/2", "- 1.5", "1 .5",
        "1." + "0" * 3000 + "1", "9" * 3000 + "." + "5" * 3000, "9" * 5000 + ".5",
    ],
    ids=lambda token: repr(token)[:16],
)
def test_plain_decimals_parse_as_the_general_path_does(token):
    _assert_parses_like_reference(token)


_DIGITS = st.text(alphabet="0123456789", max_size=5)


@settings(max_examples=500, deadline=None)
@given(
    parts=st.tuples(
        st.sampled_from(["", " ", "\t", "\xa0", "\n "]),
        st.sampled_from(["", "+", "-", "--", "+ "]),
        st.one_of(_DIGITS, st.text(alphabet="0_\u0663", max_size=3)),
        st.sampled_from([".", ".", ".", "", "..", "/", "e", "E-"]),
        st.one_of(_DIGITS, st.text(alphabet="0_\u0663", max_size=3)),
        st.sampled_from(["", "", ".3", "e2", "_"]),
        st.sampled_from(["", " ", "\u2003", "\n"]),
    )
)
def test_decimal_like_tokens_parse_as_the_general_path_does(parts):
    """Signs, leading zeros, whitespace and near-misses of a plain decimal: same value and type, or same error text."""
    _assert_parses_like_reference("".join(parts))


def _fraction_outcome(token):
    """`Fraction`'s reading, with exponents above the int digit limit refused first."""
    match = fractions._RATIONAL_FORMAT.match(token.strip())  # the grammar `Fraction` parses by
    try:
        if match and match["exp"] and abs(int(match["exp"])) > sys.get_int_max_str_digits():
            return ParseError
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


@pytest.mark.parametrize("token", ["1e9999999", "-1e9999999", "1e-9999999", "9e99999999"])
def test_huge_exponents_are_refused_at_once(tmp_path, token):
    """`Fraction` would compute 10^exp in full: seconds for 1e9999999, minutes past 9e99999999."""
    csv_path, json_path = tmp_path / "p.csv", tmp_path / "p.json"
    csv_path.write_text(f"x\n{token}\n2\n")
    json_path.write_text(f'{{"dim": 1, "points": [[{token}], [2]]}}')
    for parse, arg in ((parse_coordinate, token), (load_points_csv, csv_path), (load_points_json, json_path)):
        with pytest.raises(ParseError, match="exponent above"):
            parse(arg)


def test_exponents_up_to_the_int_digit_limit_parse():
    limit = sys.get_int_max_str_digits()
    assert parse_coordinate(f"1e{limit}") == 10**limit
    assert parse_coordinate(f"-1e-{limit}") == Fraction(-1, 10**limit)
    for token in (f"1e{limit + 1}", f"1e-{limit + 1}"):
        with pytest.raises(ParseError):
            parse_coordinate(token)


def test_format_coordinate_round_trips():
    for value in (0, -17, Fraction(7, 3), Fraction(-13, 4)):
        assert parse_coordinate(format_coordinate(value)) == value


def test_point_set_rejects_duplicates():
    # named by the point and its second index
    half = Fraction(1, 2)
    for points, message in (
        ([(1, 2), (1, 2)], "duplicate point (1, 2) at index 1"),
        ([(1, 2), (3, 4), (1, 2)], "duplicate point (1, 2) at index 2"),
        ([(half,), (0,), (1,), (half,), (half,)], "duplicate point (Fraction(1, 2),) at index 3"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PointSet.of(points)


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


def test_int64_line_spanning_2_63_ranks_without_wrapping():
    pts = PointSet.of([(np.int64(x),) for x in (-2**62, 2**62, 1, 2**62 - 5)])
    assert nearest_profile(pts, 1) == [(2,), (3,), (3,), (1,)]


def test_int64_plane_spanning_2_32_solves_as_python_ints():
    # 2 * span^2 passes 2^63 here: numpy values that reached the ranking
    # would misrank it, and the solver's witness would then be invalid
    draw = np.random.default_rng(9).integers(0, 2**32, size=(32, 2), dtype=np.int64)
    report = max_2_multipacking_exact(PointSet.of(draw))
    exact = max_2_multipacking_exact(PointSet.of(draw.tolist()))
    assert report.size == exact.size == 12
    assert report.indices == exact.indices


def test_csv_writes_bools_and_numpy_integers_as_plain_ints(tmp_path):
    path = tmp_path / "pts.csv"
    pts = PointSet.of([(True,), (np.int64(5),), (3,)])
    save_points_csv(pts, path)
    assert path.read_text() == "x\n1\n5\n3\n"
    assert load_points_csv(path) == pts


def test_raw_point_set_rejects_numpy_integers():
    with pytest.raises(ValueError, match=r"^point 0 has coordinate np\.int64\(1\), not an int or Fraction$"):
        PointSet(points=((np.int64(1),), (2,)), dim=1)


@st.composite
def _numpy_integer_points(draw):
    """2-10 distinct points as a numpy integer array (bool included) whose
    span is near 2^31, 2^32, 2^53, 2^62 or 2^63, as far as the dtype reaches."""
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                                  np.uint8, np.uint16, np.uint32, np.uint64, np.bool_]))
    lo, hi = (0, 1) if dtype is np.bool_ else (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    span = min(hi - lo, 2 ** draw(st.sampled_from([31, 32, 53, 62, 63])) + draw(st.integers(-3, 3)))
    start = draw(st.integers(lo, hi - span))
    dim = draw(st.sampled_from([1, 2]))
    coord = st.integers(start, start + span)
    rest = draw(st.lists(st.tuples(*[coord] * dim), max_size=8))
    points = list(dict.fromkeys([(start,) * dim, (start + span,) * dim, *rest]))
    return np.array(points, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(_numpy_integer_points())
def test_numpy_integer_coordinates_rank_as_python_ints(array):
    # the reference ranks the Python-int copy: squared_distance wraps on numpy scalars too
    exact = PointSet.of(array.tolist())
    pts = PointSet.of(array)
    for k in sorted({1, 2, exact.n - 1}):
        assert _profile_outcome(pts, k) == reference_prefix(exact, k), k
    assert assert_general_position(PointSet.of(array)) == reference_ties(exact)


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


def _tuple_table(pts):
    return NeighborTable(order=tuple(nearest_profile(pts, pts.n - 1)))


@pytest.mark.parametrize(
    "pts",
    [pts1d(0, 3, 4), random_point_set(9, dim=2, seed=5), random_point_set(120, dim=2, seed=3), lower_family_1d(300)],
    ids=["line3", "plane9", "plane120", "lower300"],
)
def test_library_table_reads_like_a_tuple_table(pts):
    table, expected = build_neighbor_table(pts), _tuple_table(pts)
    assert (table.n, table.width) == (pts.n, pts.n - 1)
    assert "order" not in table.__dict__  # n and width read the array's shape
    assert table == expected and hash(table) == hash(expected) and repr(table) == repr(expected)
    assert table.order == expected.order
    assert all(type(u) is int for row in table.order for u in row)
    assert build_neighbor_table(pts) == table  # == builds the other side's order too


def test_library_table_raises_what_a_tuple_table_raises():
    pts, other = random_point_set(9, dim=2, seed=5), random_point_set(8, dim=2, seed=5)
    for n, k in ((other.n, 2), (pts.n, 0), (pts.n, pts.n), (pts.n, 2.0), (pts.n, True)):
        messages = []
        for table in (build_neighbor_table(pts), _tuple_table(pts)):
            with pytest.raises(ValueError) as raised:
                table._prefix(n, k)
            messages.append(str(raised.value))
        assert messages[0] == messages[1], (n, k)


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
    # the same error as the full-width profile, on a tie at the last two ranks
    pts = pts2d((0, 0), (1, 0), (0, 2), (0, 3), (10, 0), (0, 10))
    with pytest.raises(GeneralPositionError) as expected:
        nearest_profile(pts, pts.n - 1)
    with pytest.raises(GeneralPositionError) as info:
        build_neighbor_table(pts)
    assert (info.value.triple, str(info.value)) == (expected.value.triple, str(expected.value))
    assert str(info.value) == "points 4 and 5 are equidistant from point 0"


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
    """Record the rows each `_exact_sort` call ranks over every point (cand None: the fallback)."""
    counts = []
    exact_sort = geometry._exact_sort

    def counting(arr, rows, cand):
        if cand is None:
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
    """Every ranking path against plain sorting, and which rows were ranked over all points.

    A planar set of at most 100 points keeps whole rows, so its one ranking
    serves every k.  The k-d tree keeps k + 5 certified columns, so its
    ranking for k = 1 serves k = 2 and 3 too; a larger planar ranking over
    all points keeps k + 1 columns, and so does a line, which always ranks
    the min(2k+3, n) places around each point, so each wider k ranks again.
    """
    cases = {  # label: (points, rows ranked over all points per ranking, rankings for k = 1, 2, 3)
        "whole rows at n = 60": (random_point_set(60, dim=2, seed=2), 60, 1),
        "k-d tree at n = 101": (random_point_set(101, dim=2, seed=2), 0, 1),
        "k-d tree at n = 300": (random_point_set(300, dim=2, seed=2, grid=100_000), 0, 1),
        "k-d tree at n = 600": (random_point_set(600, dim=2, seed=2, grid=360_000), 0, 1),
        **{
            f"k-d tree at span 2^{e}": (random_point_set(600, dim=2, seed=e, grid=2**e, audit="none"), 0, 1)
            for e in (29, 40, 50)
        },
        "whole rows at n = 8": (random_point_set(8, dim=2, seed=2), 8, 1),
        "whole rows at span >= 2^53": (random_point_set(40, dim=2, seed=2, grid=2**54, audit="none"), 40, 1),
        "all points: span >= 2^53": (random_point_set(120, dim=2, seed=2, grid=2**54, audit="none"), 120, 3),
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


# 101-150 points of a 13 x 13 grid, many tied: above the whole-row cutoff, so the k-d tree ranks them;
# scaled by 2^31, the distances are Python ints while the span stays below 2^53, so the tree still runs
_tree_grid = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=101, max_size=150, unique=True)


@settings(max_examples=100, deadline=None)
@given(points=_tree_grid, scale=st.sampled_from([1, 2**31]))
def test_tree_ranking_ties_property(points, scale):
    """Tied k-d tree nominees, in the tree's order, rank and raise as plain sorting does at every width."""
    pts = PointSet.of([(x * scale, y * scale) for x, y in points])
    assert geometry._integer_coords(pts)[0].dtype == (np.int64 if scale == 1 else object)
    for k in sorted({*range(1, 9), pts.n - 1}):
        assert _profile_outcome(PointSet(points=pts.points, dim=2), k) == reference_prefix(pts, k), k
    assert assert_general_position(pts) == reference_ties(pts)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    wide=st.booleans(),
    n=st.integers(1, 40),
    width=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_sort_matches_a_stable_sort_property(dim, wide, n, width, seed):
    """`_exact_sort` against one stable sort, on int64 and Python-int coordinates of a small grid (so
    many distances tie): the plane puts tied columns in index order, so it matches that sort over
    index-sorted candidates; a line keeps them in candidate order, so it matches it over the same ones.
    cand None ranks every point in index order."""
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 8 if dim == 2 else 30, size=(n, dim)).astype(np.int64)
    if wide:
        arr = arr.astype(object) * 2**62
    rows = rng.permutation(n)[: rng.integers(1, n + 1)]
    width = min(width, n)
    cand = rng.permuted(np.broadcast_to(np.arange(n), (len(rows), n)), axis=1)[:, :width]
    for given_cand, ordered in ((cand, np.sort(cand, axis=1) if dim == 2 else cand),
                                (None, np.broadcast_to(np.arange(n), (len(rows), n)))):
        dist, idx = geometry._exact_sort(arr, rows, given_cand)
        want_dist, want_idx = reference_exact_sort(arr, rows, ordered)
        assert dist.dtype == want_dist.dtype and idx.dtype == want_idx.dtype
        assert dist.tolist() == want_dist.tolist()
        assert idx.tolist() == want_idx.tolist()


def _with_ends(values, span):
    """values plus 0 and span, once each: the line's span is exactly span."""
    return [(v,) for v in dict.fromkeys([0, span, *values])]


# Lines of Python ints (span >= 2^62): float64 screens the ranking at any
# span, on coordinates shifted right until the span fits 1000 bits, and
# integers confirm it.
_wide_line = st.integers(62, 1100).flatmap(
    lambda e: st.lists(st.integers(0, 2**e), max_size=12).map(lambda xs: _with_ends(xs, 2**e))
)
# float64 cannot tell these distances apart; offsets of opposite sign tie
_near_tie_line = st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True).map(
    lambda ds: _with_ends([2**200 + d for d in ds], 2**201)
)
# float64 misorders these distances by gaps of a few units in the last place
_ulp_line = st.lists(st.tuples(st.integers(-16, 16), st.integers(0, 2**145 - 1)), min_size=1, max_size=12).map(
    lambda ps: _with_ends([2**200 + m * 2**145 + r for m, r in ps], 2**201)
)
_tie_line = st.lists(st.integers(-6, 6), min_size=1, max_size=10, unique=True).map(
    lambda ms: _with_ends([2**250 + m * 2**248 for m in ms], 2**251)
)
_powers_line = st.lists(st.tuples(st.integers(2, 400), st.integers(-3, 3)), min_size=1, max_size=12).map(
    lambda es: _with_ends([2**e + d for e, d in es], 2**401)
)


@st.composite
def _clustered_line(draw):
    """Points within 2^40 of one to three centres on a line past float64's range, so many collapse
    under the shift, plus pairs c +- d that tie exactly from their centre c."""
    span = 2 ** draw(st.integers(1000, 1300))
    centres = draw(st.lists(st.integers(0, span), min_size=1, max_size=3, unique=True))
    near = st.tuples(st.sampled_from(centres), st.integers(-(2**40), 2**40))
    values = [c + d for c, d in draw(st.lists(near, max_size=10))]
    for c, d in draw(st.lists(st.tuples(st.sampled_from(centres), st.integers(1, 2**40)), max_size=2)):
        values += [c, c - d, c + d]
    return _with_ends([v for v in values if 0 <= v <= span], span)


# the shift floors each coordinate by up to one unit of 2^t, t = span bits - 1000: near 0,
# where float64 holds the shifted values exactly, that unit alone can misorder a row
_shift_unit_line = st.integers(1000, 1300).flatmap(
    lambda e: st.lists(st.tuples(st.integers(0, 12), st.integers(-3, 3)), min_size=1, max_size=12).map(
        lambda ps: _with_ends([m * 2 ** (e - 999) + d for m, d in ps if m or d >= 0], 2**e)
    )
)


@settings(max_examples=300, deadline=None)
@given(
    points=st.one_of(
        _wide_line, _near_tie_line, _ulp_line, _tie_line, _powers_line, _clustered_line(), _shift_unit_line
    )
)
def test_python_int_line_ranking_property(points):
    """Every width of a Python-int line ranks and ties as plain sorting does."""
    pts = PointSet.of(points)
    n = pts.n
    for k in sorted({1, 2, n // 2, n - 1}):
        expected = reference_prefix(pts, k)
        assert _profile_outcome(PointSet(points=pts.points, dim=1), k) == expected, k
    assert assert_general_position(pts) == reference_ties(pts)


def _exact_rows(pts):
    """Every point's full neighbor order by `_exact_sort` over all points."""
    arr = geometry._integer_coords(pts)[0]
    everyone = np.arange(pts.n)
    return geometry._exact_sort(arr, everyone, np.broadcast_to(everyone, (pts.n, pts.n)))[1][:, 1:]


def test_screened_line_reorders_what_float_misorders():
    """On upper_family_1d(299), float64 misorders rows; the screen still ranks as `_exact_sort` does."""
    family = upper_family_1d(299).points
    shuffled = random.Random(4).sample(family, len(family))
    for points in (shuffled, [(x + 2**400 + 12345,) for (x,) in shuffled]):
        pts = PointSet.of(points)
        arr, span = geometry._integer_coords(pts)
        assert arr.dtype == object and span < 2**1000
        exact = _exact_rows(pts)
        flt = arr[:, 0].astype(np.float64)
        by_float = np.argsort(np.abs(flt[None, :] - flt[:, None]), axis=1, kind="stable")[:, 1:]
        assert (by_float != exact).any(axis=1).sum() > 50
        for k in (1, 2, 10, pts.n - 1):
            fresh = PointSet(points=pts.points, dim=1)
            assert nearest_order(fresh, k).tolist() == exact[:, :k].tolist(), k


def test_screened_line_raises_the_first_exact_tie():
    """At 2^300 scale, points 3 and 5 tie from point 1 (2^248 away on either side)."""
    c = 2**300
    pts = pts1d(7, c, 2 * c + 11, c - 2**248, c + 5 * 2**251 + 1, c + 2**248, 3 * c)
    assert reference_prefix(pts, pts.n - 1) == (None, (1, 3, 5))
    with pytest.raises(GeneralPositionError) as info:
        nearest_order(pts, pts.n - 1)
    assert info.value.triple == (1, 3, 5)
    assert assert_general_position(pts) == reference_ties(pts) == [(1, 3, 5)]


def _lower_rows(n, k):
    """lower_family_1d(n)'s k nearest: every point left of one is nearer than any right of it."""
    return [([*range(v - 1, -1, -1)] + [*range(v + 1, n)])[:k] for v in range(n)]


def test_screened_lower_family_ranks_without_exact_sort(monkeypatch):
    """Full-width rankings of lower_family_1d(300) and (1100) screen every row without falling back to
    `_exact_sort`; the second spans 2^1100 - 2, past float64's range, and the screen shifts it first."""
    calls = _counted(monkeypatch, geometry, "_exact_sort")
    for n in (300, 1100):
        pts = lower_family_1d(n)
        assert nearest_order(pts, pts.n - 1).tolist() == _lower_rows(pts.n, pts.n - 1), n
    assert calls == []


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
    builds = _counted(monkeypatch, plane, "_from_order")
    pts = load_points(path)
    nng = max_1_multipacking(pts)
    assert is_r_multipacking(pts, NeighborTable(order=tuple(nearest_profile(pts, 1))), nng.indices, 1)[0]
    greedy = greedy_2_multipacking(pts)
    assert is_r_multipacking(pts, NeighborTable(order=tuple(nearest_profile(pts, 2))), greedy.indices, 2)[0]
    assert max_degree_audit(pts, build_conflict_graph(pts)).within_bound
    assert [keep for _, keep in rankings] == [2]
    assert [order.shape[1] for _, order in builds] == [1, 2]


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


def _round_trips(pts, folder):
    """Assert that pts comes back from a CSV file, and from the file `save_points` writes for each suffix."""
    for save, load, name in ((save_points_csv, load_points_csv, "points.csv"),
                             (save_points, load_points, "points.csv"), (save_points, load_points, "points.json")):
        save(pts, folder / name)
        assert load(folder / name).points == pts.points, name


def test_csv_round_trip_1d(tmp_path):
    _round_trips(pts1d(Fraction(-13, 4), 0, Fraction(7, 3)), tmp_path)


def test_csv_round_trip_2d(tmp_path):
    _round_trips(random_point_set(20, dim=2, seed=1), tmp_path)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        load_points_csv(path)


def test_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x,y\n1,2\n\n  \n3,4\n")
    assert load_points_csv(path).points == ((1, 2), (3, 4))


@pytest.mark.parametrize("name, text, error", [
    ("empty.csv", "", "empty file"),
    ("wide.csv", "x,y\n1,2\n3,4,5\n", ":3: expected 2 values, got 3"),
    ("narrow.csv", "x,y\n1,2\n3\n", ":3: expected 2 values, got 1"),
    ("header_only.csv", "x\n", ": no points"),
    ("long_field.csv", 'x,y\n1,"FIELD"\n3,4\n', ":2: field larger than field limit"),
    ("cut.json", '{"dim": 1, "points": [[1], [2]', "Expecting"),
    ("long.json", '{"dim": 1, "points": [[LONG], [2]]}', "integer string conversion"),
    ("bad_coordinate.json", '{"dim": 2, "points": [[1, 2], ["1.2.3", 0]]}', ": point 1: bad coordinate '1.2.3'"),
])
def test_malformed_point_files_name_the_file(tmp_path, name, text, error):
    """Each fault in a point file is a ParseError that names the file; a JSON integer past the
    int digit limit is one too."""
    path = tmp_path / name
    path.write_text(text.replace("LONG", "5" * (sys.get_int_max_str_digits() + 1))
                    .replace("FIELD", "a" * (csv.field_size_limit() + 1)))
    with pytest.raises(ParseError) as info:
        load_points(path)
    assert str(info.value).startswith(str(path)) and error in str(info.value)


def test_csv_faults_are_reported_in_file_order(tmp_path):
    """An undecodable byte anywhere wins; otherwise the first faulty row, a field past the
    reader's limit included, names the error, and faults of the whole set come last."""
    path = tmp_path / "faults.csv"
    long_field = '"' + "a" * (csv.field_size_limit() + 1) + '"'
    cases = [
        (b"x,y\n1,two\n3,4\n\xff\n", UnicodeDecodeError, "can't decode"),
        (f"x,y\n1,2,3\n{long_field},4\n".encode(), ParseError, f"{path}:2: expected 2 values, got 3"),
        (f"x,y\n1,2\n\n{long_field},4\n1,2,3\n".encode(), ParseError, f"{path}:4: field larger"),
        (b"x,y\n1,2\n3,x\n1,2\n", ParseError, f"{path}:3: bad coordinate 'x'"),
        (b"x,y\n1,2\n3,4\n1,2\n", ParseError, f"{path}: duplicate point (1, 2) at index 2"),
    ]
    for data, error, text in cases:
        path.write_bytes(data)
        with pytest.raises(error) as info:
            load_points_csv(path)
        assert text in str(info.value)


def test_csv_errors_name_the_physical_line(tmp_path):
    """A quoted field may span lines: a short row after one is named by its own line, as a field past
    the limit is, not by its record number."""
    path = tmp_path / "spanning.csv"
    path.write_text('x,y\n"1\n",2\n3\n')
    with pytest.raises(ParseError) as info:
        load_points_csv(path)
    assert str(info.value) == f"{path}:4: expected 2 values, got 1"


def test_csv_streams_rows_with_their_line_endings_and_quotes(tmp_path):
    """Rows stream from the decoded text with the file's own line endings and quoting."""
    path = tmp_path / "rows.csv"
    rows = "".join(f'{i},"{-i}/3"\r\n' if i % 2 else f"{i}, {i * i}\n" for i in range(3000))
    path.write_text("x , y\r\n" + rows, newline="")
    pts = load_points_csv(path)
    assert pts.dim == 2 and pts.n == 3000
    assert pts[1] == (1, Fraction(-1, 3)) and pts[2] == (2, 4) and pts[3] == (3, -1)


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
