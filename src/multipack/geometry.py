"""Exact geometry on finite point sets with rational coordinates.

Coordinates are arbitrary-precision rationals (`int` or `fractions.Fraction`),
so every distance comparison is exact.  Points live in dimension 1 or 2.
Neighbor orderings are defined by squared distance; a tie between two
neighbors of the same point is a "general position" violation and is either
reported or raised, never silently broken.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, groupby
from numbers import Rational
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

Coord = Union[int, Fraction]
Point = tuple  # tuple[Coord, ...], dimension 1 or 2


class GeneralPositionError(ValueError):
    """Two neighbors of some point are equidistant from it."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        v, a, b = triple
        super().__init__(f"points {a} and {b} are equidistant from point {v}")


class PerturbationError(RuntimeError):
    """Retry budget exhausted while searching for a general-position jitter."""


class ParseError(ValueError):
    """Point file could not be parsed."""


def _normalize(value: Coord) -> Coord:
    if type(value) is int:  # the common case, without the ABC check below
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def parse_coordinate(text: str) -> Coord:
    """Parse a decimal ('-3.25') or rational ('7/3') coordinate exactly.

    Plain integers skip `Fraction`: every token `int` accepts, `Fraction`
    accepts too, with the same value.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return _normalize(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coordinate {text!r}: {exc}") from None


def format_coordinate(value: Coord) -> str:
    """Inverse of parse_coordinate; integers stay plain."""
    value = _normalize(value)
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def squared_distance(a: Sequence[Coord], b: Sequence[Coord]) -> Coord:
    """Exact squared Euclidean distance between two points of equal dimension."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    total = 0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return total


@dataclass(frozen=True)
class PointSet:
    """Immutable set of distinct points, all of the same dimension (1 or 2).

    `nearest_profile` and `assert_general_position` keep what they rank on
    the set itself, in a private attribute that is not a field (so `==`,
    `hash` and `repr` ignore it): the exact integer coordinates, the widest
    neighbor prefix ranked so far, and the graphs `plane` builds from that
    prefix, each built once.  It lives exactly as long as the set.
    """

    points: tuple[Point, ...]
    dim: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")
        if not self.points:
            raise ValueError("point set must be nonempty")
        seen = set()
        for i, p in enumerate(self.points):
            if len(p) != self.dim:
                raise ValueError(f"point {i} has dimension {len(p)}, expected {self.dim}")
            for c in p:
                if type(c) is not int and not isinstance(c, Rational):  # int first: the ABC check is slower
                    raise ValueError(f"point {i} has coordinate {c!r}, not an int or Fraction")
            if p in seen:
                raise ValueError(f"duplicate point {p} at index {i}")
            seen.add(p)

    @classmethod
    def of(cls, values: Iterable[Sequence[Coord]]) -> "PointSet":
        pts = tuple(tuple(_normalize(c) for c in p) for p in values)
        if not pts:
            raise ValueError("point set must be nonempty")
        return cls(points=pts, dim=len(pts[0]))

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def all_integer(self) -> bool:
        return all(isinstance(c, int) for p in self.points for c in p)


@dataclass(frozen=True)
class NeighborTable:
    """Per-point nearest neighbors, ascending by exact squared distance.

    order[v] holds v's nearest neighbors up to the table's width (n-1 for a
    full table); order[v][s-1] is the s-th nearest neighbor of v, so for
    s <= width the closed s-neighborhood of v is v plus the first s entries.
    Its one reader, `_prefix(n, k)`, raises ValueError unless there are n
    rows, k is in 1..n-1 and every row starts with k integers in 0..n-1.
    """

    order: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def width(self) -> int:
        """Neighbors listed per point: n-1 for a full table."""
        return len(self.order[0]) if self.order else 0

    def _prefix(self, n: int, k: int) -> np.ndarray:
        """The first k columns as an n x k array: every r = k neighborhood."""
        if self.n != n:
            raise ValueError("table does not match point set")
        if not 1 <= k <= n - 1:
            raise ValueError(f"r must be in 1..{n - 1}, got {k}")
        if self.width < k:
            raise ValueError(f"table width {self.width} is below r={k}")
        # rows cut to k first: n*k entries exactly when no row is shorter than k
        flat = np.array(list(chain.from_iterable([row[:k] for row in self.order])))
        if flat.dtype.kind != "i" or flat.size != n * k or flat.min() < 0 or flat.max() >= n:
            raise ValueError("table does not match point set")
        return flat.reshape(n, k)


def build_neighbor_table(pts: PointSet) -> NeighborTable:
    """Full table: every point's n-1 neighbors; raise on any tie."""
    if pts.n == 1:
        return NeighborTable(order=((),))
    return NeighborTable(order=tuple(nearest_profile(pts, pts.n - 1)))


def assert_general_position(pts: PointSet) -> list[tuple[int, int, int]]:
    """Return all triples (v, a, b) with a and b equidistant from v.

    Empty list means every point's full neighbor ordering is unambiguous.
    Ranks all n-1 neighbors of every point, so it is meant for moderate n;
    the ranking stays on `pts` (see `nearest_profile`), so a later request
    for any width reads it instead of ranking again.
    """
    violations: list[tuple[int, int, int]] = []
    if pts.n >= 3:
        _rank(pts, pts.n - 1, violations)
    return violations


def _integer_coords(pts: PointSet) -> tuple[np.ndarray, int]:
    """Coordinates scaled by the LCM of their denominators and shifted to 0.

    Both maps multiply every squared distance by one positive constant, so
    neighbor orderings and ties are unchanged.  Returns the array and its
    span; the array is int64 when every distance `_exact_sort` ranks by
    fits (|dx| on a line, dx^2 + dy^2 in the plane), else Python ints (dtype
    object), which run the same numpy code exactly.
    """
    scale = math.lcm(*{c.denominator for p in pts for c in p})
    scaled = pts.points if scale == 1 else [[c.numerator * (scale // c.denominator) for c in p] for p in pts]
    coords = np.array(scaled, dtype=object)  # Python ints: min, max and the shift stay exact
    lo = coords.min()
    span = coords.max() - lo
    dtype = np.int64 if (span if pts.dim == 1 else 2 * span * span) < 2**62 else object
    return (coords - lo).astype(dtype), span


class _Ranking:
    """What ranking a PointSet leaves on it: see `nearest_profile`."""

    __slots__ = ("coords", "order", "first_tie", "graphs")

    def __init__(self, coords: tuple[np.ndarray, int]):
        self.coords = coords
        self.order: np.ndarray | None = None  # n x width neighbor indices
        self.first_tie: np.ndarray | None = None  # per row; width - 1 when untied
        self.graphs: dict = {}  # k -> the graph `plane` built from the k-nearest prefix


def _ranking(pts: PointSet) -> _Ranking:
    ranking = pts.__dict__.get("_ranking")
    if ranking is None:
        ranking = _Ranking(_integer_coords(pts))
        object.__setattr__(pts, "_ranking", ranking)  # frozen, but not a field
    return ranking


def _exact_sort(arr: np.ndarray, rows: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row's candidates by exact distance, ties in candidate order.

    A line ranks by |dx|, which orders and ties exactly as dx^2 does; the
    plane ranks by squared distance.
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


def _ranked_rows(pts: PointSet, keep: int):
    """Yield (first, dist, idx) blocks of exactly ranked neighbor rows.

    Row i of a block belongs to point first + i; its columns are in
    ascending distance.  Column 0 is the point itself (distance 0) and
    columns 1..width are its width nearest neighbors, with the same width
    >= keep in every block.  Tied columns are in candidate order: callers
    sort a tied group before they report it.
    - A line always ranks the min(2*keep+1, n) places around the point in
      sorted order, which hold its keep nearest (any point farther along
      has keep points strictly between); width is keep.  The candidates are
      the point, its left neighbors going outward, then its right ones: two
      ascending runs of |dx|, which the stable sort merges in linear time,
      so a full-width row costs O(n) comparisons, not a sort.
    - The plane, when float64 holds every coordinate exactly (span < 2^53),
      ranks the point and the k-d tree's keep + 5 nominees, on each row
      where a float guard proves they contain every point that can rank
      within the first keep + 4; width is keep + 4, every column the guard
      can certify.  Other rows rank all points in index order, and width
      is keep: a wider prefix would cost n^2.
    """
    n = pts.n
    arr, span = _ranking(pts).coords
    everyone = np.arange(n)
    # rows per block: ~2^20 int64 entries, or ~2^12 Python ints (each ~100 bytes)
    budget = 1 << 20 if arr.dtype == np.int64 else 1 << 12
    if pts.dim == 1:
        window = min(2 * keep + 1, n)
        by_x = np.argsort(arr[:, 0], kind="stable")
        place = np.empty(n, dtype=np.intp)
        place[by_x] = everyone
        step = np.arange(window)
        chunk = max(1, budget // window)
        for first in range(0, n, chunk):
            rows = everyone[first : first + chunk]
            at = place[rows, None]
            start = np.clip(at - keep, 0, n - window)
            cand = by_x[np.where(step <= at - start, at - step, start + step)]
            dist, idx = _exact_sort(arr, rows, cand)
            yield first, dist[:, : keep + 1], idx[:, : keep + 1]
        return
    query_k = keep + 6  # self, the kept prefix, and slack for the guard
    width = keep
    nominees = None
    if span < 2**53 and query_k < n:
        from scipy.spatial import cKDTree  # imported on first use: it takes ~0.4 s to load

        flt = arr.astype(np.float64)
        nominees = np.sort(cKDTree(flt).query(flt, k=query_k)[1], axis=1)
        width = query_k - 2  # the guard needs one nominee beyond the last kept column
    chunk = max(1, budget // (n if nominees is None else query_k))
    for first in range(0, n, chunk):
        rows = everyone[first : first + chunk]
        if nominees is None:
            dist, idx = _exact_sort(arr, rows, np.broadcast_to(everyone, (len(rows), n)))
            yield first, dist[:, : width + 1], idx[:, : width + 1]
            continue
        dist, idx = _exact_sort(arr, rows, nominees[rows])
        # Float error (u = 2^-53): coordinates and their differences are exact
        # integers below 2^53, so each cKDTree squared distance is within 3u of
        # the exact D, and its cell bounds (one rounded side distance added per
        # level of a median-split tree, depth < 64) within 192u.  So every point
        # it left out has D >= (1 - 2^-44) * dist[:, -1], and a farthest nominee
        # past (1 + 2^-40) * dist[:, width] (in integers; all errors are relative
        # and D >= 1) proves no other point ranks within width or ties it.  Rows
        # without that proof are re-ranked over all points.
        bad = dist[:, -1] - dist[:, width] <= dist[:, width] >> 40
        if bad.any():
            full = _exact_sort(arr, rows[bad], np.broadcast_to(everyone, (int(bad.sum()), n)))
            dist[bad], idx[bad] = (block[:, :query_k] for block in full)
        yield first, dist[:, : width + 1], idx[:, : width + 1]


def _rank(pts: PointSet, keep: int, ties: list | None = None) -> None:
    """Rank every row to width >= keep and keep it on `pts` unless a wider prefix is kept.

    What is kept is each row's neighbor indices and its first tied column
    (width - 1 when untied).  A list `ties` also receives every triple
    (v, a, b) with a < b equidistant from v within that width, in (v,
    distance, a, b) order.
    """
    dtype = np.min_scalar_type(pts.n - 1)
    orders, first_ties = [], []
    for first, dist, idx in _ranked_rows(pts, keep):
        prefix = dist[:, 1:]
        # a closing True column makes argmax read width - 1 on untied rows
        tied = np.ones(prefix.shape, dtype=bool)
        tied[:, :-1] = prefix[:, :-1] == prefix[:, 1:]
        first_tie = tied.argmax(axis=1)
        first_ties.append(first_tie.astype(dtype))
        orders.append(idx[:, 1:].astype(dtype))
        if ties is None:
            continue
        for row in np.flatnonzero(first_tie < prefix.shape[1] - 1).tolist():
            ranked = zip(prefix[row].tolist(), idx[row, 1:].tolist())
            for _, group in groupby(ranked, key=itemgetter(0)):
                tied_points = sorted(u for _, u in group)
                ties.extend((first + row, a, b) for a, b in combinations(tied_points, 2))
    ranking = _ranking(pts)
    if ranking.order is None or ranking.order.shape[1] < orders[0].shape[1]:
        ranking.order, ranking.first_tie = np.concatenate(orders), np.concatenate(first_ties)


def nearest_order(pts: PointSet, k: int) -> np.ndarray:
    """`nearest_profile` as a read-only n x min(k, n-1) array of neighbor indices."""
    if pts.n < 2:
        raise ValueError("need at least 2 points")
    if k < 1:
        raise ValueError("k must be >= 1")
    keep = min(k + 1, pts.n - 1)
    ranking = _ranking(pts)
    if ranking.order is None or ranking.order.shape[1] < keep:
        _rank(pts, keep)
    tied_rows = np.flatnonzero(ranking.first_tie < keep - 1)
    if tied_rows.size:
        row = int(tied_rows[0])
        col = int(ranking.first_tie[row])
        a, b = sorted(ranking.order[row, col : col + 2].tolist())
        raise GeneralPositionError((row, a, b))
    order = ranking.order[:, : min(k, pts.n - 1)]
    order.flags.writeable = False  # a view of the prefix every later request reads
    return order


def nearest_profile(pts: PointSet, k: int) -> list[tuple[int, ...]]:
    """Indices of each point's k nearest neighbors (ascending distance).

    Ties anywhere in the first min(k+1, n-1) distances raise
    GeneralPositionError for the smallest such point and the two smallest
    indices of its first tie, so the returned identities never depend on
    arbitrary ordering.  Every input is ranked on exact integers.

    The ranking is kept on `pts` for its lifetime: its integer coordinates
    and the widest prefix ranked so far (neighbor indices and each row's
    first tied column; no distances), which `assert_general_position`
    leaves at full width.  A request no wider than that prefix slices it,
    and a wider one re-ranks and replaces it.  The k-d tree keeps
    every column its float guard certifies, k + 5 of them, so one planar
    ranking for k serves every request up to k + 4; a planar ranking over
    all points keeps k + 1 columns.  A line always ranks each point's
    min(2k+3, n) places around it in sorted order, in time linear in that
    window, and keeps k + 1 columns.  Ties are checked per request, within
    the requested width only.
    """
    order = nearest_order(pts, k)
    profile: list[tuple[int, ...]] = []
    step = max(1, (1 << 16) // order.shape[1])  # rows per tolist: no n x width list of lists at once
    for first in range(0, pts.n, step):
        profile.extend(map(tuple, order[first : first + step].tolist()))
    return profile


_PERTURB_RETRIES = 32


def perturb(pts: PointSet, epsilon: Coord, seed: int) -> PointSet:
    """Jitter every coordinate by a seed-derived rational in (-epsilon, epsilon).

    Retries with fresh offsets from the same stream until the result is in
    general position (and duplicate-free); raises PerturbationError when the
    retry budget runs out.  Small epsilons leave neighbor orderings intact.
    """
    if isinstance(epsilon, float):
        raise TypeError("epsilon must be an exact rational (int or Fraction)")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    rng = random.Random(seed)
    denom = 1 << 16
    for _ in range(_PERTURB_RETRIES):
        moved = [
            tuple(c + eps * Fraction(rng.randrange(-denom + 1, denom), denom) for c in p)
            for p in pts.points
        ]
        try:
            candidate = PointSet.of(moved)
        except ValueError:
            continue  # jitter collided two points; draw again
        if not assert_general_position(candidate):
            return candidate
    raise PerturbationError(f"no general-position jitter found in {_PERTURB_RETRIES} tries")


# ---------------------------------------------------------------------------
# point file formats
# ---------------------------------------------------------------------------

def load_points_csv(path: str | Path) -> PointSet:
    """Read points from CSV with header 'x' or 'x,y'; values decimal or 'p/q'."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header == ["x"]:
        dim = 1
    elif header == ["x", "y"]:
        dim = 2
    else:
        raise ParseError(f"{path}: header must be 'x' or 'x,y', got {header}")
    pts = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != dim:
            raise ParseError(f"{path}:{lineno}: expected {dim} values, got {len(row)}")
        pts.append(tuple(parse_coordinate(tok) for tok in row))
    if not pts:
        raise ParseError(f"{path}: no points")
    try:
        return PointSet.of(pts)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_points_csv(pts: PointSet, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x"] if pts.dim == 1 else ["x", "y"])
        for p in pts.points:
            writer.writerow([format_coordinate(c) for c in p])


def load_points_json(path: str | Path) -> PointSet:
    """Read {"dim": d, "points": [[...], ...]}; decimals are parsed exactly."""
    with open(path) as fh:
        try:
            data = json.load(fh, parse_float=str)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise ParseError(f"{path}: expected an object with 'dim' and 'points'")
    dim = data["dim"]
    if isinstance(dim, bool) or dim not in (1, 2):
        raise ParseError(f"{path}: dim must be 1 or 2, got {dim!r}")
    if not isinstance(data["points"], list):
        raise ParseError(f"{path}: 'points' must be a list, got {data['points']!r}")
    pts = []
    for i, entry in enumerate(data["points"]):
        if not isinstance(entry, list) or len(entry) != dim:
            raise ParseError(f"{path}: point {i} does not match dim {dim}")
        coords = []
        for value in entry:
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ParseError(f"{path}: point {i} has non-numeric coordinate {value!r}")
            coords.append(value if isinstance(value, int) else parse_coordinate(value))
        pts.append(tuple(coords))
    if not pts:
        raise ParseError(f"{path}: no points")
    try:
        return PointSet.of(pts)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_points_json(pts: PointSet, path: str | Path) -> None:
    entries = [
        [c if isinstance(c, int) else format_coordinate(c) for c in p]
        for p in pts.points
    ]
    with open(path, "w") as fh:
        json.dump({"dim": pts.dim, "points": entries}, fh, separators=(",", ":"))
        fh.write("\n")


def load_points(path: str | Path) -> PointSet:
    """Dispatch on file suffix: .json for JSON, anything else as CSV."""
    if str(path).endswith(".json"):
        return load_points_json(path)
    return load_points_csv(path)
