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
from itertools import combinations, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

Coord = Union[int, Fraction]
Point = tuple  # tuple[Coord, ...], dimension 1 or 2

# tree-accelerated path: float64 squared distances on a span this small are
# off by at most ~32, so exact re-ranking with a wide margin stays rigorous
_TREE_MIN_N = 512
_TREE_SPAN_LIMIT = 2**28
_TREE_MARGIN = 256


class GeneralPositionError(ValueError):
    """Two neighbors of some point are equidistant from it."""

    def __init__(self, triple: tuple[int, int, int], message: str | None = None):
        self.triple = triple
        v, a, b = triple
        super().__init__(
            message or f"points {a} and {b} are equidistant from point {v}"
        )


class PerturbationError(RuntimeError):
    """Retry budget exhausted while searching for a general-position jitter."""


class ParseError(ValueError):
    """Point file could not be parsed."""


def _normalize(value: Coord) -> Coord:
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

    `nearest_profile` keeps what it ranks on the set itself, in a private
    attribute that is not a field (so `==`, `hash` and `repr` ignore it):
    the exact integer coordinates and the widest neighbor prefix asked for
    so far.  It lives exactly as long as the set.
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
    """

    order: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def width(self) -> int:
        """Neighbors listed per point: n-1 for a full table."""
        return len(self.order[0]) if self.order else 0

    def rank(self, v: int, u: int) -> int:
        """1-based position of u in v's ordering; 0 when u == v."""
        if u == v:
            return 0
        return self.order[v].index(u) + 1


def build_neighbor_table(pts: PointSet) -> NeighborTable:
    """Full table: every point's n-1 neighbors; raise on any tie."""
    if pts.n == 1:
        return NeighborTable(order=((),))
    return NeighborTable(order=tuple(nearest_profile(pts, pts.n - 1)))


def assert_general_position(pts: PointSet) -> list[tuple[int, int, int]]:
    """Return all triples (v, a, b) with a and b equidistant from v.

    Empty list means every point's full neighbor ordering is unambiguous.
    Ranks all n-1 neighbors of every point, so it is meant for moderate n.
    """
    violations = []
    if pts.n < 3:
        return violations
    for first, dist, idx in _ranked_rows(pts, pts.n - 1):
        for row in np.flatnonzero((dist[:, 1:-1] == dist[:, 2:]).any(axis=1)).tolist():
            ranked = zip(dist[row, 1:].tolist(), idx[row, 1:].tolist())
            for _, group in groupby(ranked, key=itemgetter(0)):
                tied = [u for _, u in group]
                violations.extend((first + row, a, b) for a, b in combinations(tied, 2))
    return violations


def assert_global_distinct_distances(pts: PointSet) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Stricter optional audit: report pairs of point pairs at equal distance."""
    entries = sorted(
        (squared_distance(pts[a], pts[b]), (a, b))
        for a in range(pts.n)
        for b in range(a + 1, pts.n)
    )
    out = []
    for (d1, p1), (d2, p2) in zip(entries, entries[1:]):
        if d1 == d2:
            out.append((p1, p2))
    return out


def _integer_coords(pts: PointSet) -> tuple[np.ndarray, int]:
    """Coordinates scaled by the LCM of their denominators and shifted to 0.

    Both maps multiply every squared distance by one positive constant, so
    neighbor orderings and ties are unchanged.  Returns the array and its
    span; the array is int64 when every squared distance fits, else Python
    ints (dtype object), which run the same numpy code exactly.
    """
    scale = math.lcm(*{c.denominator for p in pts for c in p})
    coords = [[c.numerator * (scale // c.denominator) for c in p] for p in pts]
    lo = min(min(p) for p in coords)
    span = max(max(p) for p in coords) - lo
    dtype = np.int64 if 2 * span * span < 2**62 else object
    return np.array([[c - lo for c in p] for p in coords], dtype=dtype), span


class _Ranking:
    """What ranking a PointSet leaves on it: see `nearest_profile`."""

    __slots__ = ("coords", "order", "first_tie")

    def __init__(self, coords: tuple[np.ndarray, int]):
        self.coords = coords
        self.order: np.ndarray | None = None  # n x keep neighbor indices
        self.first_tie: np.ndarray | None = None  # per row; keep - 1 when untied


def _ranking(pts: PointSet) -> _Ranking:
    ranking = pts.__dict__.get("_ranking")
    if ranking is None:
        ranking = _Ranking(_integer_coords(pts))
        object.__setattr__(pts, "_ranking", ranking)  # frozen, but not a field
    return ranking


def _exact_sort(arr: np.ndarray, rows: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row's candidates (ascending index order) by exact squared distance."""
    diff = arr[cand] - arr[rows, None, :]
    diff *= diff
    dist = diff.sum(axis=2)
    del diff
    order = np.argsort(dist, axis=1, kind="stable")  # stable: ties stay in index order
    return np.take_along_axis(dist, order, axis=1), np.take_along_axis(cand, order, axis=1)


def _ranked_rows(pts: PointSet, keep: int):
    """Yield (first, dist, idx) blocks of exactly ranked neighbor rows.

    Row i of a block belongs to point first + i; its columns are candidates
    in ascending squared distance, ties broken by index.  Column 0 is the
    point itself (distance 0) and columns 1..keep are its keep nearest
    neighbors.  Candidates are all points, or:
    - on a line, the 2*keep+1 places around the point in sorted order, which
      hold its keep nearest (any point farther along has keep points
      strictly between);
    - for large planar inputs of moderate span, the k-d tree's nominees when
      a float guard proves they contain every point that can rank within
      the first keep.
    """
    n = pts.n
    arr, span = _ranking(pts).coords
    everyone = np.arange(n)
    # rows per block: ~2^20 int64 entries, or ~2^12 Python ints (each ~100 bytes)
    budget = 1 << 20 if arr.dtype == np.int64 else 1 << 12
    if pts.dim == 1 and 2 * keep + 1 < n:
        window = 2 * keep + 1
        by_x = np.argsort(arr[:, 0], kind="stable")
        place = np.empty(n, dtype=np.intp)
        place[by_x] = everyone
        chunk = max(1, budget // window)
        for first in range(0, n, chunk):
            rows = everyone[first : first + chunk]
            start = np.clip(place[rows] - keep, 0, n - window)
            cand = np.sort(by_x[start[:, None] + np.arange(window)], axis=1)
            yield first, *_exact_sort(arr, rows, cand)
        return
    query_k = keep + 6  # self, the kept prefix, and slack for the guard
    nominees = None
    if pts.dim == 2 and n >= _TREE_MIN_N and span <= _TREE_SPAN_LIMIT and query_k < n:
        from scipy.spatial import cKDTree  # imported here: only large inputs need it

        flt = arr.astype(np.float64)
        nominees = np.sort(cKDTree(flt).query(flt, k=query_k)[1], axis=1)
    chunk = max(1, budget // (n if nominees is None else query_k))
    for first in range(0, n, chunk):
        rows = everyone[first : first + chunk]
        if nominees is None:
            yield first, *_exact_sort(arr, rows, np.broadcast_to(everyone, (len(rows), n)))
            continue
        dist, idx = _exact_sort(arr, rows, nominees[rows])
        # float64 distances on this span are off by at most ~32: a farthest
        # nominee a full margin past rank keep proves no other point ranks
        # within it; rows without that proof are re-ranked over all points
        bad = dist[:, -1] <= dist[:, keep] + _TREE_MARGIN
        if bad.any():
            full = _exact_sort(arr, rows[bad], np.broadcast_to(everyone, (int(bad.sum()), n)))
            dist[bad], idx[bad] = (block[:, :query_k] for block in full)
        yield first, dist, idx


def nearest_profile(pts: PointSet, k: int) -> list[tuple[int, ...]]:
    """Indices of each point's k nearest neighbors (ascending distance).

    Ties anywhere in the first min(k+1, n-1) distances raise
    GeneralPositionError for the smallest such point and the two smallest
    indices of its first tie, so the returned identities never depend on
    arbitrary ordering.  Every input is ranked on exact integers.

    The ranking is kept on `pts` for its lifetime: its integer coordinates
    and the widest prefix ranked so far (neighbor indices and each row's
    first tied column; no distances).  A request no wider than that prefix
    slices it, and a wider one re-ranks and replaces it.  Ties are checked
    per request, within the requested width only.
    """
    if pts.n < 2:
        raise ValueError("need at least 2 points")
    if k < 1:
        raise ValueError("k must be >= 1")
    keep = min(k + 1, pts.n - 1)
    width = min(k, pts.n - 1)
    ranking = _ranking(pts)
    if ranking.order is None or ranking.order.shape[1] < keep:
        dtype = np.min_scalar_type(pts.n - 1)
        order = np.empty((pts.n, keep), dtype=dtype)
        first_tie = np.empty(pts.n, dtype=dtype)
        for first, dist, idx in _ranked_rows(pts, keep):
            prefix = dist[:, 1 : keep + 1]
            # a closing True column makes argmax read keep - 1 on untied rows
            tied = np.ones((len(prefix), keep), dtype=bool)
            tied[:, :-1] = prefix[:, :-1] == prefix[:, 1:]
            first_tie[first : first + len(prefix)] = tied.argmax(axis=1)
            order[first : first + len(prefix)] = idx[:, 1 : keep + 1]
        ranking.order, ranking.first_tie = order, first_tie
    tied_rows = np.flatnonzero(ranking.first_tie < keep - 1)
    if tied_rows.size:
        row = int(tied_rows[0])
        col = int(ranking.first_tie[row])
        raise GeneralPositionError((row, int(ranking.order[row, col]), int(ranking.order[row, col + 1])))
    profile: list[tuple[int, ...]] = []
    step = max(1, (1 << 16) // width)  # rows per tolist: no n x width list of lists at once
    for first in range(0, pts.n, step):
        profile.extend(map(tuple, ranking.order[first : first + step, :width].tolist()))
    return profile


def two_nearest(pts: PointSet) -> list[tuple[int, int]]:
    """First and second neighbor of every point; requires n >= 3."""
    if pts.n < 3:
        raise ValueError("need at least 3 points for two neighbors")
    return nearest_profile(pts, 2)


def perturb(pts: PointSet, epsilon: Coord, seed: int, max_retries: int = 32) -> PointSet:
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
    for _ in range(max_retries):
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
    raise PerturbationError(f"no general-position jitter found in {max_retries} tries")


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
    if dim not in (1, 2):
        raise ParseError(f"{path}: dim must be 1 or 2, got {dim!r}")
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
