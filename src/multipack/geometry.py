"""Exact geometry on finite point sets with rational coordinates.

Coordinates are arbitrary-precision rationals (`int` or `fractions.Fraction`),
so every distance comparison is exact.  Points live in dimension 1 or 2.
Neighbor orderings are defined by squared distance; a tie between two
neighbors of the same point is a "general position" violation and is either
reported or raised, never silently broken.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, groupby
from numbers import Integral
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
    if type(value) is int:  # the common case, without the ABC checks below
        return value
    if isinstance(value, (Integral, np.bool_)) or (isinstance(value, Fraction) and value.denominator == 1):
        return int(value)  # numpy integers too: int64 arithmetic on them would wrap
    return value


_PLAIN_DECIMAL = re.compile(r"\s*([-+]?\d+)\.(\d+)\s*")


def parse_coordinate(text: str) -> Coord:
    """Parse a decimal ('-3.25') or rational ('7/3') coordinate exactly.

    Plain integers skip `Fraction`: every token `int` accepts, `Fraction`
    accepts too, with the same value.  A decimal exponent above
    `sys.get_int_max_str_digits()` in magnitude is refused before `Fraction`
    computes 10^exp in full, as `int` refuses a token of that many digits.
    A plain decimal ('-3.25': digits, a point, digits) skips `Fraction`'s
    string parser and gets the same value.
    """
    try:
        return int(text)
    except ValueError:
        pass
    plain = _PLAIN_DECIMAL.fullmatch(text)
    if plain:
        whole, frac = plain.groups()
        try:
            return _normalize(Fraction(int(whole + frac), 10 ** len(frac)))
        except ValueError:  # past the int digit limit together: `Fraction` reads the parts apart
            pass
    token = text.strip()
    try:
        if "e" in token or "E" in token:  # the one test on the common path: most decimals have no exponent
            exponent = re.search(r"[eE][-+]?([\d_]+)\Z", token)
            limit = sys.get_int_max_str_digits()  # 0: no limit
            if exponent and limit and int(exponent[1]) > limit:
                raise ValueError(f"exponent above {limit}")
        return _normalize(Fraction(token))
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
        d = _normalize(x) - _normalize(y)  # numpy scalars would wrap in their own width
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
                if type(c) is not int and not isinstance(c, Fraction):  # `of` turns other integers into int
                    raise ValueError(f"point {i} has coordinate {c!r}, not an int or Fraction")
            seen.add(p)  # one hash per point: a Fraction's hash costs a modular inverse
            if len(seen) == i:
                raise ValueError(f"duplicate point {p} at index {i}")

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


def _check_radius(r, n: int) -> None:
    """Raise ValueError unless r is an integer in 1..n-1, or any integer r >= 1 on a lone point (n = 1)."""
    if isinstance(r, bool) or not isinstance(r, Integral):
        raise ValueError(f"r must be an integer, got {r!r}")
    if n == 1 and r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n > 1 and not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1} for n={n}, got {r}")


@dataclass(frozen=True)
class NeighborTable:
    """Per-point nearest neighbors, ascending by exact squared distance.

    order[v] holds v's nearest neighbors up to the table's width (n-1 for a
    full table); order[v][s-1] is the s-th nearest neighbor of v, so for
    s <= width the closed s-neighborhood of v is v plus the first s entries.
    A table `build_neighbor_table` makes is a view of the set's ranked array,
    kept in `_array`, which is not a field: `n`, `width` and `_prefix` read
    the array, and `order` is built from it, as Python ints, only on first
    read, so `==`, `hash` and `repr` match a table built from the same
    tuples.  Its one reader, `_prefix(n, k)`, raises ValueError
    unless there are n rows, k is in 1..n-1 and the width is at least k;
    a table built from tuples must also have every row start with k
    integers in 0..n-1, which is checked on each read.
    """

    order: tuple[tuple[int, ...], ...]
    _array = None  # not a field: a library table's n x (n-1) ranked array

    @classmethod
    def _view(cls, array: np.ndarray) -> "NeighborTable":
        table = object.__new__(cls)  # no `order` until it is read
        object.__setattr__(table, "_array", array)  # frozen, but not a field
        return table

    def __getattr__(self, name: str):
        if name != "order" or self._array is None:
            raise AttributeError(name)
        order = tuple(_rows(self._array))
        object.__setattr__(self, "order", order)  # built once
        return order

    @property
    def n(self) -> int:
        return len(self.order) if self._array is None else self._array.shape[0]

    @property
    def width(self) -> int:
        """Neighbors listed per point: n-1 for a full table."""
        if self._array is not None:
            return self._array.shape[1]
        return len(self.order[0]) if self.order else 0

    def _prefix(self, n: int, k: int) -> np.ndarray:
        """The first k columns as an n x k array: every r = k neighborhood."""
        if self.n != n:
            raise ValueError("table does not match point set")
        _check_radius(k, n)
        if self.width < k:
            raise ValueError(f"table width {self.width} is below r={k}")
        if self._array is not None:  # the set's own ranking: nothing to validate
            return self._array[:, :k]
        # rows cut to k first: n*k entries exactly when no row is shorter than k
        try:
            flat = np.array(list(chain.from_iterable([row[:k] for row in self.order])))
        except ValueError:  # entries of unequal shapes
            raise ValueError("table does not match point set") from None
        if flat.dtype.kind != "i" or flat.size != n * k or flat.min() < 0 or flat.max() >= n:
            raise ValueError("table does not match point set")
        return flat.reshape(n, k)


def build_neighbor_table(pts: PointSet) -> NeighborTable:
    """Full table: every point's n-1 neighbors; raise on any tie.

    The table is a view of `nearest_order(pts, n - 1)`: no tuples are built
    unless its `order` is read.
    """
    if pts.n == 1:
        return NeighborTable(order=((),))
    return NeighborTable._view(nearest_order(pts, pts.n - 1))


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


def _exact_sort(arr: np.ndarray, rows: np.ndarray, cand: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row's candidates by exact distance; cand None means every point, in index order.

    A line ranks by |dx|, which orders and ties exactly as dx^2 does, with
    a stable sort: tied columns stay in candidate order.  The plane ranks
    by squared distance with numpy's default sort, then re-sorts each row
    whose sorted distances hold two equal neighbors by (distance, index):
    tied columns are in index order, as a stable sort over index-ordered
    candidates leaves them.  Distances are built one coordinate column at
    a time.
    """
    diffs = [(col if cand is None else col[cand]) - col[rows, None] for col in arr.T]
    plane = len(diffs) == 2
    if plane:
        dist, dy = diffs
        dist *= dist
        dy *= dy
        dist += dy
        order = np.argsort(dist, axis=1)
    else:
        dist = np.abs(diffs[0])
        order = np.argsort(dist, axis=1, kind="stable")  # a window's two ascending runs merge in linear time
    flat = (order + np.arange(0, order.size, order.shape[1])[:, None]).ravel()
    dist = dist.ravel()[flat].reshape(order.shape)
    idx = order if cand is None else cand.ravel()[flat].reshape(order.shape)
    if plane:
        tied = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
        if tied.size:
            # by (distance, index): each tied row's order among equal distances
            fix = np.lexsort((idx[tied], dist[tied]))
            dist[tied] = np.take_along_axis(dist[tied], fix, axis=1)
            idx[tied] = np.take_along_axis(idx[tied], fix, axis=1)
    return dist, idx


def _screened_sort(
    x: np.ndarray, flt: np.ndarray, rows: np.ndarray, cand: np.ndarray, split: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_exact_sort` on a line of Python ints, with float64 proposing the order.

    x holds the exact coordinates, shifted to >= 0, and flt the same shifted
    right by t = max(0, span bits - 1000) bits in float64 (points closer
    than 2^t may share a float; integers re-sort their run).  Row i's
    candidates are the point and its left neighbors going outward (columns
    0..split[i]), then its right ones.  Returns rank keys in place of
    `_exact_sort`'s distances and the neighbors in its order.  A key is the
    column, or on the farther of two tied columns the nearer one's:
    ascending, and equal exactly on ties (a line has at most two points at
    one distance from a third).
    """
    width = cand.shape[1]
    here = flt[rows, None]
    dist = np.abs(flt[cand] - here)
    order = np.argsort(dist, axis=1, kind="stable")
    flat = (order + np.arange(0, order.size, width)[:, None]).ravel()
    dist, idx = dist.ravel()[flat], cand.ravel()[flat]  # row after row, ascending
    left = (order <= split).ravel()
    # Float error (u = 2^-53), in units of 2^t: y = x >> t floors both ends
    # alike, so |dy| is within 1 of |dx| / 2^t.  Each y rounds to float64
    # within u*y and |dy| once more, so a float distance is within
    # (2 + u)u(y_c + y_v) + 1 <= 2.01u(2y_v + dist) + 1 of |dx| / 2^t, as
    # y_c + y_v <= 2y_v + |dy|.  err = 2^-50 (2y_v + dist) + 2 is that bound
    # with a factor of 2 to spare for its own rounding and the gap's.  Both
    # dist +- err rise with dist, so a link whose gap exceeds its two ends'
    # err, at most twice the farther one's, proves every entry before it
    # strictly nearer than every entry after it.
    twice_err = ((2 * here + dist.reshape(cand.shape)) * 2.0**-49 + 4).ravel()
    close = dist[1:] - dist[:-1] <= twice_err[1:]  # close[p]: the link from entry p to p + 1
    close[width - 1 :: width] = False  # a row's last entry links to nothing
    # One side's entries are in exact order already: the shift and rounding
    # are monotone, so their float distances never fall going outward, and
    # the stable sort keeps them in candidate order.  Only a close link
    # between the sides is compared on integers.
    links = np.flatnonzero(close & (left[1:] != left[:-1]))
    point = x[rows[links // width]]
    bad = links[np.abs(x[idx[links]] - point) >= np.abs(x[idx[links + 1]] - point)]
    keys = np.broadcast_to(np.arange(width), cand.shape)
    if bad.size:
        # an inversion or a tie: re-sort its maximal close run exactly, by
        # (distance, candidate column) as `_exact_sort` does
        linked = np.flatnonzero(close)
        last = np.append(np.flatnonzero(np.diff(linked) != 1), linked.size - 1)  # each run's last link
        run = np.unique(np.searchsorted(last, np.searchsorted(linked, bad)))
        lo, hi = linked[np.append(0, last[:-1] + 1)[run]], linked[last[run]] + 2
        size = hi - lo
        group = np.repeat(np.arange(run.size), size)
        members = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(group.size)  # the runs' entries
        near = np.abs(x[idx[members]] - x[rows[members // width]])
        resorted = np.lexsort((order.ravel()[members], near, group))
        idx[members] = idx[members[resorted]]
        near = near[resorted]
        tied = members[:-1][(group[1:] == group[:-1]) & (near[1:] == near[:-1])]
        if tied.size:
            keys = keys.copy()
            keys.ravel()[tied + 1] = tied % width
    return keys, idx.reshape(cand.shape)


# A planar set of at most this many points ranks every row over all points
# and keeps whole rows (width n - 1): below it the k-d tree costs more, and
# every wider request (the checker's full table, the oracle) then slices the
# kept rows instead of ranking again.  Per random integer set, in process on
# 2 shared vCPUs, k = 2 on the tree vs whole rows took 166 vs 107 us at
# n = 60, 226 vs 205 us at n = 90, 234 vs 222 us at n = 100, 255 vs 270 us
# at n = 110 and 274 vs 291 us at n = 120; k = 2 and then the full width
# took 435 vs 228 us at n = 100.
_WHOLE_ROWS_MAX_N = 100


def _ranked_rows(pts: PointSet, keep: int):
    """Yield (first, key, idx) blocks of exactly ranked neighbor rows.

    Row i of a block belongs to point first + i; its columns are in
    ascending distance, and key ranks them: ascending, equal exactly where
    distances tie.  It is the distances themselves, or on a screened line
    (below) integer rank keys.  Column 0 is the point itself (distance 0)
    and columns 1..width are its width nearest neighbors, with the same
    width >= keep in every block.  Tied columns are in index order in the
    plane and in candidate order on a line (`_exact_sort`): callers sort a
    tied group before they report it.  Inputs differ only in each row's
    candidates and width (and the guard on k-d tree rows):
    - A line always ranks the min(2*keep+1, n) places around the point in
      sorted order, which hold its keep nearest (any point farther along
      has keep points strictly between); width is keep.  The candidates are
      the point, its left neighbors going outward, then its right ones: two
      ascending runs of |dx|, which the stable sort merges in linear time,
      so a full-width row costs O(n) comparisons, not a sort.  A line of
      Python ints (span >= 2^62) is screened at any span: float64 proposes
      the order from coordinates shifted right to fit 1000 bits, and
      integers decide the links between the two runs that float cannot
      prove (`_screened_sort`), such as those among points the shift merges.
    - A planar set of at most `_WHOLE_ROWS_MAX_N` points ranks every row
      over all points (cand None) and yields whole rows: width is n - 1,
      whatever keep is, so one ranking serves every later width.
    - A larger planar set, when float64 holds every coordinate exactly
      (span < 2^53), ranks the point and the k-d tree's keep + 5 nominees,
      in the order the tree returns them, on each row where a float guard
      proves they contain every point that can rank within the first
      keep + 4; width is keep + 4, every column the guard can certify.  Other rows rank all
      points (cand None), and width is keep: a wider prefix would cost n^2.
    """
    n = pts.n
    arr, span = _ranking(pts).coords
    everyone = np.arange(n)
    screened = pts.dim == 1 and arr.dtype == object
    # rows per block: ~2^20 int64 entries, or ~2^14 on a screened line (~60
    # bytes of arrays each), or ~2^12 Python ints (each ~100 bytes)
    budget = 1 << 20 if arr.dtype == np.int64 else 1 << 14 if screened else 1 << 12
    width, window, nominees = keep, n, None  # window: candidates per row
    if pts.dim == 1:
        window = min(2 * keep + 1, n)
        by_x = np.argsort(arr[:, 0], kind="stable")
        place = np.empty(n, dtype=np.intp)
        place[by_x] = everyone
        step = np.arange(window)
        flt = (arr[:, 0] >> max(0, span.bit_length() - 1000)).astype(np.float64) if screened else None
    elif n <= _WHOLE_ROWS_MAX_N:
        width = n - 1
    elif span < 2**53 and keep + 6 < n:
        from scipy.spatial import cKDTree  # imported on first use: it takes ~0.4 s to load

        window = keep + 6  # self, the kept prefix, and slack for the guard
        flt = arr.astype(np.float64)
        nominees = cKDTree(flt).query(flt, k=window)[1]
        width = keep + 4  # the guard needs one nominee beyond the last kept column
    chunk = max(1, budget // window)
    for first in range(0, n, chunk):
        rows = everyone[first : first + chunk]
        if pts.dim == 1:
            at = place[rows, None]
            start = np.clip(at - keep, 0, n - window)
            split = at - start  # the point and its left neighbors: columns 0..split
            cand = by_x[np.where(step <= split, at - step, start + step)]
        else:
            cand = None if nominees is None else nominees[rows]
        if screened:
            key, idx = _screened_sort(arr[:, 0], flt, rows, cand, split)
        else:
            key, idx = _exact_sort(arr, rows, cand)
        if nominees is not None:
            # Float error (u = 2^-53): coordinates and their differences are exact
            # integers below 2^53, so each cKDTree squared distance is within 3u of
            # the exact D, and its cell bounds (one rounded side distance added per
            # level of a median-split tree, depth < 64) within 192u.  So every point
            # it left out has D >= (1 - 2^-44) * key[:, -1], and a farthest nominee
            # past (1 + 2^-40) * key[:, width] (in integers; all errors are relative
            # and D >= 1) proves no other point ranks within width or ties it.  Rows
            # without that proof are re-ranked over all points.
            bad = key[:, -1] - key[:, width] <= key[:, width] >> 40
            if bad.any():
                full = _exact_sort(arr, rows[bad], None)
                key[bad], idx[bad] = (block[:, :window] for block in full)
        yield first, key[:, : width + 1], idx[:, : width + 1]


def _rank(pts: PointSet, keep: int, ties: list | None = None) -> None:
    """Rank every row to width >= keep and keep it on `pts` in place of the prefix kept so far.

    What is kept is each row's neighbor indices and its first tied column
    (width - 1 when untied); callers never rank narrower than the kept
    prefix, so it never narrows.  A list `ties` also receives every triple
    (v, a, b) with a < b equidistant from v within that width, in (v,
    distance, a, b) order.
    """
    dtype = np.min_scalar_type(pts.n - 1)
    orders, first_ties = [], []
    for first, key, idx in _ranked_rows(pts, keep):
        prefix = key[:, 1:]
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
    and a wider one re-ranks and replaces it.  A planar set of at most 100
    points ranks whole rows once, so its first ranking serves every width.
    Above that, the k-d tree keeps every column its float guard certifies,
    k + 5 of them, so one planar ranking for k serves every request up to
    k + 4; a planar ranking over all points keeps k + 1 columns.  A line
    always ranks each point's min(2k+3, n) places around it in sorted
    order, in time linear in that window, and keeps k + 1 columns; a line
    of Python ints ranks in float64 shifted to 1000 bits, and integers
    decide the links float cannot prove, as between points closer than the
    shift.  A planar row is sorted by
    numpy's default sort, and only a row with two equal distances is
    re-sorted by (distance, index), so tied columns sit in index order.
    Ties are checked per request.
    """
    return _rows(nearest_order(pts, k))


def _rows(order: np.ndarray) -> list[tuple[int, ...]]:
    """An array's rows as tuples of Python ints."""
    rows: list[tuple[int, ...]] = []
    step = max(1, (1 << 16) // order.shape[1])  # rows per tolist: no n x width list of lists at once
    for first in range(0, order.shape[0], step):
        rows.extend(map(tuple, order[first : first + step].tolist()))
    return rows


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

def _parsed_point_set(path: str | Path, pts: list[tuple], dim: int) -> PointSet:
    """The point set of a parsed file, whose coordinates `parse_coordinate`
    has already normalized; ParseError when it holds none or is invalid."""
    if not pts:
        raise ParseError(f"{path}: no points")
    try:
        return PointSet(points=tuple(pts), dim=dim)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_points_csv(path: str | Path) -> PointSet:
    """Read points from CSV with header 'x' or 'x,y'; values decimal or 'p/q'.

    The whole file is decoded first, so an undecodable byte anywhere wins
    over every other fault.  Rows are then streamed from that text and
    parsed one at a time: the first faulty row, in file order, names the
    error by file and line (a field past `csv.field_size_limit()`, a wrong
    number of values or a bad coordinate), and faults of the whole set (no
    points, a duplicate point) come last.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""))
    dim = None
    pts = []
    try:
        for row in reader:
            if dim is None:
                header = [h.strip() for h in row]
                dim = {("x",): 1, ("x", "y"): 2}.get(tuple(header))
                if dim is None:
                    raise ParseError(f"{path}: header must be 'x' or 'x,y', got {header}")
            elif row and (len(row) > 1 or row[0].strip()):  # blank lines are skipped
                if len(row) != dim:
                    raise ParseError(f"{path}:{reader.line_num}: expected {dim} values, got {len(row)}")
                try:
                    pts.append(tuple(map(parse_coordinate, row)))
                except ParseError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:  # e.g. a field past the reader's size limit
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if dim is None:
        raise ParseError(f"{path}: empty file")
    return _parsed_point_set(path, pts, dim)


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
        except ValueError as exc:  # JSONDecodeError, or an integer past the int digit limit
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
            try:
                coords.append(value if isinstance(value, int) else parse_coordinate(value))
            except ParseError as exc:
                raise ParseError(f"{path}: point {i}: {exc}") from None
        pts.append(tuple(coords))
    return _parsed_point_set(path, pts, dim)


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


def save_points(pts: PointSet, path: str | Path) -> None:
    """Write in the format `load_points` reads back: .json as JSON, anything else as CSV."""
    if str(path).endswith(".json"):
        save_points_json(pts, path)
    else:
        save_points_csv(pts, path)
