"""Solvers and generators for point sets on a line.

The greedy sweep visits points left to right and keeps each one whose
addition keeps the set an r-multipacking.  On a line in general position
this is exact, and the two generator families pin the floor(n/3) lower and
floor(n/2) upper bound on the maximum multipacking size.  Every
neighbourhood on a line is a run of consecutive places, so every constraint
is a difference constraint on prefix counts: the sweep reads a static
table of run bounds, built in O(n*r), and makes one banded minimum update
of at most r + 1 entries per point.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .geometry import PointSet, _check_radius, nearest_order
from .multipacking import SolveReport


def greedy_max_r_multipacking_1d(pts: PointSet, r: int) -> SolveReport:
    """Exact maximum r-multipacking of a 1D point set via the greedy sweep.

    Points may arrive in any order; the sweep runs over coordinates ascending,
    keeps each point whose addition leaves the kept set an r-multipacking,
    and reports original indices.  Number the places 0..n-1 in coordinate
    order and let y_j count the kept points before place j.  N_s[v] is the
    run of places [lo, lo + s], so its constraint reads
    y_{lo+s+1} - y_lo <= floor((s+1)/2).  table[lo, d] is the bound of the
    shortest run that starts at lo and reaches lo + d: a run's bound only
    grows with its length, so the table is one scatter of the bounds at
    (lo, s) and a reverse running minimum along d.  At place u the sweep
    lowers cap[u : u + r + 1] to y_u + table[u], which leaves cap[u] the
    least y_lo + bound over the runs that hold u, and keeps u iff
    y_u + 1 <= cap[u].

    After ranking each point's r nearest neighbors, the table build is
    O(n*r) and the sweep is n banded minimum updates of at most r + 1
    entries each.  Memory is the n x (r+1) table in the narrowest unsigned
    dtype that holds n + 1, plus row blocks of about 2^20 entries.
    stats["checks"] counts the points swept, which is n.  A lone point is
    its own maximum multipacking at every r >= 1.
    """
    if pts.dim != 1:
        raise ValueError(f"greedy sweep needs dimension 1, got {pts.dim}")
    n = pts.n
    _check_radius(r, n)
    if n == 1:  # every ball around the lone point holds at most itself
        return SolveReport(size=1, indices=(0,), r=r, method="greedy1d", stats={"checks": 1})
    profile = nearest_order(pts, r)  # profile[v, k] is v's (k+1)-th nearest point
    by_x = sorted(range(n), key=lambda i: pts[i][0])
    dtype = np.min_scalar_type(n + 1)
    place = np.empty(n, dtype=dtype)
    place[by_x] = np.arange(n, dtype=dtype)
    span = np.arange(1, r + 1)
    table = np.full((n, r + 1), n + 1, dtype=dtype)  # n + 1: no such run, never binds
    chunk = max(1, (1 << 20) // (r + 1))
    for first in range(0, n, chunk):
        # lo[v, s-1]: the lowest place among v and its s nearest points
        lo = place[profile[first : first + chunk]]
        np.minimum.accumulate(lo, axis=1, out=lo)
        np.minimum(lo, place[first : first + chunk, None], out=lo)
        table[lo, span] = (span + 1) >> 1
    rev = table[:, ::-1]
    np.minimum.accumulate(rev, axis=1, out=rev)
    cap = np.full(n + r, n + 1, dtype=np.intp)
    kept = []
    for u in range(n):
        band = cap[u : u + r + 1]
        np.minimum(band, np.add(table[u], len(kept), dtype=np.intp), out=band)
        if len(kept) < cap[u]:
            kept.append(by_x[u])
    return SolveReport(
        size=len(kept),
        indices=tuple(sorted(kept)),
        r=r,
        method="greedy1d",
        stats={"checks": n},
    )


def lower_family_1d(n: int) -> PointSet:
    """Doubling family p_i = 2^i, i = 1..n.

    Every gap dwarfs the sum of the gaps before it, which caps packings at
    one member per three consecutive points; for n divisible by 3 the
    maximum multipacking size is exactly n/3.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return PointSet.of([(2**i,) for i in range(1, n + 1)])


def _upper_value(i: int) -> Fraction:
    if i % 2 == 1:
        return Fraction(4, 3) * (2 ** (i - 1) - 1) - Fraction(i - 1, 2)
    return Fraction(4, 3) * (2**i - 1) - Fraction(i, 2) - 2 ** (i - 1) + 1


def upper_family_1d(n: int, scaled: bool = True) -> PointSet:
    """Piecewise family whose odd-n prefixes reach the floor(n/2) ceiling.

    Values are tripled by default so coordinates are small integers; pass
    scaled=False for the raw values.  Consecutive even/odd gaps dominate both
    the span to the left endpoint and the next gap, which is what forces the
    greedy sweep to keep every other point.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = [_upper_value(i) for i in range(1, n + 1)]
    for a, b in zip(values, values[1:]):
        if not a < b:
            raise AssertionError("family values must increase strictly")
    for k in range(0, (n - 2) // 2 + 1):
        # 1-based positions 2k+1 and 2k+2
        hi = values[2 * k + 1]
        lo = values[2 * k]
        if not hi - lo > lo - values[0]:
            raise AssertionError(f"gap at {2 * k + 1} does not dominate the left span")
        if 2 * k + 2 < n and not hi - lo > values[2 * k + 2] - hi:
            raise AssertionError(f"gap at {2 * k + 1} does not dominate the next gap")
    if scaled:
        return PointSet.of([(3 * v,) for v in values])
    return PointSet.of([(v,) for v in values])


def verify_1d_bounds(pts: PointSet) -> dict:
    """Compute the maximum multipacking size via the sweep and check bounds.

    Returns {"lower": floor(n/3), "upper": floor(n/2), "mp": size, "holds": bool}.
    Needs n >= 2 (for a single point the radius range is empty).
    """
    if pts.dim != 1:
        raise ValueError(f"bounds check needs dimension 1, got {pts.dim}")
    n = pts.n
    if n < 2:
        raise ValueError("bounds check needs n >= 2")
    mp = greedy_max_r_multipacking_1d(pts, n - 1).size
    lower = n // 3
    upper = n // 2
    return {"lower": lower, "upper": upper, "mp": mp, "holds": lower <= mp <= upper}
