"""Solvers and generators for point sets on a line.

The greedy sweep visits points left to right and keeps each one whose
addition keeps the set an r-multipacking.  On a line in general position
this is exact, and the two generator families pin the floor(n/3) lower and
floor(n/2) upper bound on the maximum multipacking size.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .geometry import PointSet, nearest_order
from .multipacking import SolveReport


def greedy_max_r_multipacking_1d(pts: PointSet, r: int) -> SolveReport:
    """Exact maximum r-multipacking of a 1D point set via the greedy sweep.

    Points may arrive in any order; the sweep runs over coordinates ascending
    and the witness reports original indices.  The kept set is always an
    r-multipacking, so adding u can only break the constraints (v, s) with u
    in N_s[v]; u is kept when every one of them has slack left.  After
    ranking each point's r nearest neighbors, deciding u reads one integer
    per row that ranks it (n*(r+1) reads over the sweep), and keeping u
    rewrites those rows, O(r) integers each.  Memory is O(n*r).  At
    r = n - 1 every row ranks every point, so each kept point rewrites all
    n rows of n - 1 integers; with at least floor(n/3) points kept, the keep
    updates total about n^3/3 integer writes or more.
    """
    if pts.dim != 1:
        raise ValueError(f"greedy sweep needs dimension 1, got {pts.dim}")
    n = pts.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}, got {r}")
    # ranked[v, k] is v's k-th nearest point; column 0 is v itself
    profile = nearest_order(pts, r).astype(np.int32)
    ranked = np.column_stack((np.arange(n, dtype=np.int32), profile))
    # where each point is ranked: slots[bounds[u]:bounds[u + 1]] are the flat
    # positions v*(r+1) + k with ranked[v, k] == u, kept in the narrowest
    # dtype that holds n*(r+1), which trims the sweep's peak memory
    slots = np.argsort(ranked, axis=None, kind="stable").astype(np.min_scalar_type(ranked.size))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ranked.ravel(), minlength=n))))
    del profile, ranked
    # low[v, s-1] = min over t >= s of floor((t+1)/2) - |N_t[v] & kept|; the
    # bounds rise with t, so for the empty set it is the bound at s itself
    low = np.tile(np.arange(2, r + 2, dtype=np.int32) >> 1, (n, 1))
    kept = []
    for u in sorted(range(n), key=lambda i: pts[i][0]):
        rows, rank = np.divmod(slots[bounds[u] : bounds[u + 1]], r + 1)
        cols = np.maximum(rank, 1) - 1  # u counts in N_s[v] for every s >= max(rank, 1)
        edge = low[rows, cols]
        if edge.min() < 1:
            continue
        # slack drops by one from column cols on: so does every suffix
        # minimum from cols on, and one before cols (never above the one at
        # cols) only when it equals it; both are the entries >= edge
        block = low[rows]
        block -= block >= edge[:, None]
        low[rows] = block
        kept.append(u)
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
