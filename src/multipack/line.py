"""Solvers and generators for point sets on a line.

The greedy sweep adds points left to right, keeping each one only when the
candidate set still passes the full neighborhood check.  On a line in general
position this is exact, and the two generator families pin the floor(n/3)
lower and floor(n/2) upper bound on the maximum multipacking size.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import NeighborTable, PointSet, nearest_profile
from .multipacking import SolveReport, is_r_multipacking


def greedy_max_r_multipacking_1d(pts: PointSet, r: int) -> SolveReport:
    """Exact maximum r-multipacking of a 1D point set via the greedy sweep.

    Points may arrive in any order; the sweep runs over coordinates ascending
    and the witness reports original indices.  O(n^2 * r) overall: n sweep
    steps, each an O(n*r) check.
    """
    if pts.dim != 1:
        raise ValueError(f"greedy sweep needs dimension 1, got {pts.dim}")
    n = pts.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}, got {r}")
    table = NeighborTable(order=tuple(nearest_profile(pts, r)))
    sweep = sorted(range(n), key=lambda i: pts[i][0])
    members: set[int] = set()
    checks = 0
    for idx in sweep:
        members.add(idx)
        ok, _ = is_r_multipacking(pts, table, members, r)
        checks += 1
        if not ok:
            members.discard(idx)
    return SolveReport(
        size=len(members),
        indices=tuple(sorted(members)),
        r=r,
        method="greedy1d",
        stats={"checks": checks},
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
