"""Instance generators and frozen fixtures.

The two polygon fixtures are irregular convex polygons on an integer grid
(a jittered regular pentagon and a jittered square), frozen as CSV data.
Both have the cyclic neighbor property (each vertex's two nearest
points are its cycle neighbors), which caps their maximum multipacking size
at one; the loaders re-verify general position, convex position, that
property and the size on every construction.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

import numpy as np

from .geometry import PointSet, _exact_sort, assert_general_position, load_points_csv, nearest_order
from .multipacking import _violation_radius_scan, multipacking_number

_DEFAULT_GRID = 10**6
_DRAW_RETRIES = 64
_SCAN_BLOCK = 256  # trials per stacked oracle scan: ~2 MiB of arrays at any trial count


def _fixture_path(name: str):
    return resources.files("multipack").joinpath(f"data/v1/{name}")


def _convex_position(points: tuple[tuple[int, int], ...]) -> bool:
    n = len(points)
    sign = 0
    for i in range(n):
        ax, ay = points[i]
        bx, by = points[(i + 1) % n]
        cx, cy = points[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross == 0:
            return False
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def _cyclic_neighbor_property(pts: PointSet) -> bool:
    n = pts.n
    pairs = nearest_order(pts, 2).tolist()
    return all(set(pairs[i]) == {(i - 1) % n, (i + 1) % n} for i in range(n))


def _verified_fixture(name: str) -> PointSet:
    with resources.as_file(_fixture_path(name)) as path:
        pts = load_points_csv(path)
    if assert_general_position(pts):
        raise AssertionError(f"{name}: fixture lost general position")
    if not _convex_position(pts.points):
        raise AssertionError(f"{name}: fixture lost convex position")
    if not _cyclic_neighbor_property(pts):
        raise AssertionError(f"{name}: fixture lost the cyclic neighbor property")
    if multipacking_number(pts) != 1:
        raise AssertionError(f"{name}: fixture packing size changed")
    return pts


@lru_cache(maxsize=None)
def pentagon_five() -> PointSet:
    """Five convex-position points whose maximum multipacking has size 1."""
    return _verified_fixture("pentagon5.csv")


@lru_cache(maxsize=None)
def square_four() -> PointSet:
    """Four near-square points whose maximum multipacking has size 1."""
    return _verified_fixture("square4.csv")


def random_point_set(
    n: int,
    dim: int = 2,
    seed: int = 0,
    grid: int | None = None,
    audit: str = "full",
) -> PointSet:
    """Uniform integer points on [0, grid)^dim, deterministic per seed.

    audit="full" resamples until the set passes the complete general-position
    check; audit="none" only rejects duplicate points, which fits bulk suites
    where downstream code validates the orderings it actually uses.  The grid
    must satisfy grid >= n*n so collisions stay rare.  It defaults to
    max(10**6, n*n) in the plane and max(10**6, n**3) on a line, where n*n
    leaves a tie (an equidistant triple) in almost every draw of a few
    hundred points.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if audit not in ("full", "none"):
        raise ValueError(f"audit must be 'full' or 'none', got {audit!r}")
    if grid is None:
        grid = max(_DEFAULT_GRID, n**3 if dim == 1 else n * n)
    if grid < n * n:
        raise ValueError(f"grid {grid} is below n*n = {n * n}")
    rng = np.random.default_rng(seed)
    for _ in range(_DRAW_RETRIES):
        draw = rng.integers(0, grid, size=(n, dim), dtype=np.int64)
        points = [tuple(int(c) for c in row) for row in draw.tolist()]
        if len(set(points)) != n:
            continue
        pts = PointSet(points=tuple(points), dim=dim)
        if audit == "full" and n > 1 and assert_general_position(pts):
            continue
        return pts
    raise RuntimeError(f"no valid draw in {_DRAW_RETRIES} attempts (n={n}, grid={grid})")


def _scan_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def scan_six_point_sets(trials: int, seed: int) -> dict:
    """Compute the maximum multipacking size of many random 6-point sets.

    Returns {"checked", "min_mp", "sizes", "counterexamples"}; a counterexample
    is any instance whose maximum multipacking has fewer than 2 members.

    Trial t is `random_point_set(6, dim=2, seed=_scan_seed(seed, t),
    grid=_DEFAULT_GRID)`, and its size is that set's `multipacking_number`.
    The trials are solved as one array problem, `_SCAN_BLOCK` at a time:
    every trial's first draw comes from the same generator call that
    `random_point_set` makes, one `_exact_sort` ranks each point's own set
    (auditing every width for duplicates and ties at once), and one stacked
    `_violation_radius_scan` gives every subset's first broken radius.  A
    draw the audit rejects goes back through `random_point_set` itself, so
    its retries are the library's.  2000 trials take 0.09-0.10 s, against
    0.76-0.82 s for one draw, audit, ranking and oracle scan per trial (2
    vCPUs, Python 3.11, numpy 2.4); most of what is left is the 2000
    generator seedings.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = 6
    sizes: list[int] = []
    counterexamples = []
    for first in range(0, trials, _SCAN_BLOCK):
        block = range(first, min(first + _SCAN_BLOCK, trials))
        draws = np.stack([
            np.random.default_rng(_scan_seed(seed, t)).integers(0, _DEFAULT_GRID, size=(n, 2), dtype=np.int64)
            for t in block
        ])
        rows = np.arange(len(block) * n)
        base = rows // n * n  # the row of each point's first point in its own draw
        # int64 is exact: squared distances stay below 2 * grid^2
        dist, idx = _exact_sort(draws.reshape(-1, 2), rows, base[:, None] + np.arange(n))
        # distance 0 to itself only, then n - 1 distinct distances: no duplicate, no tie at any width
        clean = (dist[:, 1:] > dist[:, :-1]).reshape(len(block), -1).all(axis=1)
        order = (idx[:, 1:] - base[:, None]).reshape(len(block), n, n - 1)
        _, ids, first_bad, pop = _violation_radius_scan(order[clean])
        valid = first_bad > n - 1  # an (n - 1)-multipacking
        mps = np.zeros(len(block), dtype=np.int64)
        np.maximum.at(mps, np.flatnonzero(clean)[ids[valid] >> n], pop[valid])
        for i in np.flatnonzero(~clean).tolist():
            pts = random_point_set(n, dim=2, seed=_scan_seed(seed, first + i), grid=_DEFAULT_GRID)
            draws[i] = pts.points  # the points this trial solved
            mps[i] = multipacking_number(pts)
        counterexamples.extend(
            {"trial": first + i, "points": draws[i].tolist(), "mp": int(mps[i])}
            for i in np.flatnonzero(mps < 2).tolist()
        )
        sizes.extend(mps.tolist())
    return {
        "checked": trials,
        "min_mp": min(sizes),
        "sizes": sizes,
        "counterexamples": counterexamples,
    }
