"""Instance generators and frozen fixtures.

The two polygon fixtures are irregular convex polygons on an integer grid,
found once by the seeded jitter searches below and frozen as CSV data.  Both
have the cyclic neighbor property (each vertex's two nearest points are its
cycle neighbors), which caps their maximum multipacking size at one; the
loaders re-verify that on every construction.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from importlib import resources

import numpy as np

from .geometry import PointSet, assert_general_position, load_points_csv, nearest_profile
from .multipacking import multipacking_number

# jitter-search seeds that produced the frozen fixtures
PENTAGON_SEED = 0
SQUARE_SEED = 0

_DEFAULT_GRID = 10**6
_DRAW_RETRIES = 64


def _fixture_path(name: str):
    return resources.files("multipack").joinpath(f"data/v1/{name}")


def _convex_position(points: list[tuple[int, int]]) -> bool:
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
    pairs = nearest_profile(pts, 2)
    return all(set(pairs[i]) == {(i - 1) % n, (i + 1) % n} for i in range(n))


def _verified_fixture(name: str) -> PointSet:
    with resources.as_file(_fixture_path(name)) as path:
        pts = load_points_csv(path)
    if assert_general_position(pts):
        raise AssertionError(f"{name}: fixture lost general position")
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


def _search_jittered_polygon(
    base: list[tuple[int, int]], seed: int, jitter: int
) -> PointSet | None:
    """One jitter attempt; None unless every fixture property holds."""
    rng = random.Random(seed)
    n = len(base)
    points = [
        (x + rng.randint(-jitter, jitter), y + rng.randint(-jitter, jitter))
        for x, y in base
    ]
    if len(set(points)) != n:
        return None
    pts = PointSet.of(points)
    if assert_general_position(pts):
        return None
    if not _convex_position(points):
        return None
    if not _cyclic_neighbor_property(pts):
        return None
    if multipacking_number(pts) != 1:
        return None
    return pts


def search_pentagon_fixture(seed: int) -> PointSet | None:
    """Jitter a regular pentagon; used once to produce the frozen fixture."""
    base = []
    for k in range(5):
        ang = math.radians(90 + 72 * k)
        base.append((round(1000 * math.cos(ang)), round(1000 * math.sin(ang))))
    return _search_jittered_polygon(base, seed, 40)


def search_square_fixture(seed: int) -> PointSet | None:
    """Jitter a square; used once to produce the frozen fixture."""
    base = [(0, 0), (1000, 0), (1000, 1000), (0, 1000)]
    return _search_jittered_polygon(base, seed, 30)


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
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    sets = [random_point_set(6, dim=2, seed=_scan_seed(seed, t), grid=_DEFAULT_GRID) for t in range(trials)]
    sizes = [multipacking_number(pts) for pts in sets]
    counterexamples = [
        {"trial": t, "points": [list(p) for p in pts.points], "mp": mp}
        for t, (pts, mp) in enumerate(zip(sets, sizes))
        if mp < 2
    ]
    return {
        "checked": trials,
        "min_mp": min(sizes),
        "sizes": sizes,
        "counterexamples": counterexamples,
    }
