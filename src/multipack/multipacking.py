"""Multipacking membership checking and exact brute-force solving.

A set of indices M is an r-multipacking of a point set P when, for every
point v and every s in 1..r, the closed s-neighborhood of v (v plus its s
nearest points) contains at most floor((s+1)/2) members of M.  The checker
counts members along each point's table row in one O(n*r) array pass; the
oracle is the ground truth the solvers are tested against and the only
exact solver for r >= 3.  It rules out every subset breaking an s = 1 bound
with one vectorized pass over all 2^n, then tests each larger s only on the
subsets still in play, so its cost is a few passes over 2^n entries.  That
scan, `_violation_radius_scan`, is the one subset-scan kernel: it takes a
stack of equal-size point sets' neighbor orders, so the oracle passes a
stack of one and `instances.scan_six_point_sets` passes a block of trials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import NeighborTable, PointSet, _check_radius, nearest_order


# largest n the 2^n subset scan accepts: at n = 24 it holds ~160 MiB of
# arrays and takes ~0.6 s, and each further point doubles both
ORACLE_MAX_N = 24


class BudgetExceededError(RuntimeError):
    """Instance is larger than the configured search budget allows."""


@dataclass(frozen=True)
class Violation:
    """First neighborhood constraint a candidate set breaks."""

    v: int
    s: int
    count: int
    bound: int

    def to_json_dict(self) -> dict:
        return {"v": self.v, "s": self.s, "count": self.count, "bound": self.bound}


@dataclass(frozen=True)
class SolveReport:
    """Solver output: witness indices, cardinality, method, counters."""

    size: int
    indices: tuple[int, ...]
    r: int
    method: str
    stats: dict

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "indices": list(self.indices),
            "r": self.r,
            "method": self.method,
            "stats": dict(self.stats),
        }


def is_r_multipacking(
    pts: PointSet,
    table: NeighborTable,
    members: Iterable[int],
    r: int,
) -> tuple[bool, Violation | None]:
    """Check the neighborhood bounds for every point and radius s <= r.

    Returns (True, None) on success, else (False, first violation) where the
    scan order is ascending point index, then ascending s.  The table needs
    width >= r; one from `build_neighbor_table` is read as a slice of the
    set's ranking, with no tuples built.  A lone point has no neighbors, so any integer r >= 1 holds
    for it, as `bruteforce_max_r_multipacking` allows.
    """
    if pts.n == table.n == 1:
        _check_radius(r, 1)
        return _check_order(np.empty((1, 0), dtype=np.intp), members)
    return _check_order(table._prefix(pts.n, r), members)


def _check_order(order: np.ndarray, members: Iterable[int]) -> tuple[bool, Violation | None]:
    """`is_r_multipacking` on an n x r array of each point's r nearest, in order (r may be 0)."""
    n, r = order.shape
    marked = bytearray(n)
    for i in members:
        if not 0 <= i < n:
            raise ValueError(f"member index {i} out of range for n={n}")
        marked[i] = 1
    flags = np.frombuffer(marked, dtype=np.uint8)
    counts = np.cumsum(flags[order], axis=1, dtype=np.int32)
    counts += flags[:, None]  # |N_s[v] & M|, in place: no second n x r array
    bounds = np.arange(2, r + 2) >> 1  # floor((s+1)/2), column s-1 as in counts
    over = counts > bounds
    if not over.any():
        return True, None
    v, col = divmod(int(over.argmax()), r)  # row-major: ascending v, then ascending s
    return False, Violation(v=v, s=col + 1, count=int(counts[v, col]), bound=int(bounds[col]))


# ---------------------------------------------------------------------------
# brute-force oracle over all subsets
# ---------------------------------------------------------------------------

def _violation_radius_scan(order: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The subsets that pass s = 1, each with the smallest s whose bound it breaks.

    `order` is a (sets, n, width) stack of neighbor orders, one
    `nearest_order` prefix per point set, all of one size n.  Subset `mask`
    of set `k` has the flat id `k << n | mask`.  Returns (n, ids,
    first_bad_s, popcount): ids ascending, so grouped by set, first_bad_s n
    where no s up to the width is broken.  Every other subset breaks s = 1,
    so no r >= 1 admits it.  The scan visits s in ascending order over the
    ids still live: one that breaks the bound of some v gets that s and
    leaves, and so does one with at most floor((s+1)/2) members, which no
    later bound can break.  Only s = 1 reads every id (6-9% of them pass it
    at n = 16); the loop ends when none is live.  Each step holds
    O(sets * 2^n) entries, never one row per point.

    One set reads each distinct s-neighborhood as a scalar mask, once per
    s, as the single-set oracle always has.  A stack reads every live id's
    own n neighborhoods in one gather per s, so a block of six-point sets
    costs a handful of array passes, not one Python-level scan per set.
    Ids are uint32: callers keep sets << n within 2^32.
    """
    sets, n, width = order.shape
    low = (1 << n) - 1  # strips the set index from a flat id
    # prefix[k, v, s] = mask of v plus its s nearest points in set k
    prefix = np.empty((sets, n, width + 1), dtype=np.uint32)
    prefix[:, :, 0] = np.uint32(1) << np.arange(n)
    prefix[:, :, 1:] = np.uint32(1) << order
    np.bitwise_or.accumulate(prefix, axis=2, out=prefix)
    first_bad = np.full(sets << n, n, dtype=np.int8)  # indexed by flat id
    live = np.arange(sets << n, dtype=np.uint32)
    for s in range(1, width + 1):
        bound = (s + 1) >> 1
        if s & 1:  # the bound grows at odd s only
            live = live[np.bitwise_count(live & low) > bound]
        if not live.size:
            break
        if sets == 1:
            for hood in set(prefix[0, :, s].tolist()):  # points with one s-neighborhood share a bound
                bad = np.bitwise_count(live & np.uint32(hood)) > bound
                first_bad[live[bad]] = s
                live = live[~bad]
            continue
        bad = (np.bitwise_count(live[:, None] & prefix[live >> n, :, s]) > bound).any(axis=1)
        first_bad[live[bad]] = s
        live = live[~bad]
    ids = np.flatnonzero(first_bad > 1).astype(np.uint32)
    return n, ids, first_bad[ids], np.bitwise_count(ids & low)


def _report_for_radius(scan: tuple[int, np.ndarray, np.ndarray, np.ndarray], r: int) -> SolveReport:
    n, masks, first_bad, pop = scan
    valid = first_bad > r  # the empty set is always valid
    best = int(pop[valid].max())
    candidates = masks[valid & (pop == best)]
    # lexicographically smallest index tuple: from index 0 up, keep the
    # candidates holding index i whenever any of them does
    for i in range(n):
        held = (candidates >> i) & 1 == 1
        if held.any():
            candidates = candidates[held]
    winner = int(candidates[0])
    return SolveReport(
        size=best,
        indices=tuple(i for i in range(n) if winner >> i & 1),
        r=r,
        method="bruteforce",
        stats={"subsets": 1 << n},
    )


def _check_oracle_size(n: int) -> None:
    if n > ORACLE_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds brute-force limit {ORACLE_MAX_N}")


def bruteforce_profile(pts: PointSet) -> list[SolveReport]:
    """Exact maximum r-multipacking for every r in 1..n-1 from one subset scan."""
    n = pts.n
    _check_oracle_size(n)
    if n < 2:
        raise ValueError("profile needs n >= 2")
    scan = _violation_radius_scan(nearest_order(pts, n - 1)[None])
    return [_report_for_radius(scan, r) for r in range(1, n)]


def bruteforce_max_r_multipacking(pts: PointSet, r: int) -> SolveReport:
    """Exact maximum r-multipacking; witness is the lexicographically smallest.

    Scans all 2^n subsets (vectorized), so n is capped by ORACLE_MAX_N,
    checked before anything is ranked or allocated.  A single point is its
    own maximum packing for any integer r >= 1.
    """
    n = pts.n
    _check_oracle_size(n)
    _check_radius(r, n)
    if n == 1:
        return SolveReport(size=1, indices=(0,), r=r, method="bruteforce", stats={"subsets": 2})
    scan = _violation_radius_scan(nearest_order(pts, r)[None])
    return _report_for_radius(scan, r)


def multipacking_number(pts: PointSet) -> int:
    """Maximum multipacking cardinality, i.e. the r = n-1 optimum."""
    return bruteforce_max_r_multipacking(pts, max(1, pts.n - 1)).size


# ---------------------------------------------------------------------------
# witness files
# ---------------------------------------------------------------------------

def save_witness(report: SolveReport, path: str | Path) -> None:
    payload = {"r": report.r, "indices": list(report.indices), "size": report.size}
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def load_witness(path: str | Path) -> tuple[tuple[int, ...], int | None]:
    """Read a witness file; returns (indices, r or None).

    Accepts both the plain witness format and full solver reports, since both
    carry 'indices' (and usually 'r').  Duplicate indices, a 'size' or 'r'
    that is not an integer, and a 'size' other than the number of indices
    raise ValueError.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer past the int digit limit
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or "indices" not in data:
        raise ValueError(f"{path}: expected an object with 'indices'")
    indices = data["indices"]
    if not isinstance(indices, list) or not all(type(i) is int for i in indices):  # no bool, no float
        raise ValueError(f"{path}: 'indices' must be a list of integers")
    if len(set(indices)) != len(indices):
        raise ValueError(f"{path}: 'indices' repeats an index")
    size = data.get("size", len(indices))
    if type(size) is not int:
        raise ValueError(f"{path}: 'size' must be an integer")
    if size != len(indices):
        raise ValueError(f"{path}: 'size' is {size!r} but 'indices' holds {len(indices)}")
    r = data.get("r")
    if r is not None and type(r) is not int:
        raise ValueError(f"{path}: 'r' must be an integer")
    return tuple(indices), r
