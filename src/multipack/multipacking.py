"""Multipacking membership checking and exact brute-force solving.

A set of indices M is an r-multipacking of a point set P when, for every
point v and every s in 1..r, the closed s-neighborhood of v (v plus its s
nearest points) contains at most floor((s+1)/2) members of M.  The checker
walks neighborhoods incrementally in O(n*r); the oracle scans all subsets of
P with vectorized popcounts and is the ground truth the solvers are tested
against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import NeighborTable, PointSet, build_neighbor_table, nearest_profile


# largest n the 2^n subset scan accepts by default
ORACLE_MAX_N = 16


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


def _member_flags(n: int, members: Iterable[int]) -> bytearray:
    flags = bytearray(n)
    for i in members:
        if not 0 <= i < n:
            raise ValueError(f"member index {i} out of range for n={n}")
        flags[i] = 1
    return flags


def is_r_multipacking(
    pts: PointSet,
    table: NeighborTable,
    members: Iterable[int],
    r: int,
) -> tuple[bool, Violation | None]:
    """Check the neighborhood bounds for every point and radius s <= r.

    Returns (True, None) on success, else (False, first violation) where the
    scan order is ascending point index, then ascending s.  The table needs
    width >= r.
    """
    n = pts.n
    if table.n != n:
        raise ValueError("table does not match point set")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}, got {r}")
    if table.width < r:
        raise ValueError(f"table width {table.width} is below r={r}")
    flags = _member_flags(n, members)
    for v in range(n):
        count = flags[v]
        row = table.order[v]
        for s in range(1, r + 1):
            count += flags[row[s - 1]]
            bound = (s + 1) >> 1
            if count > bound:
                return False, Violation(v=v, s=s, count=count, bound=bound)
    return True, None


# ---------------------------------------------------------------------------
# brute-force oracle over all subsets
# ---------------------------------------------------------------------------

def _popcount_table(n_bits: int) -> np.ndarray:
    size = 1 << n_bits
    pop = np.zeros(size, dtype=np.uint8)
    block = 1
    while block < size:
        pop[block : 2 * block] = pop[:block] + 1
        block *= 2
    return pop


def _bit_reverse_table(n_bits: int) -> np.ndarray:
    size = 1 << n_bits
    masks = np.arange(size, dtype=np.uint32)
    rev = np.zeros(size, dtype=np.uint32)
    for b in range(n_bits):
        rev |= ((masks >> np.uint32(b)) & np.uint32(1)) << np.uint32(n_bits - 1 - b)
    return rev


def _violation_radius_scan(table: NeighborTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every subset mask, the smallest s whose bound it breaks (n if none).

    Only s up to the table's width is scanned.  Returns (first_bad_s,
    popcount, bit_reversal) arrays indexed by mask.  Writing larger s first
    and overwriting with smaller s leaves the minimum.
    """
    n = table.n
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
    pop = _popcount_table(n)
    rev = _bit_reverse_table(n)
    # prefix[v][s] = mask of v plus its s nearest points
    prefix = []
    for v in range(n):
        row = [1 << v]
        for u in table.order[v]:
            row.append(row[-1] | (1 << u))
        prefix.append(row)
    first_bad = np.full(size, n, dtype=np.int16)
    for s in range(table.width, 0, -1):
        bound = (s + 1) >> 1
        for v in range(n):
            counts = pop[masks & np.uint32(prefix[v][s])]
            first_bad[counts > bound] = s
    return first_bad, pop, rev


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _report_for_radius(
    first_bad: np.ndarray,
    pop: np.ndarray,
    rev: np.ndarray,
    r: int,
) -> SolveReport:
    valid = first_bad > r
    best = int(pop[valid].max())
    candidates = np.nonzero(valid & (pop == best))[0]
    # lexicographically smallest index tuple == largest bit-reversed mask
    winner = int(candidates[np.argmax(rev[candidates])])
    return SolveReport(
        size=best,
        indices=_mask_to_indices(winner),
        r=r,
        method="bruteforce",
        stats={"subsets": int(first_bad.size)},
    )


def bruteforce_profile(pts: PointSet) -> list[SolveReport]:
    """Exact maximum r-multipacking for every r in 1..n-1 from one subset scan."""
    n = pts.n
    if n > ORACLE_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds brute-force limit {ORACLE_MAX_N}")
    if n < 2:
        raise ValueError("profile needs n >= 2")
    table = build_neighbor_table(pts)
    first_bad, pop, rev = _violation_radius_scan(table)
    return [_report_for_radius(first_bad, pop, rev, r) for r in range(1, n)]


def bruteforce_max_r_multipacking(pts: PointSet, r: int, limit_n: int = ORACLE_MAX_N) -> SolveReport:
    """Exact maximum r-multipacking; witness is the lexicographically smallest.

    Scans all 2^n subsets (vectorized), so n is capped by limit_n.  A single
    point is its own maximum packing for any r.
    """
    n = pts.n
    if n > limit_n:
        raise BudgetExceededError(f"n={n} exceeds brute-force limit {limit_n}")
    if n == 1:
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        return SolveReport(size=1, indices=(0,), r=r, method="bruteforce", stats={"subsets": 2})
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in 1..{n - 1}, got {r}")
    table = NeighborTable(order=tuple(nearest_profile(pts, r)))
    first_bad, pop, rev = _violation_radius_scan(table)
    return _report_for_radius(first_bad, pop, rev, r)


def multipacking_number(pts: PointSet) -> int:
    """Maximum multipacking cardinality, i.e. the r = n-1 optimum."""
    if pts.n == 1:
        return 1
    return bruteforce_max_r_multipacking(pts, pts.n - 1).size


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
    carry 'indices' (and usually 'r').  Duplicate indices, and a 'size' other
    than the number of indices, raise ValueError.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or "indices" not in data:
        raise ValueError(f"{path}: expected an object with 'indices'")
    indices = data["indices"]
    if not isinstance(indices, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in indices
    ):
        raise ValueError(f"{path}: 'indices' must be a list of integers")
    if len(set(indices)) != len(indices):
        raise ValueError(f"{path}: 'indices' repeats an index")
    size = data.get("size", len(indices))
    if size != len(indices) or isinstance(size, bool):
        raise ValueError(f"{path}: 'size' is {size!r} but 'indices' holds {len(indices)}")
    r = data.get("r")
    if r is not None and (not isinstance(r, int) or isinstance(r, bool)):
        raise ValueError(f"{path}: 'r' must be an integer")
    return tuple(indices), r
