"""Workloads of the multipack benchmark: seeded inputs, ops and the correctness gate.

An op is one verified solve: load an instance file, solve it, and check the
witness.  Instance files are generated and written during set-up.  Every
call into multipack goes through `Tracer.call`, so the traced run times each
layer from outside the library, and every call resolves the function on the
`multipack` module at call time.

Any answer the checks reject raises `WrongAnswer`, which ends the run
without a timing.  Any other exception from an op (the node budget of the
exact search, a tie in general position) counts the op as failed.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import multipack as mp
from multipack import geometry

from spans import Tracer

# Exact r=2 node budget; the largest count seen at n <= 90 is ~4.4k nodes.
NODE_BUDGET = 200_000
DEGREE_BOUND = 17

WORKLOADS = ("exact-r2", "plane-5k", "exact-arith")

SIZES = {
    # n cycles through n_min..n_max; larger n is left out on purpose (README.md).
    "exact-r2": {"count": 850, "n_min": 40, "n_max": 90},
    # n = 5000 on the default grid (n^2, below the 2^28 tree-ranking span limit);
    # at n = 10^4 only 8 instances fit a run and the spread between seeds is too wide.
    "plane-5k": {"instances": 22, "n": 5000},
    "exact-arith": {
        # Sizes spread op latencies evenly from ~0.5 s to ~2.5 s: when host speed
        # drifts, the median op then moves smoothly instead of jumping between clusters.
        "decimal_n": [100, 120, 140, 160, 180, 200],
        "lower_n": [201, 225, 249, 273, 300],  # multiples of 3: MP = n/3
        "upper_n": [201, 225, 249, 273, 299],  # odd: MP = floor(n/2)
        "oracle_n": [13, 14, 15, 16],
        "scan6_trials": 2000,
    },
    # post-run correctness gate, run on every workload
    "gate": {"oracle_n": [13, 14, 15, 16], "scan6_trials": 50},
}


class WrongAnswer(Exception):
    """A solver returned an answer that the benchmark's checks reject."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


Op = Callable[[Tracer, Counter], None]


@dataclass
class Plan:
    """Everything set-up produced for one run."""

    ops: list[tuple[str, Op]]  # (kind, op), the measured op list in order
    gate: list[Op]
    warmup: list[Op]
    inputs: list[dict]  # one descriptor per measured instance file


# ---------------------------------------------------------------------------
# shared op steps
# ---------------------------------------------------------------------------

def load(tr: Tracer, path: Path):
    pts = tr.call("geometry.load", mp.load_points, path)
    tr.count("geometry.points_loaded", pts.n)
    return pts


def check(tr: Tracer, pts, table, report, r: int) -> None:
    """The witness is duplicate-free, matches its size, and passes the checker."""
    indices = report.indices
    require(len(set(indices)) == len(indices) == report.size, f"{report.method}: malformed witness")
    ok, violation = tr.call("multipacking.check", mp.is_r_multipacking, pts, table, indices, r)
    require(ok, f"{report.method} witness breaks r={r} at {violation} (n={pts.n})")


def width_table(tr: Tracer, pts, r: int):
    """Width-r neighbour table from the ranked r-nearest prefix."""
    return mp.NeighborTable(order=tuple(tr.call("geometry.rank", geometry.nearest_profile, pts, r)))


def solve_nng(tr: Tracer, pts):
    return tr.call("plane.forest", mp.max_1_multipacking, pts, derive=(pts, "graph1"))


def solve_exact(tr: Tracer, pts):
    rep = tr.call("plane.search", mp.max_2_multipacking_exact, pts, max_nodes=NODE_BUDGET, derive=(pts, "graph2"))
    tr.count("plane.search_nodes", rep.stats["nodes"])
    return rep


def solve_greedy(tr: Tracer, q: Counter, pts):
    rep = tr.call("plane.greedy", mp.greedy_2_multipacking, pts, derive=(pts, "graph2"))
    tr.count("plane.greedy_rounds", rep.stats["rounds"])
    tr.count("plane.greedy_improvements", rep.stats["improvements"])
    q["greedy2"] += rep.size
    q["greedy2_n"] += pts.n
    return rep


def greedy_within_exact(q: Counter, greedy, exact, path: Path) -> None:
    """Greedy never beats the exact optimum; both sizes feed `greedy_vs_exact`."""
    require(greedy.size <= exact.size, f"greedy {greedy.size} > exact {exact.size} ({path.name})")
    q["exact2"] += exact.size
    q["greedy2_vs_exact"] += greedy.size


def audit_degree(tr: Tracer, pts, path: Path) -> None:
    """The conflict graph keeps the degree bound, built and audited as `audit-degree` does."""
    graph = tr.call("plane.graph", mp.build_conflict_graph, pts, derive=(pts, "rank2"))
    result = tr.call("plane.audit", mp.max_degree_audit, pts, graph)
    require(result.within_bound and result.max_degree <= DEGREE_BOUND,
            f"conflict degree {result.max_degree} > {DEGREE_BOUND} ({path.name})")


def oracle_op(path: Path) -> Op:
    """Compare the solvers with `bruteforce_profile` on one small instance."""

    def op(tr: Tracer, q: Counter) -> None:
        pts = load(tr, path)
        table = tr.call("geometry.table", mp.build_neighbor_table, pts)
        profile = tr.call("multipacking.oracle", mp.bruteforce_profile, pts, derive=(pts, "table"))
        tr.count("multipacking.oracle_subsets", profile[0].stats["subsets"])
        if pts.dim == 1:
            r = pts.n - 1
            rep = tr.call("line.greedy1d", mp.greedy_max_r_multipacking_1d, pts, r, derive=(pts, "table"))
            tr.count("line.checks", rep.stats["checks"])
            check(tr, pts, table, rep, r)
            require(rep.size == profile[r - 1].size, f"greedy1d {rep.size} != oracle {profile[r - 1].size} ({path.name})")
            return
        nng = solve_nng(tr, pts)
        check(tr, pts, table, nng, 1)
        require(nng.size == profile[0].size, f"nng {nng.size} != oracle {profile[0].size} ({path.name})")
        exact = solve_exact(tr, pts)
        check(tr, pts, table, exact, 2)
        require(exact.size == profile[1].size, f"exact {exact.size} != oracle {profile[1].size} ({path.name})")
        greedy = solve_greedy(tr, q, pts)
        check(tr, pts, table, greedy, 2)
        greedy_within_exact(q, greedy, exact, path)
        audit_degree(tr, pts, path)

    return op


def fixture_op(name: str) -> Op:
    """The frozen extremal fixtures keep MP = 1."""

    def op(tr: Tracer, q: Counter) -> None:
        pts = getattr(mp, name)()
        size = tr.call("multipacking.oracle", mp.multipacking_number, pts, derive=(pts, "table"))
        require(size == 1, f"{name}: MP = {size}, expected 1")

    return op


def scan6_op(trials: int, seed: int) -> Op:
    """Six random points always admit a multipacking of size 2."""

    def op(tr: Tracer, q: Counter) -> None:
        scan = tr.call("instances.scan6", mp.scan_six_point_sets, trials, seed)
        tr.count("instances.scan6_trials", scan["checked"])
        require(scan["checked"] == trials and scan["min_mp"] >= 2 and not scan["counterexamples"],
                f"scan6 found a six-point set with MP < 2: {scan['counterexamples'][:1]}")

    return op


# ---------------------------------------------------------------------------
# exact-r2: branch and bound on many small integer instances
# ---------------------------------------------------------------------------

def exact_r2_op(path: Path) -> Op:
    def op(tr: Tracer, q: Counter) -> None:
        pts = load(tr, path)
        exact = solve_exact(tr, pts)
        greedy = solve_greedy(tr, q, pts)
        table = tr.call("geometry.table", mp.build_neighbor_table, pts)
        check(tr, pts, table, exact, 2)
        check(tr, pts, table, greedy, 2)
        greedy_within_exact(q, greedy, exact, path)

    return op


# ---------------------------------------------------------------------------
# plane-5k: tree ranking, forest DP, greedy local search and the audit at n = 5000
# ---------------------------------------------------------------------------

def plane_op(path: Path) -> Op:
    """Load one instance, solve r=1 and r=2, audit the conflict graph, check both witnesses."""

    def op(tr: Tracer, q: Counter) -> None:
        pts = load(tr, path)
        nng = solve_nng(tr, pts)
        check(tr, pts, width_table(tr, pts, 1), nng, 1)
        greedy = solve_greedy(tr, q, pts)
        check(tr, pts, width_table(tr, pts, 2), greedy, 2)
        # every greedy pick removes at most 18 vertices; a 2-multipacking is a 1-multipacking
        require(18 * greedy.size >= pts.n, f"greedy size {greedy.size} below n/18 ({path.name})")
        require(greedy.size <= nng.size, f"greedy r=2 {greedy.size} > r=1 optimum {nng.size} ({path.name})")
        audit_degree(tr, pts, path)

    return op


# ---------------------------------------------------------------------------
# exact-arith: rational ranking, the 1D sweep and the oracle
# ---------------------------------------------------------------------------

def decimal_op(path: Path) -> Op:
    def op(tr: Tracer, q: Counter) -> None:
        pts = load(tr, path)
        nng = solve_nng(tr, pts)
        greedy = solve_greedy(tr, q, pts)
        table = tr.call("geometry.table", mp.build_neighbor_table, pts)
        check(tr, pts, table, nng, 1)
        check(tr, pts, table, greedy, 2)
        require(greedy.size <= nng.size, f"greedy r=2 {greedy.size} > r=1 optimum {nng.size} ({path.name})")

    return op


def line_op(path: Path, expected: int) -> Op:
    def op(tr: Tracer, q: Counter) -> None:
        pts = load(tr, path)
        r = pts.n - 1
        rep = tr.call("line.greedy1d", mp.greedy_max_r_multipacking_1d, pts, r, derive=(pts, "table"))
        tr.count("line.checks", rep.stats["checks"])
        table = tr.call("geometry.table", mp.build_neighbor_table, pts)
        check(tr, pts, table, rep, r)
        require(rep.size == expected, f"greedy1d {rep.size} != family optimum {expected} ({path.name})")

    return op


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _seed(seed: int, stream: int, i: int) -> int:
    return (seed * 1_000_003 + stream * 10_007 + i) % 2**63


def ranking_path(pts) -> str:
    """The `nearest_profile` backend this input selects, mirroring its dispatch."""
    try:
        numpy_min, tree_min = geometry._NUMPY_MIN_N, geometry._TREE_MIN_N
        tree_span, int64_span = geometry._TREE_SPAN_LIMIT, geometry._INT64_SPAN_LIMIT
    except AttributeError:
        return "unknown"
    if pts.n >= numpy_min and pts.all_integer():
        coords = [c for p in pts.points for c in p]
        span = max(coords) - min(coords)
        if pts.n >= tree_min and span <= tree_span:
            return "tree"
        if span <= int64_span:
            return "int64"
    return "exact"


class _Writer:
    """Generates instances through `instances`, writes them, and records descriptors."""

    def __init__(self, tr: Tracer, workdir: Path):
        self.tr = tr
        self.workdir = workdir
        self.inputs: list[dict] = []

    def _save(self, name: str, pts, measured: bool) -> Path:
        if measured:
            coords = [c for p in pts.points for c in p]
            self.inputs.append({
                "n": pts.n,
                "integer": pts.all_integer(),
                "span": max(coords) - min(coords),
                "path": ranking_path(pts),
            })
        path = self.workdir / f"{name}.csv"
        mp.save_points_csv(pts, path)
        return path

    def random(self, name: str, n: int, seed: int, dim: int = 2, grid: int | None = None,
               audit: str = "none", measured: bool = True) -> Path:
        pts = self.tr.call("instances.gen", mp.random_point_set, n, dim=dim, seed=seed, grid=grid, audit=audit)
        return self._save(name, pts, measured)

    def decimal(self, name: str, n: int, seed: int, measured: bool = True) -> Path:
        """Integer points divided by 1000, written as decimals (12345 -> 12.345)."""
        pts = self.tr.call("instances.gen", mp.random_point_set, n, seed=seed, audit="none")
        path = self._save(name, mp.PointSet.of([tuple(Fraction(c, 1000) for c in p) for p in pts.points]), measured)
        with open(path, "w", newline="") as fh:  # save_points_csv would write p/q
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "y"])
            for p in pts.points:
                writer.writerow([f"{c // 1000}.{c % 1000:03d}" for c in p])
        return path

    def line(self, name: str, family: str, n: int, seed: int, measured: bool = True) -> Path:
        """A 1D family translated by a seeded integer with its rows shuffled; MP is unchanged."""
        base = self.tr.call("instances.gen", getattr(mp, family), n)
        rng = random.Random(seed)
        shift = rng.randrange(-10**6, 10**6)
        rows = [(p[0] + shift,) for p in base.points]
        rng.shuffle(rows)
        return self._save(name, mp.PointSet.of(rows), measured)


def _interleave(ops: list[tuple[str, Op]]) -> list[tuple[str, Op]]:
    """Spread each kind's ops evenly over the pass, keeping their order within the kind.

    Host speed drifts over tens of seconds; ops of one kind spread over the
    whole pass keep the median op from reading a single stretch of it.
    """
    kinds = Counter(kind for kind, _ in ops)
    seen: Counter = Counter()
    keyed = []
    for kind, op in ops:
        keyed.append(((seen[kind] + 0.5) / kinds[kind], kind, op))
        seen[kind] += 1
    keyed.sort(key=lambda item: item[0])
    return [(kind, op) for _, kind, op in keyed]


def _gate(w: _Writer, seed: int, sizes: dict) -> list[Op]:
    ops: list[Op] = []
    for dim in (2, 1):
        for i, n in enumerate(sizes["oracle_n"]):
            path = w.random(f"gate{dim}d-{i}", n, _seed(seed, 90 + dim, i), dim=dim, audit="full", measured=False)
            ops.append(oracle_op(path))
    ops += [fixture_op("pentagon_five"), fixture_op("square_four"),
            scan6_op(sizes["scan6_trials"], _seed(seed, 99, 0))]
    return ops


def setup(workload: str, seed: int, workdir: Path, tr: Tracer, sizes: dict | None = None) -> Plan:
    """Generate and write every instance of `workload`; return its ops."""
    sizes = sizes or SIZES
    size = sizes[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    w = _Writer(tr, workdir)
    ops: list[tuple[str, Op]] = []
    if workload == "exact-r2":
        span = size["n_max"] - size["n_min"] + 1
        for i in range(size["count"]):
            n = size["n_min"] + i % span
            ops.append(("exact-r2", exact_r2_op(w.random(f"r2-{i}", n, _seed(seed, 1, i)))))
        warmup = [exact_r2_op(w.random("warm", size["n_min"], _seed(seed, 2, 0), measured=False))]
    elif workload == "plane-5k":
        for i in range(size["instances"]):
            ops.append(("plane", plane_op(w.random(f"plane-{i}", size["n"], _seed(seed, 1, i)))))
        # 600 points is above the k-d tree threshold, so warm-up loads scipy.spatial
        warmup = [plane_op(w.random("warm", 600, _seed(seed, 2, 0), measured=False))]
    elif workload == "exact-arith":
        for i, n in enumerate(size["decimal_n"]):
            ops.append(("decimal", decimal_op(w.decimal(f"decimal-{i}", n, _seed(seed, 1, i)))))
        for family, key, optimum in (("lower_family_1d", "lower_n", lambda n: n // 3),
                                     ("upper_family_1d", "upper_n", lambda n: n // 2)):
            for i, n in enumerate(size[key]):
                ops.append(("line", line_op(w.line(f"{key}-{i}", family, n, _seed(seed, 2, i)), optimum(n))))
        for dim in (2, 1):
            for i, n in enumerate(size["oracle_n"]):
                path = w.random(f"oracle{dim}d-{i}", n, _seed(seed, 2 + dim, i), dim=dim, audit="full")
                ops.append(("oracle", oracle_op(path)))
        ops.append(("scan6", scan6_op(size["scan6_trials"], _seed(seed, 6, 0))))
        ops = _interleave(ops)
        warmup = [
            decimal_op(w.decimal("warm-decimal", 20, _seed(seed, 7, 0), measured=False)),
            line_op(w.line("warm-line", "lower_family_1d", 30, seed, measured=False), 10),
            oracle_op(w.random("warm-oracle", 8, _seed(seed, 7, 1), audit="full", measured=False)),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    gate = _gate(w, seed, sizes["gate"])
    return Plan(ops=ops, gate=gate, warmup=warmup, inputs=w.inputs)


def describe(plan: Plan) -> dict:
    """n distribution, integrality, coordinate span and ranking path of the measured inputs."""
    ns = sorted(d["n"] for d in plan.inputs)
    return {
        "instances": len(ns),
        "ops": len(plan.ops),
        "op_kinds": dict(Counter(kind for kind, _ in plan.ops)),
        "n": {"min": ns[0], "median": ns[len(ns) // 2], "max": ns[-1], "total": sum(ns)},
        "integer_instances": sum(d["integer"] for d in plan.inputs),
        "span_max": str(max(d["span"] for d in plan.inputs)),
        "ranking_path": dict(Counter(d["path"] for d in plan.inputs)),
    }
