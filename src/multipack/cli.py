"""Command line interface.

Subcommands: solve, check, gen, audit-degree, bench, render.  Machine
consumers read JSON/CSV from stdout or the output file; human summaries and
errors go to stderr.  Exit codes: 0 success, 1 invalid witness or exceeded
degree bound, 2 unreadable or malformed input, 3 incompatible method/radius,
4 search budget exceeded.  Given identical flags and seeds, every command
writes byte-identical output (bench timing columns excepted; see --no-timing).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .geometry import ParseError, _check_radius, load_points, nearest_order, save_points_csv
from .instances import (
    _scan_seed,
    pentagon_five,
    random_point_set,
    scan_six_point_sets,
    square_four,
)
from .line import greedy_max_r_multipacking_1d, lower_family_1d, upper_family_1d
from .multipacking import (
    ORACLE_MAX_N,
    BudgetExceededError,
    _check_order,
    bruteforce_max_r_multipacking,
    load_witness,
)
from .plane import (
    build_conflict_graph,
    edge_list_text,
    fpt_2_multipacking,
    greedy_2_multipacking,
    max_1_multipacking,
    max_2_multipacking_exact,
    max_degree_audit,
)
from .render import render_to_file

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_METHOD = 3
EXIT_BUDGET = 4


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _fpt(pts, r, args):
    if args.k is None or args.k < 1:
        raise CliError(EXIT_METHOD, "method", "fpt needs --k >= 1")
    if args.k > pts.n:
        raise CliError(EXIT_METHOD, "method", f"fpt needs --k <= n={pts.n}, got {args.k}")
    return fpt_2_multipacking(pts, args.k, max_nodes=args.budget)


# each method's one solvable radius (None: any), fewest points and call
# (pts, r, args) -> SolveReport, in --method order
_METHODS = {
    "greedy1d": (None, 1, lambda pts, r, args: greedy_max_r_multipacking_1d(pts, r)),
    "nng": (1, 1, lambda pts, r, args: max_1_multipacking(pts)),
    "exact": (2, 3, lambda pts, r, args: max_2_multipacking_exact(pts, max_nodes=args.budget)),
    "fpt": (2, 3, _fpt),
    "greedy": (2, 3, lambda pts, r, args: greedy_2_multipacking(pts)),
    "bruteforce": (None, 1, lambda pts, r, args: bruteforce_max_r_multipacking(pts, r)),
}


def _timed(method: str, pts, r: int, args):
    """Run a method of the table; return its report and its wall time in ms."""
    started = time.perf_counter()
    report = _METHODS[method][2](pts, r, args)
    return report, (time.perf_counter() - started) * 1000.0


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_radius(text: str, n: int) -> int:
    if text == "full":
        return max(1, n - 1)
    try:
        r = int(text)
    except ValueError:
        raise CliError(EXIT_PARSE, "input", f"--r must be an integer or 'full', got {text!r}")
    try:
        _check_radius(r, n)
    except ValueError as exc:
        raise CliError(EXIT_METHOD, "method", str(exc)) from None
    return r


def cmd_solve(args) -> int:
    pts = load_points(args.input)
    n = pts.n
    r = _parse_radius(args.r, n)
    method = args.method
    if method == "auto":  # the oracle covers what no dedicated solver does
        method = ("bruteforce" if n == 1 else "greedy1d" if pts.dim == 1
                  else {1: "nng", 2: "exact"}.get(r, "bruteforce"))
    radius, fewest, _ = _METHODS[method]
    if radius is not None and r != radius:
        raise CliError(EXIT_METHOD, "method", f"{method} solves r={radius} only, got r={r}")
    if method == "greedy1d" and pts.dim != 1:
        raise CliError(EXIT_METHOD, "method", "greedy1d needs 1D input")
    if n < fewest:
        raise CliError(EXIT_METHOD, "method", f"{method} needs n >= {fewest}")
    report, elapsed_ms = _timed(method, pts, r, args)
    payload = report.to_json_dict()
    if method == "fpt" and report.size == 0:
        payload = {"found": False, **payload}
    _emit(payload, args.out)
    _note(f"solve: method={payload['method']} size={payload['size']} elapsed={elapsed_ms:.1f}ms")
    return EXIT_OK


def cmd_check(args) -> int:
    pts = load_points(args.input)
    indices, file_r = load_witness(args.set)
    if args.r is not None:
        r = _parse_radius(args.r, pts.n)
    elif file_r is not None:
        r = _parse_radius(str(file_r), pts.n)
    else:
        raise CliError(EXIT_PARSE, "input", "no radius: pass --r or include 'r' in the set file")
    members = set(indices)
    for i in members:
        if not 0 <= i < pts.n:
            raise CliError(EXIT_PARSE, "input", f"witness index {i} out of range for n={pts.n}")
    if pts.n == 1:  # every ball around the lone point holds at most itself
        ok, violation = True, None
    else:
        ok, violation = _check_order(nearest_order(pts, r), members)
    if ok:
        _emit({"valid": True, "r": r, "size": len(members)}, None)
        _note(f"check: valid ({len(members)} members, r={r})")
        return EXIT_OK
    _emit({"valid": False, "r": r, "violation": violation.to_json_dict()}, None)
    _note(f"check: INVALID at v={violation.v} s={violation.s}")
    return EXIT_INVALID


def cmd_gen(args) -> int:
    family = args.family
    if family in ("lower1d", "upper1d", "random") and args.n is None:
        raise CliError(EXIT_PARSE, "input", f"family {family} needs --n")
    if family == "lower1d":
        pts = lower_family_1d(args.n)
    elif family == "upper1d":
        pts = upper_family_1d(args.n, scaled=not args.unscaled)
    elif family == "pentagon":
        pts = pentagon_five()
    elif family == "square4":
        pts = square_four()
    else:
        try:
            pts = random_point_set(args.n, dim=args.dim, seed=args.seed, grid=args.grid)
        except RuntimeError as exc:  # retry budget spent without a general-position draw
            raise CliError(EXIT_PARSE, "input", str(exc))
    save_points_csv(pts, args.out)
    _note(f"gen: wrote {pts.n} points (dim {pts.dim}) to {args.out}")
    return EXIT_OK


def cmd_audit_degree(args) -> int:
    pts = load_points(args.input)
    graph = build_conflict_graph(pts)
    audit = max_degree_audit(pts, graph=graph)
    if args.dump_edges:
        with open(args.dump_edges, "w") as fh:
            fh.write(edge_list_text(graph))
    _emit(audit.to_json_dict(), None)
    _note(f"audit-degree: max_degree={audit.max_degree} within_bound={audit.within_bound}")
    return EXIT_OK if audit.within_bound else EXIT_INVALID


_BENCH_HEADER = [
    "instance", "family", "n", "seed", "method", "r",
    "size", "optimum", "ratio", "nodes", "wall_ms",
]


_BENCH_TRIALS = {"random1d": 100, "random2d": 50, "scan6": 1000}

# random families: dimension, n-range floor, default n-range, and the methods each trial
# runs with the stats counter of their work column
_BENCH_RANDOM = {
    "random1d": (1, 2, (2, 12), (("greedy1d", "checks"),)),
    "random2d": (2, 3, (10, 60), (("exact", "nodes"), ("greedy", "rounds"))),
}


def cmd_bench(args) -> int:
    family = args.family
    trials = args.trials if args.trials is not None else _BENCH_TRIALS[family]
    if trials < 1:
        raise CliError(EXIT_PARSE, "input", f"--trials must be >= 1, got {trials}")
    rows: list[list] = []

    def wall(value_ms: float) -> str:
        return f"{value_ms:.3f}" if args.timing else ""

    if family in _BENCH_RANDOM:
        dim, floor, (n_min, n_max), methods = _BENCH_RANDOM[family]
        n_min = args.n_min if args.n_min is not None else n_min
        n_max = args.n_max if args.n_max is not None else n_max
        if not floor <= n_min <= n_max:
            raise CliError(EXIT_PARSE, "input", f"need {floor} <= n-min <= n-max")
        if dim == 1 and n_max > ORACLE_MAX_N:
            raise CliError(EXIT_METHOD, "method",
                           f"random1d compares against the oracle; n-max <= {ORACLE_MAX_N}")
        for t in range(trials):
            n = n_min + t % (n_max - n_min + 1)
            seed_t = _scan_seed(args.seed, t)
            pts = random_point_set(n, dim=dim, seed=seed_t)
            r = n - 1 if dim == 1 else 2
            runs = [(method, counter, *_timed(method, pts, r, args)) for method, counter in methods]
            # the reference: the oracle on a line, the first (exact) row in the plane
            opt = bruteforce_max_r_multipacking(pts, r).size if dim == 1 else runs[0][2].size
            for method, counter, got, elapsed in runs:
                rows.append([t, family, n, seed_t, method, r, got.size, opt,
                             f"{opt / got.size:.6f}", got.stats[counter], wall(elapsed)])
        worst_ratio = max(row[7] / row[6] for row in rows)  # optimum / size
        counted = f" mismatches={sum(row[6] != row[7] for row in rows)}" if dim == 1 else ""
        summary = f"bench {family}: trials={trials}{counted} worst_ratio={worst_ratio:.6f}"
    else:  # scan6
        started = time.perf_counter()
        scan = scan_six_point_sets(trials, seed=args.seed)
        total_ms = (time.perf_counter() - started) * 1000.0
        per_ms = total_ms / trials
        for t, size in enumerate(scan["sizes"]):
            rows.append([
                t, family, 6, _scan_seed(args.seed, t), "bruteforce", 5,
                size, size, "1.000000", 1 << 6, wall(per_ms),
            ])
        summary = (
            f"bench scan6: trials={trials} min_mp={scan['min_mp']} "
            f"counterexamples={len(scan['counterexamples'])}"
        )

    with open(args.report, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_BENCH_HEADER)
        writer.writerows(rows)
    _note(summary)
    return EXIT_OK


def cmd_render(args) -> int:
    pts = load_points(args.input)
    witness: tuple[int, ...] = ()
    if args.set:
        witness, _ = load_witness(args.set)
    render_to_file(pts, args.out, witness=witness, circles=args.circles)
    _note(f"render: wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multipack",
        description="Exact and heuristic solvers for multipacking problems on point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximize an r-multipacking")
    p.add_argument("--input", required=True, help="point file (.csv or .json)")
    p.add_argument("--r", default="full", help="radius, or 'full' for n-1")
    p.add_argument("--method", default="auto", choices=["auto", *_METHODS])
    p.add_argument("--k", type=int, default=None, help="target size (fpt only)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--budget", type=int, default=10_000_000, help="search node budget")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="validate a witness set")
    p.add_argument("--input", required=True)
    p.add_argument("--set", required=True, help="witness JSON with 'indices' (and usually 'r')")
    p.add_argument("--r", default=None, help="radius override, or 'full'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate an instance CSV")
    p.add_argument("--family", required=True,
                   choices=["lower1d", "upper1d", "pentagon", "square4", "random"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, default=2, choices=[1, 2])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--unscaled", action="store_true",
                   help="upper1d: emit the raw values instead of the x3 grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("audit-degree", help="max conflict-graph degree vs the 17 bound")
    p.add_argument("--input", required=True)
    p.add_argument("--dump-edges", default=None, help="also write the edge list here")
    p.set_defaults(func=cmd_audit_degree)

    p = sub.add_parser("bench", help="benchmark suites, CSV report")
    p.add_argument("--family", required=True, choices=["random1d", "random2d", "scan6"])
    p.add_argument("--n-min", dest="n_min", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--report", required=True)
    p.add_argument("--no-timing", dest="timing", action="store_false",
                   help="blank the wall_ms column for byte-reproducible reports")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="draw points (and a witness) as SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--set", default=None, help="witness JSON to highlight")
    p.add_argument("--circles", action="store_true",
                   help="draw each point's second-neighbor circle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "budget", 0) < 0:
            raise CliError(EXIT_PARSE, "input", f"--budget must be >= 0, got {args.budget}")
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc), "kind": exc.kind}), file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(json.dumps({"error": str(exc), "kind": "parse"}), file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(json.dumps({"error": str(exc), "kind": "budget"}), file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
