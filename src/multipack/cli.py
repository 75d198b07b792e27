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

from .geometry import ParseError, load_points, nearest_order, save_points_csv
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

# the one radius each dedicated solver handles
_METHOD_RADIUS = {"nng": 1, "exact": 2, "greedy": 2, "fpt": 2}


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


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
    if n == 1:
        if r < 1:
            raise CliError(EXIT_METHOD, "method", f"r must be >= 1, got {r}")
        return r
    if not 1 <= r <= n - 1:
        raise CliError(EXIT_METHOD, "method", f"r must be in 1..{n - 1} for n={n}, got {r}")
    return r


def cmd_solve(args) -> int:
    pts = load_points(args.input)
    n = pts.n
    r = _parse_radius(args.r, n)
    method = args.method
    if method == "auto":
        if n == 1:
            method = "bruteforce"
        elif pts.dim == 1:
            method = "greedy1d"
        elif r == 1:
            method = "nng"
        elif r == 2:
            method = "exact"
        else:
            method = "bruteforce"
    if method in _METHOD_RADIUS and r != _METHOD_RADIUS[method]:
        raise CliError(EXIT_METHOD, "method", f"{method} solves r={_METHOD_RADIUS[method]} only, got r={r}")
    started = time.perf_counter()
    if method == "greedy1d":
        if pts.dim != 1:
            raise CliError(EXIT_METHOD, "method", "greedy1d needs 1D input")
        if n < 2:
            raise CliError(EXIT_METHOD, "method", "greedy1d needs n >= 2")
        payload = greedy_max_r_multipacking_1d(pts, r).to_json_dict()
    elif method == "nng":
        payload = max_1_multipacking(pts).to_json_dict()
    elif method == "exact":
        payload = max_2_multipacking_exact(pts, max_nodes=args.budget).to_json_dict()
    elif method == "greedy":
        payload = greedy_2_multipacking(pts).to_json_dict()
    elif method == "fpt":
        if args.k is None or args.k < 1:
            raise CliError(EXIT_METHOD, "method", "fpt needs --k >= 1")
        if args.k > n:
            raise CliError(EXIT_METHOD, "method", f"fpt needs --k <= n={n}, got {args.k}")
        payload = fpt_2_multipacking(pts, args.k, max_nodes=args.budget).to_json_dict()
        if payload["size"] == 0:
            payload = {"found": False, **payload}
    else:  # bruteforce fallback for radii no dedicated solver covers
        payload = bruteforce_max_r_multipacking(pts, r).to_json_dict()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
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


def cmd_bench(args) -> int:
    family = args.family
    trials = args.trials if args.trials is not None else _BENCH_TRIALS[family]
    if trials < 1:
        raise CliError(EXIT_PARSE, "input", f"--trials must be >= 1, got {trials}")
    rows: list[list] = []
    worst_ratio = 0.0

    def wall(value_ms: float) -> str:
        return f"{value_ms:.3f}" if args.timing else ""

    if family == "random1d":
        n_min = args.n_min if args.n_min is not None else 2
        n_max = args.n_max if args.n_max is not None else 12
        if not 2 <= n_min <= n_max:
            raise CliError(EXIT_PARSE, "input", "need 2 <= n-min <= n-max")
        if n_max > ORACLE_MAX_N:
            raise CliError(EXIT_METHOD, "method",
                           f"random1d compares against the oracle; n-max <= {ORACLE_MAX_N}")
        mismatches = 0
        for t in range(trials):
            n = n_min + t % (n_max - n_min + 1)
            seed_t = _scan_seed(args.seed, t)
            pts = random_point_set(n, dim=1, seed=seed_t)
            r = n - 1
            started = time.perf_counter()
            got = greedy_max_r_multipacking_1d(pts, r)
            elapsed = (time.perf_counter() - started) * 1000.0
            opt = bruteforce_max_r_multipacking(pts, r).size
            if got.size != opt:
                mismatches += 1
            ratio = opt / got.size
            worst_ratio = max(worst_ratio, ratio)
            rows.append([
                t, family, n, seed_t, "greedy1d", r, got.size, opt,
                f"{ratio:.6f}", got.stats["checks"], wall(elapsed),
            ])
        summary = f"bench random1d: trials={trials} mismatches={mismatches} worst_ratio={worst_ratio:.6f}"
    elif family == "random2d":
        n_min = args.n_min if args.n_min is not None else 10
        n_max = args.n_max if args.n_max is not None else 60
        if not 3 <= n_min <= n_max:
            raise CliError(EXIT_PARSE, "input", "need 3 <= n-min <= n-max")
        for t in range(trials):
            n = n_min + t % (n_max - n_min + 1)
            seed_t = _scan_seed(args.seed, t)
            pts = random_point_set(n, dim=2, seed=seed_t)
            started = time.perf_counter()
            exact = max_2_multipacking_exact(pts, max_nodes=args.budget)
            exact_ms = (time.perf_counter() - started) * 1000.0
            started = time.perf_counter()
            greedy = greedy_2_multipacking(pts)
            greedy_ms = (time.perf_counter() - started) * 1000.0
            ratio = exact.size / greedy.size
            worst_ratio = max(worst_ratio, ratio)
            rows.append([
                t, family, n, seed_t, "exact", 2, exact.size, exact.size,
                "1.000000", exact.stats["nodes"], wall(exact_ms),
            ])
            rows.append([
                t, family, n, seed_t, "greedy", 2, greedy.size, exact.size,
                f"{ratio:.6f}", greedy.stats["rounds"], wall(greedy_ms),
            ])
        summary = f"bench random2d: trials={trials} worst_ratio={worst_ratio:.6f}"
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
    render_to_file(
        pts, args.out, witness=witness, circles=args.circles,
        width=args.width, height=args.height,
    )
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
    p.add_argument(
        "--method", default="auto",
        choices=["auto", "greedy1d", "nng", "exact", "fpt", "greedy", "bruteforce"],
    )
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
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
