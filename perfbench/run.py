#!/usr/bin/env python3
"""Benchmark of multipack: one workload and one seed in, one JSON result line out.

    python3 perfbench/run.py --workload exact-r2 --seed 1 --seconds 25 --trace 0

Run it from a checkout: the library is imported from the checkout's `src/`
directory, and inputs, reports and spans go to `.perfbench/` beside it.  The
load is a closed loop: one single-threaded process runs the workload's fixed
op list back to back, pass after pass, while another whole pass still fits in
`--seconds`.  After the passes a correctness gate compares the solvers with
the brute-force oracle.  Any wrong answer exits 1 and reports no timing.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
pass and one traced pass and prints the per-layer metrics, including the
tracing overhead (traced minus untraced pass time); it takes about twice as
long.  README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("peak_rss_mb", "MiB"),
    ("greedy_vs_exact", "ratio"),
    ("greedy_density", "ratio"),
]

# (metric, unit, source, key): self seconds or calls of a layer's spans, or a named counter
PER_LAYER = [
    ("plane.search_s", "s", "self", "plane.search"),
    ("plane.search_nodes", "count", "count", "plane.search_nodes"),
    ("plane.components", "count", "count", "plane.components"),
    ("plane.largest_component", "count", "max", "plane.largest_component"),
    ("plane.greedy_s", "s", "self", "plane.greedy"),
    ("plane.greedy_rounds", "count", "count", "plane.greedy_rounds"),
    ("plane.greedy_improvements", "count", "count", "plane.greedy_improvements"),
    ("plane.graph_s", "s", "self", "plane.graph"),
    ("plane.graph_edges", "count", "count", "plane.graph_edges"),
    ("plane.forest_s", "s", "self", "plane.forest"),
    ("plane.audit_s", "s", "self", "plane.audit"),
    ("geometry.rank_s", "s", "self", "geometry.rank"),
    ("geometry.rank_calls", "count", "calls", "geometry.rank"),
    ("geometry.table_s", "s", "self", "geometry.table"),
    ("multipacking.check_s", "s", "self", "multipacking.check"),
    ("multipacking.check_calls", "count", "calls", "multipacking.check"),
    ("line.greedy1d_s", "s", "self", "line.greedy1d"),
    ("line.checks", "count", "count", "line.checks"),
    ("multipacking.oracle_s", "s", "self", "multipacking.oracle"),
    ("multipacking.oracle_subsets", "count", "count", "multipacking.oracle_subsets"),
    ("instances.scan6_s", "s", "self", "instances.scan6"),
    ("instances.scan6_trials", "count", "count", "instances.scan6_trials"),
    ("geometry.load_s", "s", "self", "geometry.load"),
    ("geometry.points_loaded", "count", "count", "geometry.points_loaded"),
    ("instances.gen_s", "s", "self", "instances.gen"),
    ("trace.wall_s", "s", "run", "traced_wall"),
    ("trace.overhead_s", "s", "run", "overhead"),
]


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_pass(ops, tr, quality: Counter, failures: list) -> list[float]:
    """Run every op once, back to back; return each op's latency in seconds."""
    from workloads import WrongAnswer

    latencies = []
    pass_span = tr.structural("pass")
    for i, (kind, op) in enumerate(ops):
        tr.op = i
        op_span = tr.structural("op")
        start = time.perf_counter()
        ok = True
        try:
            op(tr, quality)
        except WrongAnswer:
            raise
        except Exception as exc:  # a failed op (node budget, tie, library error); the run goes on
            ok = False
            failures.append(f"op {i} ({kind}): {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        tr.close(op_span, kind=kind, latency=latency, ok=ok)
        if tr.enabled:
            tr.settle()
        latencies.append(latency)
    tr.close(pass_span)
    tr.op = None
    return latencies


def run_gate(gate, tr, quality: Counter) -> None:
    """Every gate op must pass; an op that raises is a wrong answer here."""
    from workloads import WrongAnswer

    for i, op in enumerate(gate):
        tr.op = i
        try:
            op(tr, quality)
        except WrongAnswer:
            raise
        except Exception as exc:
            raise WrongAnswer(f"gate op {i} raised {type(exc).__name__}: {exc}") from exc
        if tr.enabled:
            tr.settle()


def host_probe() -> float:
    """Median time of a fixed pure-Python loop: a record of host speed, not a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile (0 < p < 1).

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution.  Unlike a single order statistic
    it moves smoothly when a few latencies cross the quantile, as they do
    when host speed changes for part of a run.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        import_s: float = 0.0, out: Path = OUT) -> dict:
    """Set up, measure and check one workload; return the result object."""
    import workloads
    from spans import Tracer

    tr = Tracer()
    workdir = out / f"inputs-{workload}-{seed}"
    failures: list[str] = []
    attempted = 0
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            start = time.perf_counter()
            tr.enabled = trace and rep == SETUP_REPEATS - 1
            plan = workloads.setup(workload, seed, workdir, tr, sizes)
            tr.enabled = False
            for op in plan.warmup:
                op(tr, Counter())
            setup_times.append(time.perf_counter() - start)

        quality: Counter = Counter()
        passes: list[list[float]] = []
        probes = [host_probe()]
        measure_start = time.perf_counter()
        while True:
            latencies = run_pass(plan.ops, tr, quality if not passes else Counter(), failures)
            passes.append(latencies)
            attempted += len(latencies)
            elapsed = time.perf_counter() - measure_start
            if trace or elapsed + sum(latencies) > seconds:
                break
        probes.append(host_probe())
        untraced_wall = statistics.median(sum(p) for p in passes)
        traced_wall = None
        if trace:
            tr.enabled, tr.phase = True, "pass"
            traced = run_pass(plan.ops, tr, Counter(), failures)
            attempted += len(traced)
            traced_wall = sum(traced)
        tr.phase = "gate"
        run_gate(plan.gate, tr, quality)
    except workloads.WrongAnswer as exc:
        note(f"perfbench: WRONG ANSWER in {workload} (seed {seed}): {exc}")
        return {"correct": False, "attempted": max(attempted, 1), "failed": len(failures), "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pooled = [x for p in passes for x in p]
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": untraced_wall,
        "op_s.p50": quantile(pooled, 0.5),
        "op_s.p90": quantile(pooled, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "greedy_vs_exact": quality["greedy2_vs_exact"] / quality["exact2"],
        "greedy_density": quality["greedy2"] / quality["greedy2_n"],
    }
    if trace:
        run_values = {"traced_wall": traced_wall, "overhead": traced_wall - untraced_wall}
        sources = {"self": tr.self_s, "calls": tr.calls, "count": tr.counts, "max": tr.maxima, "run": run_values}
        metrics = {name: {"value": sources[src].get(key, 0), "unit": unit} for name, unit, src, key in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    descriptors = workloads.describe(plan)
    note(f"perfbench {workload} seed={seed} trace={int(trace)}: {len(plan.ops)} ops per pass, "
         f"{len(passes)} untraced pass(es), {attempted} ops attempted, "
         f"{len(failures)} failed (fail_frac {len(failures) / attempted:.4f}); "
         f"host probe {probes[0] * 1000:.2f} ms before, {probes[1] * 1000:.2f} ms after")
    note(f"  inputs: {json.dumps(descriptors)}")
    for name, unit in END_TO_END:
        note(f"  {name:<16} {values[name]:.6g} {unit}")
    for line in failures[:5]:
        note(f"  failed: {line}")
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    report = {
        "workload": workload, "seed": seed, "trace": trace, "descriptors": descriptors,
        "end_to_end": values, "per_layer": metrics if trace else None,
        "pass_walls": [sum(p) for p in passes], "setup_times": setup_times, "import_s": import_s,
        "host_probe_s": probes,
        "op_latencies": [[kind for kind, _ in plan.ops], passes], "failures": failures,
    }
    (out / f"report-{tag}.json").write_text(json.dumps(report) + "\n")
    if trace:
        (out / f"spans-{tag}.json").write_text(json.dumps(tr.spans) + "\n")
        note(f"  spans: {out / f'spans-{tag}.json'} ({len(tr.spans)} spans), "
             f"tracing overhead {traced_wall - untraced_wall:+.3f} s on {untraced_wall:.3f} s")
    return {"correct": True, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["exact-r2", "plane-5k", "exact-arith"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multipack" / "__init__.py").is_file():
        note(f"perfbench: no multipack sources at {SRC / 'multipack'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import multipack
    import scipy.spatial  # noqa: F401  (the k-d tree path imports it lazily on first use)
    import_s = time.perf_counter() - start
    if Path(multipack.__file__).resolve().parent != SRC / "multipack":
        note(f"perfbench: imported multipack from {multipack.__file__}, not from {SRC}")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
