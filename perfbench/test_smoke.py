"""Smoke test of the benchmark itself, on shrunk sizes.

    python -m pytest -q perfbench/test_smoke.py

Checks that each workload emits exactly the metrics BENCHMARK.json names, in
both modes, that the correctness gate trips on a corrupted witness, and that
the percentiles are Harrell-Davis estimates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import multipack as mp  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "exact-r2": {"count": 6, "n_min": 20, "n_max": 30},
    "plane-5k": {"instances": 1, "n": 700},
    "exact-arith": {
        "decimal_n": [12, 20],
        "lower_n": [12],
        "upper_n": [11],
        "oracle_n": [8, 9],
        "scan6_trials": 5,
    },
    "gate": {"oracle_n": [7, 8], "scan6_trials": 3},
}


def _run(tmp_path, workload, trace):
    return run.run(workload, seed=3, seconds=0.01, trace=trace, sizes=SMALL, out=tmp_path)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _, _ in run.PER_LAYER]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(tmp_path, workload, trace):
    result = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        # every layer runs at least in set-up or the gate, so no layer time is exactly zero
        for name, metric in result["metrics"].items():
            if metric["unit"] == "s" and not name.startswith("trace."):
                assert metric["value"] != 0, name
        assert (tmp_path / f"spans-{workload}-seed3-trace1.json").is_file()
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_counts_repeat_for_a_seed(tmp_path):
    first = _run(tmp_path, "exact-r2", True)["metrics"]
    second = _run(tmp_path, "exact-r2", True)["metrics"]
    for name, metric in first.items():
        if metric["unit"] == "count":
            assert metric["value"] == second[name]["value"], name


def _corrupt(solver):
    """Wrap a solver so its witness gains every index it lacks."""

    def wrapped(pts, *args, **kwargs):
        report = solver(pts, *args, **kwargs)
        indices = tuple(range(pts.n))
        return mp.SolveReport(size=len(indices), indices=indices, r=report.r,
                              method=report.method, stats=report.stats)

    return wrapped


@pytest.mark.parametrize("workload,solver", [
    ("exact-r2", "greedy_2_multipacking"),
    ("plane-5k", "max_1_multipacking"),
    ("exact-arith", "greedy_max_r_multipacking_1d"),
])
def test_gate_trips_on_corrupted_witness(tmp_path, monkeypatch, workload, solver):
    monkeypatch.setattr(mp, solver, _corrupt(getattr(mp, solver)))
    result = _run(tmp_path, workload, False)
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_gate_trips_on_a_valid_but_smaller_witness(tmp_path, monkeypatch):
    exact = mp.max_2_multipacking_exact

    def drop_last(pts, *args, **kwargs):
        report = exact(pts, *args, **kwargs)
        indices = report.indices[:-1]
        return mp.SolveReport(size=len(indices), indices=indices, r=2, method="exact", stats=report.stats)

    monkeypatch.setattr(mp, "max_2_multipacking_exact", drop_last)
    assert _run(tmp_path, "exact-arith", False)["correct"] is False


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "exact-r2", "--seed", "1", "--seconds", "1"]) == 2


def test_quantile_is_harrell_davis():
    from scipy.stats.mstats import hdquantiles

    values = [0.01, 0.02, 0.5, 0.7, 0.75, 0.9, 1.4, 2.5, 2.6]
    for p in (0.5, 0.9):
        assert run.quantile(values, p) == pytest.approx(float(hdquantiles(values, prob=[p])[0]))
    assert run.quantile([3.0], 0.9) == 3.0
