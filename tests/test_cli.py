import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multipack
from multipack import (
    lower_family_1d,
    pentagon_five,
    random_point_set,
    save_points_csv,
    upper_family_1d,
)
from multipack.cli import main

QUAD_CSV = "x,y\n0,0\n1,0\n3,0\n7,0\n"


@pytest.fixture
def lower6(tmp_path):
    path = tmp_path / "lower6.csv"
    save_points_csv(lower_family_1d(6), path)
    return str(path)


@pytest.fixture
def quad(tmp_path):
    path = tmp_path / "quad.csv"
    path.write_text(QUAD_CSV)
    return str(path)


@pytest.fixture
def pentagon(tmp_path):
    path = tmp_path / "pentagon.csv"
    save_points_csv(pentagon_five(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_greedy1d(lower6, capsys):
    code, out, _ = run(capsys, "solve", "--input", lower6, "--r", "full", "--method", "greedy1d")
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 2
    assert report["indices"] == [0, 3]
    assert report["method"] == "greedy1d"


def test_solve_auto_picks_by_dim_and_r(lower6, quad, capsys):
    code, out, _ = run(capsys, "solve", "--input", lower6)
    assert code == 0 and json.loads(out)["method"] == "greedy1d"
    code, out, _ = run(capsys, "solve", "--input", quad, "--r", "1")
    assert code == 0 and json.loads(out)["method"] == "nng"
    code, out, _ = run(capsys, "solve", "--input", quad, "--r", "2")
    assert code == 0 and json.loads(out)["method"] == "exact"
    code, out, _ = run(capsys, "solve", "--input", quad, "--r", "3")
    assert code == 0 and json.loads(out)["method"] == "bruteforce"


def test_solve_fpt_quad(quad, capsys):
    code, out, _ = run(capsys, "solve", "--input", quad, "--r", "2", "--method", "fpt", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 2
    assert report["stats"].keys() == {"nodes"}
    assert report["stats"]["nodes"] <= 18**2


def test_solve_fpt_report_serialises_for_a_large_k(tmp_path, capsys):
    path = tmp_path / "big.csv"
    save_points_csv(random_point_set(3430, seed=2, audit="none"), path)
    code, out, _ = run(capsys, "solve", "--input", str(path), "--r", "2",
                       "--method", "fpt", "--k", "3426")
    assert code == 0
    report = json.loads(out)
    assert report["found"] is False and report["size"] == 0
    assert report["stats"] == {"nodes": 1}


def test_solve_fpt_miss_reports_found_false(pentagon, capsys):
    code, out, _ = run(capsys, "solve", "--input", pentagon, "--r", "2",
                       "--method", "fpt", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["found"] is False
    assert report["indices"] == []


@pytest.mark.parametrize("method, extra", [("exact", ()), ("fpt", ("--k", "2"))])
def test_solve_negative_budget_is_malformed_input(quad, capsys, method, extra):
    argv = ("solve", "--input", quad, "--r", "2", "--method", method, *extra)
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--budget must be >= 0, got -1", "kind": "input"}
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code == 4 and json.loads(err) == {"error": "search exceeded 0 nodes", "kind": "budget"}


def test_solve_pentagon_nng(pentagon, capsys):
    code, out, _ = run(capsys, "solve", "--input", pentagon, "--r", "1", "--method", "nng")
    assert code == 0
    assert json.loads(out)["size"] == 3


def test_solve_out_flag_writes_file(lower6, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", lower6, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["size"] == 2


def test_solve_error_codes(lower6, quad, tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--input", str(tmp_path / "missing.csv"))
    assert code == 2 and json.loads(err)["kind"] == "input"
    code, _, err = run(capsys, "solve", "--input", lower6, "--r", "oops")
    assert code == 2
    code, _, err = run(capsys, "solve", "--input", lower6, "--r", "9")
    assert code == 3
    code, _, err = run(capsys, "solve", "--input", quad, "--r", "2", "--method", "greedy1d")
    assert code == 3
    code, _, err = run(capsys, "solve", "--input", quad, "--r", "2", "--method", "fpt")
    assert code == 3
    for method, r, radius in (("nng", "2", 1), ("exact", "1", 2), ("greedy", "1", 2), ("fpt", "3", 2)):
        code, out, err = run(capsys, "solve", "--input", quad, "--r", r, "--method", method, "--k", "9")
        assert (code, out) == (3, "")
        assert err == json.dumps({"error": f"{method} solves r={radius} only, got r={r}", "kind": "method"}) + "\n"
    p25 = tmp_path / "p25.csv"
    save_points_csv(random_point_set(25, seed=25), p25)
    code, _, err = run(capsys, "solve", "--input", str(p25), "--r", "3")
    assert code == 4 and json.loads(err) == {"error": "n=25 exceeds brute-force limit 24", "kind": "budget"}


def test_solve_oracle_size_limit_exits_4(tmp_path, capsys):
    """Past the oracle's size limit solve exits 4 before the 2^n scan allocates."""
    path = tmp_path / "p34.csv"
    save_points_csv(random_point_set(34, seed=34), path)
    for method in ("auto", "bruteforce"):
        code, out, err = run(capsys, "solve", "--input", str(path), "--r", "3", "--method", method)
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": "n=34 exceeds brute-force limit 24", "kind": "budget"}


def test_solve_r3_on_twenty_points_is_checked(tmp_path, capsys):
    """auto takes the oracle for r >= 3 up to its limit, and check accepts the witness."""
    path = tmp_path / "p20.csv"
    save_points_csv(random_point_set(20, seed=20), path)
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "--input", str(path), "--r", "3", "--out", str(witness))
    assert code == 0
    report = json.loads(witness.read_text())
    assert report["method"] == "bruteforce" and report["stats"] == {"subsets": 2**20}
    code, out, _ = run(capsys, "check", "--input", str(path), "--set", str(witness))
    assert code == 0
    assert json.loads(out) == {"valid": True, "r": 3, "size": report["size"]}


def test_solve_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,two\n")
    code, _, err = run(capsys, "solve", "--input", str(bad))
    assert code == 2


def test_solve_refuses_a_field_past_the_csv_limit(tmp_path, capsys):
    """A field longer than `csv.field_size_limit()` is a parse error naming the file and line."""
    bad = tmp_path / "long_field.csv"
    bad.write_text('x,y\n1,"' + "a" * 200_000 + '"\n3,4\n')
    code, out, err = run(capsys, "solve", "--input", str(bad), "--r", "1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{bad}:2: field larger than field limit (131072)", "kind": "parse"}


def test_solve_then_check_round_trip(lower6, tmp_path, capsys):
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "--input", lower6, "--out", str(witness))
    assert code == 0
    code, out, _ = run(capsys, "check", "--input", lower6, "--set", str(witness))
    assert code == 0
    assert json.loads(out) == {"valid": True, "r": 5, "size": 2}


def test_check_accepts_what_solve_accepts(tmp_path, capsys):
    # point 0 has a tie at ranks 4 and 5, past the 3 distances radius 2 reads
    points = tmp_path / "far_tie.csv"
    points.write_text("x,y\n0,0\n1,0\n0,2\n0,3\n10,0\n0,10\n")
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "--input", str(points), "--r", "2", "--out", str(witness))
    assert code == 0
    assert json.loads(witness.read_text())["indices"] == [0, 5]
    code, out, _ = run(capsys, "check", "--input", str(points), "--set", str(witness))
    assert code == 0
    assert json.loads(out) == {"valid": True, "r": 2, "size": 2}


def test_check_reads_the_ranked_array(lower6, tmp_path, capsys, monkeypatch):
    # the checker reads nearest_order's array: no per-point tuples are built
    def refuse(*args):
        raise AssertionError("check built nearest_profile tuples")

    monkeypatch.setattr(multipack.geometry, "nearest_profile", refuse)
    monkeypatch.setattr(multipack.cli, "nearest_profile", refuse, raising=False)
    witness = tmp_path / "witness.json"
    witness.write_text('{"indices": [0, 3], "r": 5}')
    code, out, err = run(capsys, "check", "--input", lower6, "--set", str(witness))
    assert (code, out, err) == (0, '{"valid":true,"r":5,"size":2}\n', "check: valid (2 members, r=5)\n")


def test_check_invalid_witness(quad, tmp_path, capsys):
    witness = tmp_path / "pair.json"
    witness.write_text('{"indices": [0, 1], "r": 1}')
    code, out, _ = run(capsys, "check", "--input", quad, "--set", str(witness))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violation"]["s"] == 1


def test_check_empty_set_is_valid(quad, tmp_path, capsys):
    witness = tmp_path / "empty.json"
    witness.write_text('{"indices": [], "r": 2}')
    code, out, _ = run(capsys, "check", "--input", quad, "--set", str(witness))
    assert code == 0
    assert json.loads(out)["size"] == 0


def test_check_r_override_and_missing_r(quad, tmp_path, capsys):
    witness = tmp_path / "no_r.json"
    witness.write_text('{"indices": [0, 3]}')
    code, _, _ = run(capsys, "check", "--input", quad, "--set", str(witness))
    assert code == 2
    code, out, _ = run(capsys, "check", "--input", quad, "--set", str(witness), "--r", "full")
    assert code == 0
    assert json.loads(out)["r"] == 3


def test_check_index_out_of_range(quad, tmp_path, capsys):
    witness = tmp_path / "oob.json"
    witness.write_text('{"indices": [0, 11], "r": 2}')
    code, _, err = run(capsys, "check", "--input", quad, "--set", str(witness))
    assert code == 2


def _assert_check_and_render_reject(capsys, points, witness, tmp_path, error):
    for extra in ((), ("--out", str(tmp_path / "x.svg"))):
        command = "render" if extra else "check"
        code, out, err = run(capsys, command, "--input", points, "--set", str(witness), *extra)
        assert code == 2 and out == ""
        assert err == json.dumps({"error": f"{witness}: {error}", "kind": "input"}) + "\n"


def test_check_rejects_duplicate_indices(tmp_path, capsys):
    points = str(tmp_path / "rand40.csv")
    run(capsys, "gen", "--family", "random", "--n", "40", "--seed", "5", "--out", points)
    witness = tmp_path / "dup.json"
    witness.write_text('{"indices": [1, 1, 2], "r": 2}')
    _assert_check_and_render_reject(capsys, points, witness, tmp_path, "'indices' repeats an index")
    witness.write_text("[1, 2]")
    _assert_check_and_render_reject(capsys, points, witness, tmp_path, "expected an object with 'indices'")


def test_check_rejects_a_size_the_indices_do_not_have(tmp_path, capsys):
    points = str(tmp_path / "rand40.csv")
    run(capsys, "gen", "--family", "random", "--n", "40", "--seed", "5", "--out", points)
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "--input", points, "--r", "2", "--out", str(witness))
    assert code == 0
    report = json.loads(witness.read_text())
    assert report["size"] == len(report["indices"]) == 16
    witness.write_text(json.dumps({**report, "size": 21}))
    _assert_check_and_render_reject(capsys, points, witness, tmp_path, "'size' is 21 but 'indices' holds 16")


def test_gen_upper1d_values(tmp_path, capsys):
    out = tmp_path / "upper7.csv"
    code, _, _ = run(capsys, "gen", "--family", "upper1d", "--n", "7", "--out", str(out))
    assert code == 0
    assert out.read_text() == "x\n0\n6\n9\n33\n54\n150\n243\n"


def test_gen_unscaled_upper1d(tmp_path, capsys):
    out = tmp_path / "upper6u.csv"
    code, _, _ = run(capsys, "gen", "--family", "upper1d", "--n", "6",
                     "--unscaled", "--out", str(out))
    assert code == 0
    assert out.read_text() == "x\n0\n2\n3\n11\n18\n50\n"


def test_gen_pentagon_matches_packaged_fixture(tmp_path, capsys):
    from multipack.instances import _fixture_path

    out = tmp_path / "pent.csv"
    code, _, _ = run(capsys, "gen", "--family", "pentagon", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == _fixture_path("pentagon5.csv").read_bytes()


def test_gen_square4_matches_packaged_fixture(tmp_path, capsys):
    from multipack.instances import _fixture_path

    out = tmp_path / "square4.csv"
    code, _, _ = run(capsys, "gen", "--family", "square4", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == _fixture_path("square4.csv").read_bytes()


def test_gen_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(capsys, "gen", "--family", "random", "--n", "50",
                         "--seed", "9", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_n_for_sized_families(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--family", "lower1d", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_gen_random_without_general_position_exits_2(tmp_path, capsys):
    # on a 10^6 grid, 400 points on a line always hold an equidistant triple
    out = tmp_path / "line.csv"
    code, stdout, err = run(capsys, "gen", "--family", "random", "--dim", "1", "--n", "400",
                            "--grid", "1000000", "--out", str(out))
    assert code == 2
    assert stdout == "" and not out.exists()
    report = json.loads(err)
    assert report["kind"] == "input" and "no valid draw" in report["error"]


def test_audit_degree_pentagon(pentagon, tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    code, out, _ = run(capsys, "audit-degree", "--input", pentagon,
                       "--dump-edges", str(edges))
    assert code == 0
    report = json.loads(out)
    assert report["max_degree"] == 4
    assert report["within_bound"] is True
    assert edges.read_text().count("\n") == 10


def test_audit_degree_triangle(tmp_path, capsys):
    path = tmp_path / "three.csv"
    save_points_csv(random_point_set(3, dim=2, seed=4), path)
    code, out, _ = run(capsys, "audit-degree", "--input", str(path))
    assert code == 0
    assert json.loads(out)["max_degree"] == 2


def test_bench_random1d(tmp_path, capsys):
    report = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", "--family", "random1d", "--trials", "10",
                       "--no-timing", "--report", str(report))
    assert code == 0
    assert "mismatches=0" in err
    lines = report.read_text().splitlines()
    assert lines[0] == "instance,family,n,seed,method,r,size,optimum,ratio,nodes,wall_ms"
    assert len(lines) == 11
    assert all(line.endswith(",") for line in lines[1:])


def test_bench_random2d_ratios(tmp_path, capsys):
    report = tmp_path / "bench2.csv"
    code, _, err = run(capsys, "bench", "--family", "random2d", "--trials", "4",
                       "--n-min", "10", "--n-max", "20", "--no-timing",
                       "--report", str(report))
    assert code == 0
    rows = report.read_text().splitlines()[1:]
    assert len(rows) == 8
    ratios = [float(row.split(",")[8]) for row in rows]
    assert all(1.0 <= ratio <= 4.0 for ratio in ratios)


def test_bench_scan6(tmp_path, capsys):
    report = tmp_path / "scan.csv"
    code, _, err = run(capsys, "bench", "--family", "scan6", "--trials", "15",
                       "--no-timing", "--report", str(report))
    assert code == 0
    assert "counterexamples=0" in err
    assert len(report.read_text().splitlines()) == 16


# SHA-1 of the scan6 CSV per (trials, seed), recorded with the earlier per-trial scan
_SCAN6_CSV_DIGESTS = {
    ("1000", "0"): "f18f74e6ec27eeffa0ac9f8760e703b3f350bb49",
    ("15", "7"): "fb03b820d3d628be02edb51d28d6f51fa11783a4",
}


@pytest.mark.parametrize(("trials", "seed"), _SCAN6_CSV_DIGESTS)
def test_bench_scan6_bytes_are_pinned(tmp_path, capsys, trials, seed):
    report = tmp_path / "scan.csv"
    code, out, err = run(capsys, "bench", "--family", "scan6", "--trials", trials, "--seed", seed,
                         "--no-timing", "--report", str(report))
    assert code == 0 and out == ""
    assert err == f"bench scan6: trials={trials} min_mp=2 counterexamples=0\n"
    assert hashlib.sha1(report.read_bytes()).hexdigest() == _SCAN6_CSV_DIGESTS[trials, seed]


def test_bench_deterministic_without_timing(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for report in (a, b):
        code, _, _ = run(capsys, "bench", "--family", "random1d", "--trials", "8",
                         "--no-timing", "--report", str(report))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_rejects_oversized_oracle_range(tmp_path, capsys):
    code, _, _ = run(capsys, "bench", "--family", "random1d", "--n-max", "25",
                     "--report", str(tmp_path / "x.csv"))
    assert code == 3


@pytest.mark.parametrize("family", ["random1d", "random2d", "scan6"])
def test_bench_rejects_nonpositive_trials(tmp_path, capsys, family):
    report = tmp_path / "x.csv"
    for trials in ("0", "-3"):
        code, _, err = run(capsys, "bench", "--family", family, "--trials", trials,
                           "--report", str(report))
        assert code == 2
        assert json.loads(err)["kind"] == "input"
    assert not report.exists()


def test_bench_negative_budget_is_malformed_input(tmp_path, capsys):
    report = tmp_path / "x.csv"
    argv = ("bench", "--family", "random2d", "--trials", "2", "--report", str(report))
    code, _, err = run(capsys, *argv, "--budget", "-1")
    assert code == 2
    assert json.loads(err) == {"error": "--budget must be >= 0, got -1", "kind": "input"}
    assert not report.exists()
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code == 4 and json.loads(err) == {"error": "search exceeded 0 nodes", "kind": "budget"}


def test_render_writes_svg(pentagon, tmp_path, capsys):
    witness = tmp_path / "w.json"
    witness.write_text('{"indices": [2], "r": 4}')
    out = tmp_path / "pent.svg"
    code, _, _ = run(capsys, "render", "--input", pentagon, "--set", str(witness),
                     "--circles", "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert svg.count("<circle") == 10
    assert svg.count('fill="#c53030"') == 1


@pytest.mark.parametrize("flag", ["--width", "--height"])
def test_render_canvas_is_fixed(pentagon, tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--input", pentagon, flag, "800", "--out", str(tmp_path / "x.svg")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 800" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_render_rejects_out_of_range_witness(pentagon, tmp_path, capsys):
    witness = tmp_path / "w.json"
    witness.write_text('{"indices": [7], "r": 2}')
    code, out, err = run(capsys, "render", "--input", pentagon, "--set", str(witness),
                         "--out", str(tmp_path / "x.svg"))
    assert code == 2 and out == ""
    assert err == '{"error": "witness index 7 out of range", "kind": "input"}\n'


def test_render_circles_reject_a_tie_grid(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("x,y\n" + "".join(f"{x},{y}\n" for x in range(3) for y in range(3)))
    code, out, err = run(capsys, "render", "--input", str(grid), "--circles",
                         "--out", str(tmp_path / "x.svg"))
    assert code == 2 and out == ""
    assert err == '{"error": "points 1 and 3 are equidistant from point 0", "kind": "input"}\n'


def test_upper_family_csv_loads_back(tmp_path, capsys):
    out = tmp_path / "upper9.csv"
    run(capsys, "gen", "--family", "upper1d", "--n", "9", "--out", str(out))
    from multipack import load_points

    assert load_points(out).points == upper_family_1d(9).points


@pytest.mark.parametrize("points", ["null", "5"])
def test_json_points_that_are_not_a_list_exit_2(tmp_path, capsys, points):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dim": 2, "points": {points}}}')
    witness = tmp_path / "witness.json"
    witness.write_text('{"indices": [0], "r": 1}')
    for extra in ((), ("--set", str(witness))):
        command = "check" if extra else "solve"
        code, out, err = run(capsys, command, "--input", str(path), *extra)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "parse"


@pytest.mark.parametrize("token", ["1e9999999", "-1e9999999", "1e-9999999", "9e99999999"])
def test_huge_exponent_exits_2(tmp_path, capsys, token):
    """An exponent above the int digit limit is a parse error, not a 10^exp computation."""
    csv_path, json_path = tmp_path / "big.csv", tmp_path / "big.json"
    csv_path.write_text(f"x,y\n{token},0\n1,2\n")
    json_path.write_text(f'{{"dim": 2, "points": [[{token}, 0], [1, 2]]}}')
    witness = tmp_path / "witness.json"
    witness.write_text('{"indices": [0], "r": 1}')
    for path in (csv_path, json_path):
        for extra in ((), ("--set", str(witness))):
            command = "check" if extra else "solve"
            code, out, err = run(capsys, command, "--input", str(path), "--r", "1", *extra)
            assert code == 2 and out == ""
            error = f"bad coordinate {token!r}: exponent above {sys.get_int_max_str_digits()}"
            assert json.loads(err) == {"error": error, "kind": "parse"}


def test_json_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    """A JSON integer too long for int() is a parse error naming the points file, and an input
    error naming the witness file, as the same token in a CSV is a parse error."""
    digits = "5" * (sys.get_int_max_str_digits() + 1)
    points, line = tmp_path / "long.json", tmp_path / "line.json"
    points.write_text(f'{{"dim": 1, "points": [[{digits}], [2]]}}')
    line.write_text('{"dim": 1, "points": [[0], [2], [7]]}')
    witness, long_witness = tmp_path / "witness.json", tmp_path / "long_witness.json"
    witness.write_text('{"indices": [0], "r": 1}')
    long_witness.write_text(f'{{"indices": [0], "r": {digits}}}')
    for argv, kind, named in (
        (("solve", "--input", str(points), "--r", "1"), "parse", points),
        (("check", "--input", str(points), "--set", str(witness)), "parse", points),
        (("check", "--input", str(line), "--set", str(long_witness)), "input", long_witness),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        report = json.loads(err)
        assert report["kind"] == kind and report["error"].startswith(f"{named}: "), argv


@pytest.mark.parametrize("dim", ["true", "false"])
def test_json_bool_dim_exits_2(tmp_path, capsys, dim):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dim": {dim}, "points": [[1], [4], [9]]}}')
    witness = tmp_path / "witness.json"
    witness.write_text('{"indices": [0], "r": 1}')
    for extra in ((), ("--set", str(witness))):
        command = "check" if extra else "solve"
        code, out, err = run(capsys, command, "--input", str(path), *extra)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "parse"


@pytest.mark.parametrize("k", ["31", "4000"])
def test_solve_fpt_k_above_n_exits_3(tmp_path, capsys, k):
    path = tmp_path / "thirty.csv"
    save_points_csv(random_point_set(30, seed=3), path)
    code, out, err = run(capsys, "solve", "--input", str(path), "--r", "2", "--method", "fpt", "--k", k)
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "method"
    code, out, _ = run(capsys, "solve", "--input", str(path), "--r", "2", "--method", "fpt", "--k", "30")
    assert code == 0 and json.loads(out)["found"] is False


@pytest.mark.parametrize("text", ["x\n5\n", "x,y\n5,7\n"], ids=["1d", "2d"])
def test_one_point_solve_then_check(tmp_path, capsys, text):
    points = tmp_path / "one.csv"
    points.write_text(text)
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "--input", str(points), "--out", str(witness))
    assert code == 0
    assert json.loads(witness.read_text())["indices"] == [0]
    code, out, _ = run(capsys, "check", "--input", str(points), "--set", str(witness))
    assert code == 0
    assert json.loads(out) == {"valid": True, "r": 1, "size": 1}


@pytest.mark.parametrize("text", ["x\n5\n", "x,y\n5,7\n"], ids=["1d", "2d"])
@pytest.mark.parametrize("method", ["exact", "greedy", "fpt"])
def test_one_point_r2_methods_exit_3(tmp_path, capsys, method, text):
    points = tmp_path / "one.csv"
    points.write_text(text)
    code, out, err = run(capsys, "solve", "--input", str(points), "--r", "2", "--method", method, "--k", "1")
    assert (code, out) == (3, "")
    assert err == json.dumps({"error": f"{method} needs n >= 3", "kind": "method"}) + "\n"


@pytest.mark.parametrize("text, error", [
    ("x,y\n5,7\n", "greedy1d needs 1D input"),
], ids=["2d"])
def test_one_point_greedy1d_exits_3(tmp_path, capsys, text, error):
    points = tmp_path / "one.csv"
    points.write_text(text)
    code, out, err = run(capsys, "solve", "--input", str(points), "--r", "1", "--method", "greedy1d")
    assert (code, out) == (3, "")
    assert err == json.dumps({"error": error, "kind": "method"}) + "\n"


@pytest.mark.parametrize("r", ["1", "3", "full"])
def test_one_point_greedy1d_solves_then_check(tmp_path, capsys, r):
    points = tmp_path / "one.csv"
    points.write_text("x\n5\n")
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "--input", str(points), "--r", r, "--method", "greedy1d", "--out", str(witness))
    radius = 1 if r == "full" else int(r)
    assert code == 0
    assert json.loads(witness.read_text()) == {
        "size": 1, "indices": [0], "r": radius, "method": "greedy1d", "stats": {"checks": 1},
    }
    code, out, _ = run(capsys, "check", "--input", str(points), "--set", str(witness))
    assert code == 0
    assert json.loads(out) == {"valid": True, "r": radius, "size": 1}


def test_solve_lists_its_methods_in_order(quad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", quad, "--method", "bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --method: invalid choice: 'bogus' (choose from " in err
    listed = err.rsplit("(choose from ", 1)[1].split(")", 1)[0]
    # newer Pythons drop the quotes around each choice
    assert listed.replace("'", "").split(", ") == [
        "auto", "greedy1d", "nng", "exact", "fpt", "greedy", "bruteforce",
    ]


def _solve_imports_scipy(tmp_path, pts, *args) -> bool:
    """Whether a CLI solve of pts with args, in a fresh interpreter, imports scipy."""
    points = tmp_path / "points.csv"
    save_points_csv(pts, points)
    argv = ["solve", "--input", str(points), *args, "--out", str(tmp_path / "w.json")]
    script = (
        "import sys, multipack, multipack.cli\n"
        f"assert multipack.cli.main({argv!r}) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(multipack.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    return done.stdout == "True\n"


def test_cli_leaves_scipy_unimported_on_a_line(tmp_path):
    """scipy.spatial costs about half a second to import, so a 1D solve must not pull it in."""
    assert not _solve_imports_scipy(tmp_path, lower_family_1d(12))


@pytest.mark.parametrize("r", ["1", "2"])
def test_cli_leaves_scipy_unimported_on_a_small_plane(tmp_path, r):
    """A planar set of at most 100 points ranks whole rows, with no k-d tree to import."""
    assert not _solve_imports_scipy(tmp_path, random_point_set(9, dim=2, seed=1), "--r", r)


_ODD_INPUTS = {
    "null.json": "null",
    "list.json": "[]",
    "number.json": "5",
    "no_dim.json": '{"points": [[1, 2]]}',
    "points_null.json": '{"dim": 2, "points": null}',
    "points_number.json": '{"dim": 2, "points": 5}',
    "points_text.json": '{"dim": 2, "points": "ab"}',
    "points_object.json": '{"dim": 2, "points": {"a": 1}}',
    "no_points.json": '{"dim": 2, "points": []}',
    "short_point.json": '{"dim": 2, "points": [[1]]}',
    "duplicate.json": '{"dim": 2, "points": [[1, 2], [1, 2]]}',
    "dim3.json": '{"dim": 3, "points": [[1, 2, 3]]}',
    "dim_true.json": '{"dim": true, "points": [[1], [4], [9]]}',
    "nan.json": '{"dim": 1, "points": [[NaN], [1]]}',
    "word.json": '{"dim": 1, "points": [["x"], [1]]}',
    "one_1d.csv": "x\n5\n",
    "one_2d.csv": "x,y\n5,7\n",
    "two_1d.csv": "x\n0\n3\n",
    "two_2d.csv": "x,y\n0,0\n3,4\n",
    "tie_grid.csv": "x,y\n" + "".join(f"{x},{y}\n" for x in range(4) for y in range(4)),
}
_ODD_WITNESSES = [
    '{"indices": [0], "r": 1}',
    '{"indices": [0, 1], "r": 1}',
    "null",
    '{"indices": null, "r": 1}',
    '{"indices": [0.5], "r": 1}',
]


def test_cli_never_shows_a_traceback(tmp_path, capsys):
    """Every subcommand on odd inputs exits 0, 2, 3 or 4; exit 1 only marks an invalid witness."""
    inputs = []
    for name, text in _ODD_INPUTS.items():
        inputs.append(tmp_path / name)
        inputs[-1].write_text(text)
    inputs.append(tmp_path / "span40.csv")
    save_points_csv(random_point_set(40, seed=40, grid=2**40), inputs[-1])
    inputs.append(tmp_path / "p34.csv")
    save_points_csv(random_point_set(34, seed=34), inputs[-1])
    witnesses = []
    for i, text in enumerate(_ODD_WITNESSES):
        witnesses.append(tmp_path / f"witness{i}.json")
        witnesses[-1].write_text(text)
    svg = str(tmp_path / "out.svg")
    calls = [
        ("gen", "--family", family, "--n", n, "--dim", dim, "--out", str(tmp_path / "gen.csv"))
        for family in ("lower1d", "upper1d", "random") for n in ("-1", "0", "1", "2") for dim in ("1", "2")
    ]
    calls += [
        ("bench", "--family", family, "--n-min", lo, "--n-max", "3", "--trials", "2",
         "--report", str(tmp_path / "bench.csv"))
        for family in ("random1d", "random2d") for lo in ("1", "2", "3")
    ]
    calls += [("solve", "--input", str(inputs[-1]), "--r", "3")]
    for i, path in enumerate(map(str, inputs)):
        solved = tmp_path / f"solved{i}.json"
        calls += [("solve", "--input", path, "--r", r) for r in ("full", "1", "2")]
        calls += [
            ("solve", "--input", path, "--r", "2", "--method", method, "--k", "1")
            for method in ("greedy1d", "nng", "exact", "fpt", "greedy", "bruteforce")
        ]
        calls += [("solve", "--input", path, "--out", str(solved))]
        calls += [("check", "--input", path, "--set", str(w)) for w in (*witnesses, solved)]
        calls += [
            ("audit-degree", "--input", path),
            ("render", "--input", path, "--out", svg),
            ("render", "--input", path, "--set", str(witnesses[0]), "--circles", "--out", svg),
        ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert "Traceback" not in err, argv
        if code == 1:
            assert argv[0] == "check" and json.loads(out)["valid"] is False, argv
        else:
            assert code in (0, 2, 3, 4), argv


def _battery_inputs(tmp_path):
    """The point files of the byte battery: random sets on a line and in the plane, both line
    families, the pentagon and a 4 x 4 tie grid."""
    sets = {f"random{dim}d_{n}": random_point_set(n, dim=dim, seed=n)
            for dim in (1, 2) for n in (1, 2, 3, 4, 9, 20, 25, 40, 120)}
    sets.update({f"{name}_{n}": family(n) for name, family in (("lower", lower_family_1d), ("upper", upper_family_1d))
                 for n in (9, 20)})
    sets["pentagon"] = pentagon_five()
    paths = {}
    for name, pts in sets.items():
        paths[name] = tmp_path / f"{name}.csv"
        save_points_csv(pts, paths[name])
    paths["tie_grid"] = tmp_path / "tie_grid.csv"
    paths["tie_grid"].write_text("x,y\n" + "".join(f"{x},{y}\n" for x in range(4) for y in range(4)))
    return {name: str(path) for name, path in paths.items()}


def _battery_calls(tmp_path):
    inputs = _battery_inputs(tmp_path)
    out = str(tmp_path / "out.json")
    calls = []
    for path in inputs.values():
        for method in ("auto", "greedy1d", "nng", "exact", "fpt", "greedy", "bruteforce"):
            for r in ("full", "0", "1", "2", "3", "x"):
                for k in ((None, "0", "1", "5", "500") if method == "fpt" else (None,)):
                    calls.append(("solve", "--input", path, "--r", r, "--method", method,
                                  *(("--k", k) if k else ())))
        calls.append(("solve", "--input", path, "--out", out))
    calls.append(("solve", "--input", str(tmp_path / "missing.csv")))
    for name in ("random2d_4", "random2d_9", "random2d_20", "random2d_25", "random2d_40", "random2d_120",
                 "pentagon", "tie_grid"):
        for budget in ("0", "1", "2", "3", "5", "8", "13", "40", "200"):
            for method, k in (("auto", None), ("exact", None), ("fpt", "1"), ("fpt", "5"), ("fpt", "16")):
                calls.append(("solve", "--input", inputs[name], "--r", "2", "--method", method,
                              *(("--k", k) if k else ()), "--budget", budget, "--out", out))
    report = str(tmp_path / "report.csv")
    bench = [
        ("random1d",), ("random2d",), ("scan6",),
        ("random1d", "--trials", "1"), ("random1d", "--trials", "30", "--seed", "7"),
        ("random1d", "--n-min", "1", "--n-max", "3"), ("random1d", "--n-min", "2", "--n-max", "2"),
        ("random1d", "--n-min", "24", "--n-max", "24", "--trials", "2"),
        ("random1d", "--n-min", "25", "--n-max", "25"), ("random1d", "--n-min", "5", "--n-max", "4"),
        ("random1d", "--n-max", "1"), ("random1d", "--n-min", "13"), ("random1d", "--trials", "0"),
        ("random2d", "--trials", "1"), ("random2d", "--trials", "7", "--seed", "3"),
        ("random2d", "--n-min", "2", "--n-max", "3"), ("random2d", "--n-min", "3", "--n-max", "3"),
        ("random2d", "--n-min", "3", "--n-max", "5", "--trials", "9"),
        ("random2d", "--n-min", "90", "--n-max", "90", "--trials", "2"), ("random2d", "--n-min", "61"),
        ("random2d", "--trials", "-1"), ("random2d", "--trials", "4", "--budget", "0"),
        ("random2d", "--trials", "4", "--budget", "3"), ("random2d", "--trials", "4", "--budget", "40"),
        ("scan6", "--trials", "1"), ("scan6", "--trials", "15", "--seed", "7"), ("scan6", "--trials", "0"),
        ("scan6", "--n-min", "1", "--n-max", "1", "--trials", "3", "--budget", "0"),
    ]
    calls += [("bench", "--family", *args, "--no-timing", "--report", report) for args in bench]
    return calls, (out, report)


# SHA-1 over every call of the byte battery, recorded before solve and bench shared one method table;
# since then the four greedy1d calls on the one-point line moved, from exit 3 to a solved report, and
# 77 records moved when the exact witness pass stopped asking about most vertices: 47 exact and auto
# r=2 reports whose only change is stats.nodes, 24 budgeted exact and auto calls that now solve
# (exit 4 to 0) with the unbudgeted witness, and 6 bench reports whose only change is the nodes column
_BATTERY_DIGEST = "bcdf5d1cbed98c7cae8e523a980fe061ba416c5f"


def test_cli_bytes_are_pinned(tmp_path, capsys):
    """Argv, exit code, stdout, stderr and the written report of ~2000 solve and bench calls hash
    to one digest; temporary paths and solve's elapsed milliseconds are masked."""
    calls, written = _battery_calls(tmp_path)
    digest = hashlib.sha1()
    for argv in calls:
        code, out, err = run(capsys, *argv)
        files = []
        for path in map(Path, written):
            files.append(path.read_text() if path.exists() else None)
            path.unlink(missing_ok=True)
        err = re.sub(r"elapsed=[0-9.]+ms", "elapsed=…ms", err)
        record = json.dumps([argv, code, out, err, files]).replace(str(tmp_path), "<tmp>")
        digest.update(record.encode() + b"\n")
    assert len(calls) > 1900
    assert digest.hexdigest() == _BATTERY_DIGEST
