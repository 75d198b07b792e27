import json

import pytest

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
    assert report["stats"]["nodes"] <= report["stats"]["node_budget"] == 324


def test_solve_fpt_miss_reports_found_false(pentagon, capsys):
    code, out, _ = run(capsys, "solve", "--input", pentagon, "--r", "2",
                       "--method", "fpt", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["found"] is False
    assert report["indices"] == []


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
    code, _, err = run(capsys, "solve", "--input", quad, "--r", "1", "--method", "exact")
    assert code == 3
    code, _, err = run(capsys, "solve", "--input", quad, "--r", "2", "--method", "fpt")
    assert code == 3
    code, _, err = run(capsys, "solve", "--input", quad, "--r", "3", "--limit-n", "3")
    assert code == 4 and json.loads(err)["kind"] == "budget"


def test_solve_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,two\n")
    code, _, err = run(capsys, "solve", "--input", str(bad))
    assert code == 2


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


def _assert_check_and_render_reject(capsys, points, witness, tmp_path):
    for extra in ((), ("--out", str(tmp_path / "x.svg"))):
        command = "render" if extra else "check"
        code, out, err = run(capsys, command, "--input", points, "--set", str(witness), *extra)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "input"


def test_check_rejects_duplicate_indices(tmp_path, capsys):
    points = str(tmp_path / "rand40.csv")
    run(capsys, "gen", "--family", "random", "--n", "40", "--seed", "5", "--out", points)
    witness = tmp_path / "dup.json"
    witness.write_text('{"indices": [1, 1, 2], "r": 2}')
    _assert_check_and_render_reject(capsys, points, witness, tmp_path)


def test_check_rejects_a_size_the_indices_do_not_have(tmp_path, capsys):
    points = str(tmp_path / "rand40.csv")
    run(capsys, "gen", "--family", "random", "--n", "40", "--seed", "5", "--out", points)
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "solve", "--input", points, "--r", "2", "--out", str(witness))
    assert code == 0
    report = json.loads(witness.read_text())
    assert report["size"] == len(report["indices"]) == 16
    witness.write_text(json.dumps({**report, "size": 21}))
    _assert_check_and_render_reject(capsys, points, witness, tmp_path)


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


def test_bench_deterministic_without_timing(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for report in (a, b):
        code, _, _ = run(capsys, "bench", "--family", "random1d", "--trials", "8",
                         "--no-timing", "--report", str(report))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_rejects_oversized_oracle_range(tmp_path, capsys):
    code, _, _ = run(capsys, "bench", "--family", "random1d", "--n-max", "20",
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


def test_render_rejects_out_of_range_witness(pentagon, tmp_path, capsys):
    witness = tmp_path / "w.json"
    witness.write_text('{"indices": [7], "r": 2}')
    code, _, _ = run(capsys, "render", "--input", pentagon, "--set", str(witness),
                     "--out", str(tmp_path / "x.svg"))
    assert code == 2


def test_upper_family_csv_loads_back(tmp_path, capsys):
    out = tmp_path / "upper9.csv"
    run(capsys, "gen", "--family", "upper1d", "--n", "9", "--out", str(out))
    from multipack import load_points

    assert load_points(out).points == upper_family_1d(9).points
