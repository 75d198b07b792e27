"""Console checks: each case runs `multipack` commands in a fresh directory, as a user would.

A case writes its input files, then runs its steps in order through `python -m
multipack.cli`.  A step is (command, time limit in seconds or None, expected exit
code); a step that runs past its limit fails the case.  `{exact}` in a command
stands for the size in the report of the case's last `--method exact` solve.  A
new console check is a new case here.
"""

import json
import subprocess
import sys

import pytest

from helpers import child_env, lattice, save_three_decimals, sunflower
from multipack import random_point_set, save_points_csv


def _csv(make):
    """An input writer: the point set `make()` builds, saved as CSV."""
    return lambda path: save_points_csv(make(), path)


# name -> (inputs: file name -> text or writer called with the path, steps)
CASES = {
    "fpt-at-optimum": ({}, [
        ("gen --family random --n 120 --seed 1 --out r120.csv", None, 0),
        ("solve --input r120.csv --r 2 --method exact", None, 0),
        ("solve --input r120.csv --r 2 --method fpt --k {exact}", 60, 0),
    ]),
    # one giant conflict-graph component: the exact search's peel and witness pass
    "lattice40": ({"lattice40.csv": _csv(lambda: lattice(40))}, [
        ("solve --input lattice40.csv --r 2 --out w2.json", 60, 0),
        ("check --input lattice40.csv --set w2.json", None, 0),
    ]),
    # giant components on which the witness pass once asked the search about every vertex
    # (~9 s each in process); it now keeps a known optimum and asks only on a vertex's own component
    "lattice70-sunflower5000": ({"lattice70.csv": _csv(lambda: lattice(70)),
                                 "sunflower5000.csv": _csv(lambda: sunflower(5000))}, [
        ("solve --input lattice70.csv --r 2 --method exact --out w_lattice70.json", 20, 0),
        ("check --input lattice70.csv --set w_lattice70.json", None, 0),
        ("solve --input sunflower5000.csv --r 2 --method exact --out w_sunflower5000.json", 20, 0),
        ("check --input sunflower5000.csv --set w_sunflower5000.json", None, 0),
    ]),
    # coordinates up to 2^999: the full-radius ranking runs the float64 screen
    "lower1d-999": ({}, [
        ("gen --family lower1d --n 999 --out l999.csv", None, 0),
        ("solve --input l999.csv --r full --out w.json", 30, 0),
        ("check --input l999.csv --set w.json", None, 0),
    ]),
    # coordinates up to 2^2999: the float64 screen ranks on coordinates shifted to fit 1000 bits
    "lower1d-3000": ({}, [
        ("gen --family lower1d --n 3000 --out l3000.csv", None, 0),
        ("solve --input l3000.csv --r full --out w3000.json", 20, 0),
        ("check --input l3000.csv --set w3000.json", None, 0),
    ]),
    # the full general-position audit of 3000 points ranks 9M pairs in row blocks
    "random3000-audited": ({}, [
        ("gen --family random --n 3000 --seed 1 --out r3000.csv", 30, 0),
        ("solve --input r3000.csv --r 2 --out w_r3000.json", None, 0),
        ("check --input r3000.csv --set w_r3000.json", None, 0),
    ]),
    # a JSON integer too long for int() is a parse error, as in a CSV
    "json-5000-digit-integer": ({"long_int.json": '{"dim": 1, "points": [[' + "5" * 5000 + "], [2]]}\n"}, [
        ("solve --input long_int.json --r 1", None, 2),
    ]),
    # solve and bench read one method table: each planar method solves the same set and check accepts it
    "r60-every-method": ({}, [
        ("gen --family random --n 60 --seed 2 --out r60.csv", None, 0),
        ("solve --input r60.csv --r 1 --method nng --out r60_nng.json", None, 0),
        ("solve --input r60.csv --r 2 --method exact --out r60_exact.json", None, 0),
        ("solve --input r60.csv --r 2 --method greedy --out r60_greedy.json", None, 0),
        ("solve --input r60.csv --r 2 --method fpt --k {exact} --out r60_fpt.json", None, 0),
        *((f"check --input r60.csv --set r60_{method}.json", None, 0) for method in ("nng", "exact", "greedy", "fpt")),
        ("bench --family random2d --trials 3 --no-timing --report bench2d.csv", None, 0),
    ]),
    # an exponent above the int digit limit exits 2 at once; a one-point set solves and checks
    "huge-exponent-and-one-point": ({"exp_huge.csv": "x,y\n1e9999999,0\n1,2\n", "p1.csv": "x,y\n5,7\n"}, [
        ("solve --input exp_huge.csv --r 1", 10, 2),
        ("solve --input p1.csv --r 1 --out p1.json", None, 0),
        ("check --input p1.csv --set p1.json", None, 0),
    ]),
    # three-decimal coordinates take the plain-decimal parse; a token it does not match still exits 2
    "three-decimals-2000": ({"d2000.csv": lambda path: save_three_decimals(2000, path),
                             "bad_decimal.csv": "x,y\n1.2.3,0\n1,2\n"}, [
        ("solve --input d2000.csv --r 1 --out w_d2000_1.json", 30, 0),
        ("check --input d2000.csv --set w_d2000_1.json", None, 0),
        ("solve --input d2000.csv --r 2 --out w_d2000_2.json", 30, 0),
        ("check --input d2000.csv --set w_d2000_2.json", None, 0),
        ("solve --input bad_decimal.csv --r 1", None, 2),
    ]),
    # 10^5 points, more than `gen` audits in full: the r=2 greedy's bucket queue and array rounds at scale
    "greedy-100k": ({"r100k.csv": _csv(lambda: random_point_set(100000, seed=1, audit="none"))}, [
        ("solve --input r100k.csv --r 2 --method greedy --out g.json", 60, 0),
        ("check --input r100k.csv --set g.json", None, 0),
    ]),
    # every file one command writes, the next reads, whichever format the suffix names
    **{f"gen-solve-check-render-{suffix}": ({}, [
        (f"gen --family random --n 30 --seed 1 --out p.{suffix}", None, 0),
        (f"solve --input p.{suffix} --r 2 --out w.json", None, 0),
        (f"check --input p.{suffix} --set w.json", None, 0),
        (f"render --input p.{suffix} --set w.json --out p.svg", None, 0),
    ]) for suffix in ("csv", "json")},
}


@pytest.mark.parametrize("name", CASES)
def test_console(name, tmp_path):
    inputs, steps = CASES[name]
    for file, content in inputs.items():
        if isinstance(content, str):
            (tmp_path / file).write_text(content)
        else:
            content(tmp_path / file)
    sizes = {}
    for command, timeout, expected in steps:
        argv = command.format(**sizes).split()
        done = subprocess.run([sys.executable, "-m", "multipack.cli", *argv], cwd=tmp_path, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
        assert done.returncode == expected, f"{command}: exit {done.returncode}, expected {expected}\n{done.stderr}"
        if "exact" in argv:
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            sizes["exact"] = json.loads((tmp_path / out).read_text() if out else done.stdout)["size"]
