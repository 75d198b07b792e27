import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from multipack import (
    PointSet,
    assert_general_position,
    build_neighbor_table,
    max_2_multipacking_exact,
    multipacking_number,
    pentagon_five,
    random_point_set,
    scan_six_point_sets,
    square_four,
)
from multipack import instances
from multipack.instances import _scan_seed


def test_pentagon_fixture_is_frozen():
    assert pentagon_five().points == (
        (9, 1013), (-986, 302), (-563, -787), (599, -811), (972, 314),
    )


def test_pentagon_cyclic_neighbor_property():
    pent = pentagon_five()
    table = build_neighbor_table(pent)
    n = pent.n
    for i in range(n):
        cyclic = {(i - 1) % n, (i + 1) % n}
        assert set(table.order[i][:2]) == cyclic


def test_pentagon_multipacking_number_is_one():
    assert multipacking_number(pentagon_five()) == 1


def test_pentagon_exact_two_multipacking_is_one():
    assert max_2_multipacking_exact(pentagon_five()).size == 1


def test_pentagon_general_position():
    assert assert_general_position(pentagon_five()) == []


def test_square_fixture_properties():
    sq = square_four()
    assert sq.points == ((24, -6), (1018, 26), (996, 972), (-14, 1002))
    assert assert_general_position(sq) == []
    assert multipacking_number(sq) == 1


def test_fixture_loader_rejects_a_non_convex_polygon(tmp_path, monkeypatch):
    # the pentagon's vertices with two swapped: still in general position,
    # but the cycle now crosses itself
    p = pentagon_five().points
    path = tmp_path / "crossed5.csv"
    path.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in (p[0], p[2], p[1], p[3], p[4])))
    monkeypatch.setattr(instances, "_fixture_path", lambda name: tmp_path / name)
    with pytest.raises(AssertionError, match="crossed5.csv: fixture lost convex position"):
        instances._verified_fixture("crossed5.csv")


def test_random_point_set_deterministic():
    a = random_point_set(6, dim=2, seed=1, grid=10**6)
    b = random_point_set(6, dim=2, seed=1, grid=10**6)
    assert a.points == b.points


def test_random_point_set_general_position():
    for seed in range(10):
        pts = random_point_set(12, dim=2, seed=seed)
        assert assert_general_position(pts) == []
    # a line's default grid grows as n^3 (a 10^6 grid leaves a tie in every draw of 400)
    assert assert_general_position(random_point_set(400, dim=1, seed=0)) == []
    assert random_point_set(100, dim=1, seed=5).points == random_point_set(100, dim=1, seed=5, grid=10**6).points


def test_random_point_set_singleton():
    pts = random_point_set(1, dim=1, seed=0)
    assert pts.n == 1


def test_random_point_set_validates_arguments():
    with pytest.raises(ValueError):
        random_point_set(0)
    with pytest.raises(ValueError):
        random_point_set(5, dim=3)
    with pytest.raises(ValueError):
        random_point_set(100, grid=50)
    with pytest.raises(ValueError):
        random_point_set(5, audit="half")


def test_scan_six_point_sets_small_run():
    scan = scan_six_point_sets(50, seed=0)
    assert scan["checked"] == 50
    assert scan["min_mp"] >= 2
    assert scan["counterexamples"] == []
    assert len(scan["sizes"]) == 50


def _reference_scan(trials, seed, grid, mp=multipacking_number):
    """The per-trial scan: one `random_point_set` draw and one oracle call per trial."""
    sets = [random_point_set(6, dim=2, seed=_scan_seed(seed, t), grid=grid) for t in range(trials)]
    sizes = [mp(pts) for pts in sets]
    return {
        "checked": trials,
        "min_mp": min(sizes),
        "sizes": sizes,
        "counterexamples": [
            {"trial": t, "points": [list(p) for p in pts.points], "mp": size}
            for t, (pts, size) in enumerate(zip(sets, sizes))
            if size < 2
        ],
    }


@pytest.mark.parametrize("seed", [0, 1, 3, 41])
def test_scan_matches_per_trial_reference(seed):
    trials = instances._SCAN_BLOCK + 45  # a full block and a partial one
    assert scan_six_point_sets(trials, seed) == _reference_scan(trials, seed, instances._DEFAULT_GRID)


def _counting_draws(monkeypatch) -> list:
    """Record every `random_point_set` call the scan makes: only redrawn trials call it."""
    calls = []
    draw = instances.random_point_set

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(instances, "random_point_set", counting)
    return calls


@pytest.mark.parametrize("grid", [36, 40])
def test_scan_redraws_duplicates_and_ties_through_the_library(monkeypatch, grid):
    """On a small grid many first draws repeat a point or tie; those go back through random_point_set."""
    expected = _reference_scan(300, 5, grid)
    monkeypatch.setattr(instances, "_DEFAULT_GRID", grid)
    calls = _counting_draws(monkeypatch)
    assert scan_six_point_sets(300, 5) == expected
    assert len(calls) > 20 and len(calls) == len(set(calls))


def test_scan_counterexamples_carry_each_trial_points(monkeypatch):
    """Force MP = 1 everywhere: every trial, first draw or redraw, reports the points it solved."""
    expected = _reference_scan(40, 2, 40, mp=lambda pts: 1)
    scan = instances._violation_radius_scan

    def singletons_only(order):
        n, ids, first_bad, pop = scan(order)
        return n, ids, first_bad, np.minimum(pop, 1)

    monkeypatch.setattr(instances, "_violation_radius_scan", singletons_only)
    monkeypatch.setattr(instances, "multipacking_number", lambda pts: 1)
    monkeypatch.setattr(instances, "_DEFAULT_GRID", 40)
    calls = _counting_draws(monkeypatch)
    assert scan_six_point_sets(40, 2) == expected
    assert calls  # both paths ran


# SHA-1 of json.dumps(scan_six_point_sets(2000, seed)), recorded with the per-trial scan
_SCAN_DIGESTS = {
    0: "42fd4be3c6ff4f2ddfa2a3f9296a46cc430a6daa",
    1: "21a224f5e340e6825d26c9ba21c371de2529e09b",
}


def test_scan_results_are_pinned():
    for seed, digest in _SCAN_DIGESTS.items():
        assert hashlib.sha1(json.dumps(scan_six_point_sets(2000, seed)).encode()).hexdigest() == digest, seed


def test_scan_memory_stays_flat_in_the_trial_count():
    """Blocks bound the arrays: 16 blocks of trials peak no higher than 2 do, bar the sizes list."""
    block = instances._SCAN_BLOCK
    peaks = []
    for trials in (2 * block, 16 * block):
        tracemalloc.start()
        try:
            scan_six_point_sets(trials, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 16 * 16 * block, peaks  # 16 bytes per trial of slack


def test_scan_validates_trials():
    with pytest.raises(ValueError):
        scan_six_point_sets(0, seed=0)


def test_pentagon_plus_far_point_reaches_two():
    pent = pentagon_five()
    combined = PointSet.of(list(pent.points) + [(10**6, 10**6)])
    assert multipacking_number(combined) >= 2


def test_five_point_sets_can_have_multipacking_number_one():
    sizes = {multipacking_number(random_point_set(5, dim=2, seed=s)) for s in range(40)}
    sizes.add(multipacking_number(pentagon_five()))
    assert 1 in sizes
    assert min(sizes) == 1
