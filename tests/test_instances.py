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
    search_pentagon_fixture,
    search_square_fixture,
    square_four,
)
from multipack.instances import PENTAGON_SEED, SQUARE_SEED


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
    assert sq.n == 4
    assert assert_general_position(sq) == []
    assert multipacking_number(sq) == 1


def test_search_reproduces_frozen_fixtures():
    assert search_pentagon_fixture(PENTAGON_SEED).points == pentagon_five().points
    assert search_square_fixture(SQUARE_SEED).points == square_four().points


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
