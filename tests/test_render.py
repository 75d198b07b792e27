import hashlib

import pytest

from helpers import pts1d
from multipack import lower_family_1d, pentagon_five, random_point_set, render_svg, render_to_file


def test_pentagon_svg_structure():
    svg = render_svg(pentagon_five(), witness=(2,))
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == 5
    assert svg.count('fill="#c53030"') == 1
    assert svg.rstrip().endswith("</svg>")


def test_svg_is_byte_stable():
    pts = random_point_set(15, dim=2, seed=5)
    first = render_svg(pts, witness=(0, 4), circles=True)
    second = render_svg(pts, witness=(0, 4), circles=True)
    assert first == second


def test_second_neighbor_circles_are_drawn():
    plain = render_svg(pentagon_five())
    ringed = render_svg(pentagon_five(), circles=True)
    assert ringed.count("<circle") == plain.count("<circle") + 5
    assert "stroke-dasharray" in ringed


def test_one_dimensional_axis_line():
    svg = render_svg(pts1d(0, 6, 9, 33, 54, 150))
    assert "<line" in svg
    assert svg.count("<circle") == 6


def test_labels_only_for_small_sets():
    small = render_svg(random_point_set(10, dim=2, seed=0))
    big = render_svg(random_point_set(60, dim=2, seed=0))
    assert "<text" in small
    assert "<text" not in big


def test_witness_indices_validated():
    with pytest.raises(ValueError):
        render_svg(pentagon_five(), witness=(9,))


def test_render_to_file(tmp_path):
    path = tmp_path / "out.svg"
    render_to_file(pentagon_five(), path, witness=(1,))
    assert path.read_text() == render_svg(pentagon_five(), witness=(1,))


@pytest.mark.parametrize("pts, circles, cause", [
    pytest.param(lower_family_1d(1100), False, "coordinates", id="coordinates"),
    pytest.param(lower_family_1d(600), True, "squared second-neighbor distances", id="circle-radii"),
    pytest.param(pts1d(-(10**308), 0, 10**308), False, "the drawing's extent", id="extent"),
])
def test_beyond_float_range_raises_and_writes_nothing(pts, circles, cause, tmp_path):
    """Coordinates past 2^1024, squared radii past it, or a span that overflows name the cause."""
    path = tmp_path / "out.svg"
    with pytest.raises(ValueError, match=f"cannot draw: {cause} beyond float range"):
        render_to_file(pts, path, circles=circles)
    assert not path.exists()


@pytest.mark.parametrize("draw, digest", [
    pytest.param(lambda: render_svg(pentagon_five(), witness=(0,), circles=True),
                 "3f4d2ac61664a21afbae9b94906e8ee9dcdf492d", id="pentagon-witness-circles"),
    pytest.param(lambda: render_svg(pts1d(0, 6, 9, 33, 54, 150)),
                 "5effe844041049c4e3a792c83d26b75db8bcc0e2", id="line-6"),
    pytest.param(lambda: render_svg(random_point_set(60, dim=2, seed=0)),
                 "42f5f87aed8245e2ec7e9542d416b2aa6fbf84de", id="plane-60-no-labels"),
])
def test_svg_bytes_are_pinned(draw, digest):
    assert hashlib.sha1(draw().encode()).hexdigest() == digest
