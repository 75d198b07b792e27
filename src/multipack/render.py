"""Deterministic SVG rendering of point sets and witnesses.

Output is a pure function of the inputs: fixed canvas, fixed colors, fixed
3-decimal coordinate formatting, no timestamps or generated ids, so repeated
renders are byte-identical.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import PointSet, nearest_order, squared_distance

_POINT_FILL = "#2b6cb0"
_WITNESS_FILL = "#c53030"
_CIRCLE_STROKE = "#a0aec0"
_AXIS_STROKE = "#cbd5e0"
_LABEL_FILL = "#4a5568"
_WIDTH, _HEIGHT = 800, 600  # canvas size in SVG user units


def _fmt(value: float) -> str:
    out = f"{value:.3f}"
    return "0.000" if out == "-0.000" else out


def render_svg(
    pts: PointSet,
    witness: Iterable[int] = (),
    circles: bool = False,
) -> str:
    """Render points (witness members highlighted) to an 800 x 600 SVG document.

    With circles=True each point also gets the circle through its second
    neighbor, the neighborhood whose occupancy caps pair placement.
    """
    chosen = set(witness)
    for i in chosen:
        if not 0 <= i < pts.n:
            raise ValueError(f"witness index {i} out of range")
    coords = [(float(p[0]), float(p[1]) if pts.dim == 2 else 0.0) for p in pts.points]
    radii = [0.0] * pts.n
    if circles:
        if pts.n < 3:
            raise ValueError("second-neighbor circles need at least 3 points")
        second = nearest_order(pts, 2)[:, 1].tolist()
        radii = [math.sqrt(float(squared_distance(pts[v], pts[u]))) for v, u in enumerate(second)]
    xs_lo = min(c[0] - r for c, r in zip(coords, radii))
    xs_hi = max(c[0] + r for c, r in zip(coords, radii))
    ys_lo = min(c[1] - r for c, r in zip(coords, radii))
    ys_hi = max(c[1] + r for c, r in zip(coords, radii))
    margin = 50.0
    span_x = max(xs_hi - xs_lo, 1e-9)
    span_y = max(ys_hi - ys_lo, 1e-9)
    scale = min((_WIDTH - 2 * margin) / span_x, (_HEIGHT - 2 * margin) / span_y)

    def place(c: Sequence[float]) -> tuple[float, float]:
        px = margin + (c[0] - xs_lo) * scale
        py = _HEIGHT - margin - (c[1] - ys_lo) * scale
        return px, py

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if pts.dim == 1:
        y_axis = place((0.0, 0.0))[1]
        lines.append(
            f'<line x1="{_fmt(margin / 2)}" y1="{_fmt(y_axis)}" '
            f'x2="{_fmt(_WIDTH - margin / 2)}" y2="{_fmt(y_axis)}" '
            f'stroke="{_AXIS_STROKE}" stroke-width="1"/>'
        )
    if circles:
        for v in range(pts.n):
            px, py = place(coords[v])
            lines.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(radii[v] * scale)}" '
                f'fill="none" stroke="{_CIRCLE_STROKE}" stroke-width="1" '
                'stroke-dasharray="4 3"/>'
            )
    for v in range(pts.n):
        if v in chosen:
            continue
        px, py = place(coords[v])
        lines.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="{_POINT_FILL}"/>'
        )
    for v in sorted(chosen):
        px, py = place(coords[v])
        lines.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="6" fill="{_WITNESS_FILL}" '
            'stroke="#742a2a" stroke-width="1.5"/>'
        )
    if pts.n <= 50:
        for v in range(pts.n):
            px, py = place(coords[v])
            lines.append(
                f'<text x="{_fmt(px + 7)}" y="{_fmt(py - 7)}" font-family="monospace" '
                f'font-size="12" fill="{_LABEL_FILL}">{v}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_to_file(
    pts: PointSet,
    path: str | Path,
    witness: Iterable[int] = (),
    circles: bool = False,
) -> None:
    with open(path, "w") as fh:
        fh.write(render_svg(pts, witness=witness, circles=circles))
