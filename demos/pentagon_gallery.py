"""The small extremal instances, rendered.

Three, four, and five points can be arranged so that no two points ever
coexist in a multipacking (MP = 1); with six points that is impossible.
This demo verifies those facts and draws the five-point witness with the
second-neighbor circles that explain it.

Run: python demos/pentagon_gallery.py   (writes SVGs next to this script)
"""

from pathlib import Path

from multipack import (
    PointSet,
    multipacking_number,
    pentagon_five,
    render_to_file,
    scan_six_point_sets,
    square_four,
)
from multipack.geometry import nearest_order

OUT = Path(__file__).resolve().parent / "out"


def main():
    OUT.mkdir(exist_ok=True)

    pent = pentagon_five()
    print("pentagon fixture:", list(pent.points))
    print("cyclic nearest-neighbor structure:")
    for i, (a, b) in enumerate(nearest_order(pent, 2).tolist()):
        print(f"  point {i}: two nearest are {a} and {b}")
    print(f"multipacking number: {multipacking_number(pent)}")

    render_to_file(pent, OUT / "pentagon.svg", witness=(0,), circles=True)
    print(f"wrote {OUT / 'pentagon.svg'} (witness point plus every")
    print("second-neighbor circle; each pair of points lies inside some circle)")

    print()
    sq = square_four()
    print("jittered square fixture:", list(sq.points))
    print(f"multipacking number: {multipacking_number(sq)}")
    render_to_file(sq, OUT / "square.svg", witness=(0,), circles=True)
    print(f"wrote {OUT / 'square.svg'}")

    print()
    print("adding any sixth point breaks the MP = 1 pattern:")
    combined = PointSet.of(list(pent.points) + [(10**6, 10**6)])
    print(f"  pentagon + far point -> MP = {multipacking_number(combined)}")

    scan = scan_six_point_sets(200, seed=0)
    print(f"  random scan: {scan['checked']} six-point sets, "
          f"minimum MP {scan['min_mp']}, "
          f"counterexamples {len(scan['counterexamples'])}")


if __name__ == "__main__":
    main()
