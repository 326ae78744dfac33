"""Exact boundedness regions, exported as CSV and SVG.

Run with: python3 demos/region_gallery.py
Writes region_maximal_h2.svg and region_averaging_h1.svg next to itself.
"""

import os

from heislab import (averaging_region, bourgain_vertex, contains,
                     export_region, maximal_region, RatPoint)
from fractions import Fraction as F


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    reg = maximal_region(2, 1)
    print("maximal-operator region for H^2 (vertices as exact rationals):")
    print(export_region(reg, "csv").decode())
    for pt, label in ((RatPoint(F(1, 3), F(1, 6)), "a generic point"),
                      (RatPoint(F(3, 4), F(3, 4)), "the corner Q2"),
                      (RatPoint(F(9, 10), F(1, 10)), "a far point")):
        print(f"  {label}: strong={contains(reg, pt)}, "
              f"rwt={contains(reg, pt, mode='rwt')}")

    q4 = bourgain_vertex(F(1), F(0), 2,
                         F(1, 2), F(1, 3), F(2, 3))
    print(f"\ninterpolation crossover for H^2: Q4 = ({q4.ip}, {q4.iq})")

    trap = averaging_region(1, 1)
    print("\nfixed-time averaging region for H^1:")
    print(export_region(trap, "csv").decode())

    for name, region in (("region_maximal_h2.svg", reg),
                         ("region_averaging_h1.svg", trap)):
        path = os.path.join(here, name)
        with open(path, "wb") as fh:
            fh.write(export_region(region, "svg"))
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
