"""Tour of the group structures: arithmetic, margins, and the skew norm.

Run with: python3 demos/group_structures.py
"""

import numpy as np

from heislab import (dilate, group_inverse, group_multiply,
                     quaternionic_htype, radon_hurwitz, skew_inverse_norm,
                     smallness_margin, standard_heisenberg)


def main():
    s = standard_heisenberg(2)
    print(f"standard H^2: n={s.n}, m={s.m}, dimension d={s.d}")
    # a point is its coordinate array (ubar, bar)
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.5])
    y = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    xy = group_multiply(s, x, y)
    yx = group_multiply(s, y, x)
    print("x.y =", xy)
    print("y.x =", yx)
    print("the twist makes the product noncommutative:", xy[-1] != yx[-1])
    print("x . x^-1 =", group_multiply(s, x, group_inverse(s, x)))
    print("dilate(2, x) =", dilate(s, 2.0, x))

    print()
    for name, g in (("standard H^1", standard_heisenberg(1)),
                    ("standard H^2", standard_heisenberg(2)),
                    ("quaternionic (1,3)", quaternionic_htype(1, 3))):
        print(f"{name}: smallness margin = {smallness_margin(g):.3f}")

    print()
    print("Radon-Hurwitz numbers bound the center dimension m < RH(2n):")
    for k in (2, 4, 8, 16, 32):
        print(f"  RH({k}) = {radon_hurwitz(k)}")

    print()
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((4, 4))
    B = raw - raw.T
    rho = 0.7
    closed = skew_inverse_norm(rho, B)
    brute = np.linalg.norm(np.linalg.inv(rho * np.eye(4) + B), 2)
    print(f"|(rho I + B)^-1|: closed form {closed:.12f}, "
          f"brute force {brute:.12f}")


if __name__ == "__main__":
    main()
