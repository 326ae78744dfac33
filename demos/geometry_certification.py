"""Rank and curvature certification of the averaging phase on H^2.

Run with: python3 demos/geometry_certification.py
"""

import numpy as np

from heislab import (certify_point, sample_chart_point, smallness_margin,
                     standard_heisenberg)


def main():
    s = standard_heisenberg(2)
    print(f"structure: H^2, d = {s.d}, "
          f"smallness margin = {smallness_margin(s):.3f}")

    rng = np.random.default_rng(7)
    print("\ngeneric chart points (expect full rank d):")
    for _ in range(5):
        x, t, y = sample_chart_point(s, rng)
        rep = certify_point(s, x, t, y)
        print(f"  sigma={rep.sigma:+.3f}  rank_xi={rep.rank_xi}  "
              f"rank_spatial={rep.rank_spatial}")

    print("\nfold points sigma=0 in the matched frame x'=y'")
    print("(expect ranks d, d-1, curvature d-1, and |c| above its floor):")
    for _ in range(5):
        x, t, y = sample_chart_point(s, rng, on_fold=True)
        rep = certify_point(s, x, t, y, on_fold=True)
        print(f"  sigma={rep.sigma:+.1e}  rank_xi={rep.rank_xi}  "
              f"rank_spatial={rep.rank_spatial}  rank_curv={rep.rank_curv}  "
              f"|c|={rep.c_value:.4f} >= {rep.c_bound:.4f}")


if __name__ == "__main__":
    main()
