"""End-to-end acceptance checks, one printed pass/fail line per criterion.

The heavy geometry sampling is shared between criteria 4 and 5, and each
slope experiment uses the library defaults, so this file doubles as a
runnable record of the advertised tolerances.
"""

import math
from fractions import Fraction

import numpy as np

from heislab.cli import main as cli_main
from heislab.families import (ball_example, fit_exponent, knapp_example,
                              moment_example, predicted_exponent,
                              run_ladder, scaling_example,
                              stein_growth_exponent, stein_probe_curve)
from heislab.groups import normalized_heisenberg, standard_heisenberg
from heislab.phase import (PhaseModel, c_lower_bound, c_value, certify_point,
                           det_identity_rhs, fold_cone_curvature,
                           normal_vector, sample_chart_point,
                           spatial_block, xi_y)
from heislab.regions import (averaging_region, bourgain_vertex,
                             maximal_region)
from heislab.spheres import spherical_average_batch

F = Fraction


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}",
              flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def check_rows(capsys, argv):
    """Exit code and (first column, status) of each row of a check's CSV."""
    code = cli_main(argv)
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")]
    col = rows[0].index("status")
    return code, [(row[0], row[col]) for row in rows[1:]]


# --- criterion 1: closed-form skew norm vs brute force -------------------

def test_criterion_01_skew_norm_oracle(capsys):
    code, rows = check_rows(capsys, ["lemma-check", "--seed", "101",
                                     "--set", "samples=200",
                                     "--set", "tolerance=1e-10"])
    ok = (code == 0 and len(rows) == 200
          and all(status == "pass" for _, status in rows))
    report(capsys, 1, "skew inverse norm formula", ok)


# --- criterion 2: group laws ---------------------------------------------

def test_criterion_02_group_laws(capsys):
    code, rows = check_rows(capsys, ["group-check", "--seed", "102",
                                     "--set", "n=2", "--set", "samples=1000",
                                     "--set", "tolerance=1e-12"])
    checks = dict(row for row in rows if row[0] != "margin")
    ok = (code == 0
          and set(checks) == {"associativity", "identity", "inverse",
                              "dilation"}
          and all(status == "pass" for status in checks.values()))
    report(capsys, 2, "group law suite", ok)


# --- criterion 3: h-type identity ----------------------------------------

def test_criterion_03_htype_identity(capsys):
    code, rows = check_rows(capsys, ["group-check", "--seed", "103",
                                     "--set", "kind=quaternionic",
                                     "--set", "tolerance=1e-12"])
    checks = dict(row for row in rows if row[0] != "margin")
    ok = (code == 0 and "htype" in checks
          and all(status == "pass" for status in checks.values()))
    report(capsys, 3, "quaternionic h-type identity", ok)


# --- criteria 4 and 5: shared geometry sampling --------------------------

_GEOMETRY_CACHE = {}


def geometry_records():
    if "records" in _GEOMETRY_CACHE:
        return _GEOMETRY_CACHE["records"]
    pm = PhaseModel(structure=standard_heisenberg(2))
    rng = np.random.default_rng(104)
    generic, folds = [], []
    for _ in range(100):
        x, t, y = sample_chart_point(pm, rng, match_xprime=True)
        rep = certify_point(pm, x, t, y, with_curvature=False)
        lhs = float(np.linalg.det(spatial_block(xi_y(pm, x, t, y))))
        rhs = det_identity_rhs(pm, x, t, y)
        N = normal_vector(pm, x, t, y)
        generic.append((rep, lhs, rhs, c_value(pm, x, t, y, N),
                        c_lower_bound(pm, t, y, N)))
    for _ in range(50):
        x, t, y = sample_chart_point(pm, rng, on_fold=True,
                                     match_xprime=True)
        rep = certify_point(pm, x, t, y)
        det_fold = float(np.linalg.det(spatial_block(xi_y(pm, x, t, y))))
        cone_rank, _, _ = fold_cone_curvature(pm, x, t, y[:3], y[4:])
        folds.append((rep, det_fold, cone_rank))
    _GEOMETRY_CACHE["records"] = (pm, generic, folds)
    return _GEOMETRY_CACHE["records"]


def test_criterion_04_rank_certificates(capsys):
    pm, generic, folds = geometry_records()
    ok = True
    for rep, lhs, rhs, _, _ in generic:
        ok = ok and rep.rank_xi == 5
        scale = max(abs(lhs), abs(rhs), 1e-30)
        ok = ok and abs(lhs - rhs) / scale <= 1e-8
    for rep, det_fold, cone_rank in folds:
        ok = ok and rep.rank_xi == 5
        ok = ok and rep.rank_spatial == 4
        ok = ok and rep.rank_curv == 4
        ok = ok and cone_rank == 3
        ok = ok and abs(det_fold) <= 1e-10
        ok = ok and abs(det_identity_rhs(pm, rep.x, rep.t, rep.y)) <= 1e-10
    report(capsys, 4, "rank and fold certificates", ok)


def test_criterion_05_c_lower_bound(capsys):
    pm, generic, folds = geometry_records()
    ok = True
    for _, _, _, c, bound in generic:
        ok = ok and abs(c) >= bound - 1e-8
    for rep, _, _ in folds:
        ok = ok and rep.c_value is not None
        ok = ok and abs(rep.c_value) >= rep.c_bound - 1e-8
    report(capsys, 5, "curvature scalar lower bound", ok)


# --- criterion 6: exact regions ------------------------------------------

def test_criterion_06_region_exactness(capsys):
    ok = True
    reg = maximal_region(2, 1)
    got = {lab: v.as_pair() for lab, v in zip(reg.labels, reg.vertices)}
    ok = ok and got == {"Q1": (F(0), F(0)), "Q2": (F(3, 4), F(3, 4)),
                        "Q3": (F(2, 3), F(1, 3)), "Q4": (F(5, 8), F(1, 4))}
    for n in range(2, 7):
        d = 2 * n + 1
        reg_n = maximal_region(n, 1)
        got_n = {lab: v.as_pair()
                 for lab, v in zip(reg_n.labels, reg_n.vertices)}
        nn = 2 * n * n + 3 * n + 2
        ok = ok and got_n == {
            "Q1": (F(0), F(0)),
            "Q2": (F(2 * n - 1, 2 * n), F(2 * n - 1, 2 * n)),
            "Q3": (F(n, n + 1), F(1, n + 1)),
            "Q4": (F(2 * n * n + n, nn), F(2 * n, nn)),
        }
        ok = ok and d == 2 * n + 1
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            d = 2 * n + m
            reg_nm = maximal_region(n, m)
            q4 = dict(zip(reg_nm.labels, reg_nm.vertices))["Q4"]
            got_b = bourgain_vertex(
                F(1), F(0), m + 1,
                F(1, 2), F(d - 1, 2 * (d + 1)),
                F(d * (d - 1), 2 * (d + 1)) - F(m + 1, 2))
            ok = ok and got_b.as_pair() == q4.as_pair()
    trap = averaging_region(1, 1)
    pairs = {v.as_pair() for v in trap.vertices}
    ok = ok and pairs == {(F(0), F(0)), (F(1), F(1)),
                          (F(2, 3), F(1, 2)), (F(1, 2), F(1, 3))}
    report(capsys, 6, "exact rational regions", ok)


# --- criterion 7: counterexample slopes ----------------------------------

def ladder_ok(rows, target, tol=0.15):
    fit = fit_exponent(rows)
    return (abs(fit.slope - target) <= tol and fit.r_squared >= 0.98,
            fit)


def test_criterion_07_counterexample_slopes(capsys):
    ok = True
    s1 = standard_heisenberg(1)
    s2 = standard_heisenberg(2)
    s2n = normalized_heisenberg(2)
    long_ladder = [2.0 ** -k for k in range(3, 8)]
    short_ladder = [2.0 ** -k for k in range(3, 6)]

    good, _ = ladder_ok(run_ladder(lambda d: ball_example(s1, d),
                                   long_ladder, 1.0, math.inf), -2.0)
    ok = ok and good
    good, _ = ladder_ok(run_ladder(lambda d: ball_example(s2, d),
                                   short_ladder, 2.0, 4.0), 0.75)
    ok = ok and good
    good, _ = ladder_ok(run_ladder(lambda d: knapp_example(s2n, d),
                                   short_ladder, 2.0, 4.0), 0.5)
    ok = ok and good
    scaling_rows = run_ladder(lambda d: scaling_example(s1, d),
                              long_ladder, 2.0, 2.0)
    good, _ = ladder_ok(scaling_rows, 0.5)
    ok = ok and good
    # the region-average value must stay bounded below uniformly in delta
    floor = None
    for delta in long_ladder + [2.0 ** -6]:
        inst = scaling_example(s1, delta)
        pts, _ = inst.test_region.points_and_weights()
        t = np.clip(inst.time(pts), 1.0, 2.0)
        vals = spherical_average_batch(s1, inst.field, t, pts, inst.rule)
        mean = float(np.mean(vals))
        floor = mean if floor is None else floor
        ok = ok and mean >= 0.5 * floor
    good, _ = ladder_ok(run_ladder(lambda d: moment_example(d),
                                   long_ladder, 2.0, 2.0), 1.0)
    ok = ok and good
    report(capsys, 7, "counterexample slope ladder", ok)


# --- criterion 8: divergence diagnostic ----------------------------------

def test_criterion_08_divergence_diagnostic(capsys):
    curve = stein_probe_curve(0.9, 30, j_lo=10)
    mono = bool(np.all(np.diff(curve[:, 1]) > 0))
    expo = stein_growth_exponent(curve)
    report(capsys, 8, "singular density divergence",
           mono and abs(expo - 0.1) <= 0.2)


# --- criterion 9: exponents vanish on region edges -----------------------

def test_criterion_09_edge_consistency(capsys):
    ok = True

    def segment(a, b):
        for th in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            yield (a[0] + th * (b[0] - a[0]), a[1] + th * (b[1] - a[1]))

    for n in (1, 2, 3):
        for m in (1, 2):
            d = 2 * n + m
            D = d * (d - 1) + (d + 1) * (m + 1)
            q2 = (F(d - m - 1, d - m), F(d - m - 1, d - m))
            q3 = (F(d - 1, d + m), F(m + 1, d + m))
            q4 = (F(d * (d - 1), D), F((m + 1) * (d - 1), D))
            for ip, iq in segment(q2, q3):
                ok = ok and predicted_exponent("ball", n, m, 1 / ip,
                                               1 / iq) == 0
            for ip, iq in segment((F(0), F(0)), q4):
                if ip == 0:
                    continue
                ok = ok and predicted_exponent("scaling", n, m, 1 / ip,
                                               1 / iq) == 0
    for n in (2, 3):
        d = 2 * n + 1
        D = d * (d - 1) + 2 * (d + 1)
        q3 = (F(n, n + 1), F(1, n + 1))
        q4 = (F(d * (d - 1), D), F(2 * (d - 1), D))
        for ip, iq in segment(q3, q4):
            ok = ok and predicted_exponent("knapp", n, 1, 1 / ip,
                                           1 / iq) == 0
    for ip, iq in segment((F(1, 2), F(1, 3)), (F(2, 3), F(1, 2))):
        ok = ok and predicted_exponent("moment", 1, 1, 1 / ip, 1 / iq) == 0
    report(capsys, 9, "exponents vanish on region edges", ok)


# --- criterion 10: determinism -------------------------------------------

def test_criterion_10_determinism(tmp_path, capsys):
    ok = True
    pairs = [
        (["geometry", "--seed", "5", "--set", "points=8",
          "--set", "fold_points=4"], "geom"),
        (["counterexample", "--set", "family=moment",
          "--set", "deltas=2^-3,2^-4,2^-5"], "moment"),
        (["lemma-check", "--seed", "5", "--set", "samples=40"], "lemma"),
        (["region", "--set", "region=maximal"], "region"),
    ]
    for args, name in pairs:
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        ok = ok and cli_main(args + ["--out", str(a)]) == 0
        ok = ok and cli_main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(capsys, 10, "byte-identical reruns", ok)
