"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Where the CLI judges a check (criteria 1-4, 7 and 8), the criterion runs
the command and reads its verdict, so the tests and the CLI apply one rule;
the tests add what the CLI does not check.  The geometry run is shared
between criteria 4 and 5, and this file doubles as a runnable record of
the advertised tolerances.
"""

from fractions import Fraction

import numpy as np

from heislab.cli import main as cli_main
from heislab.families import predicted_exponent, scaling_example
from heislab.groups import standard_heisenberg
from heislab.phase import (C_SLACK, c_lower_bound, c_value,
                           sample_chart_point, xi_y)
from heislab.regions import (averaging_region, bourgain_vertex,
                             maximal_region)
from heislab.spheres import spherical_average_batch
from oracles import det_identity_rhs, fold_cone_curvature, normal_vector

F = Fraction


def report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}",
              flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def run_cli(capsys, argv):
    """Exit code, table rows (column row first) and last line of a run."""
    code = cli_main(argv)
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines
            if line and not line.startswith("#")]
    return code, rows, lines[-1] if lines else ""


def check_rows(capsys, argv):
    """Exit code and (first column, status) of each row of a check's CSV."""
    code, rows, _ = run_cli(capsys, argv)
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


# --- criteria 4 and 5: shared geometry run -------------------------------

GENERIC_POINTS, FOLD_POINTS = 100, 50
GEOMETRY = ["geometry", "--seed", "104", "--set", "n=2",
            "--set", f"points={GENERIC_POINTS}",
            "--set", f"fold_points={FOLD_POINTS}"]
_GEOMETRY_CACHE = {}


def geometry_run(capsys):
    """Exit code, last line and rows of the criterion-4 geometry run, each
    row as a dict of column -> text."""
    if "run" not in _GEOMETRY_CACHE:
        code, rows, last = run_cli(capsys, GEOMETRY)
        table = [dict(zip(rows[0], row)) for row in rows[1:]]
        _GEOMETRY_CACHE["run"] = (code, last, table)
    return _GEOMETRY_CACHE["run"]


def chart_point(row, d):
    """(x, t, y) of a geometry row; floats print by repr, so they are the
    CLI's points exactly."""
    x = np.array([float(row[f"x{i}"]) for i in range(d)])
    y = np.array([float(row[f"y{i}"]) for i in range(d)])
    return x, float(row["t"]), y


def test_criterion_04_rank_certificates(capsys):
    # the CLI judges the ranks and the c floor; the tests add the
    # determinant identity and the fold cone's curvature rank
    code, last, rows = geometry_run(capsys)
    s = standard_heisenberg(2)
    k = 2 * s.n - 1
    ok = (code == 0 and last == "# status=certified deviations=0"
          and len(rows) == GENERIC_POINTS + FOLD_POINTS)
    for i, row in enumerate(rows):
        x, t, y = chart_point(row, s.d)
        lhs = float(np.linalg.det(xi_y(s, x, t, y)[:-1]))
        rhs = det_identity_rhs(s, x, t, y)
        if i < GENERIC_POINTS:
            scale = max(abs(lhs), abs(rhs), 1e-30)
            ok = ok and abs(lhs - rhs) / scale <= 1e-8
        else:
            cone_rank, _, _ = fold_cone_curvature(s, x, t, y[:k], y[k + 1:])
            ok = ok and cone_rank == s.d - 2
            ok = ok and abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10
    report(capsys, 4, "rank and fold certificates", ok)


def test_criterion_05_c_lower_bound(capsys):
    # at the fold points the CLI's deviations count the c floor; the
    # generic points of its seed are checked here in the matched frame
    code, last, rows = geometry_run(capsys)
    ok = (code == 0 and last == "# status=certified deviations=0"
          and all(row["c_value"] and row["c_bound"]
                  for row in rows[GENERIC_POINTS:]))
    s = standard_heisenberg(2)
    k = 2 * s.n - 1
    rng = np.random.default_rng(104)
    for _ in range(GENERIC_POINTS):
        x, t, y = sample_chart_point(s, rng)
        x[:k] = y[:k]       # the matched frame x' = y', same draws
        N = normal_vector(s, x, t, y)
        ok = ok and (abs(c_value(s, x, t, y, N))
                     >= c_lower_bound(s, t, y, N) - C_SLACK)
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

LONG_LADDER = "deltas=2^-3,2^-4,2^-5,2^-6,2^-7"
SHORT_LADDER = "deltas=2^-3,2^-4,2^-5"
LADDERS = [
    ["family=ball", "n=1", "p=1", "q=inf", LONG_LADDER],
    ["family=ball", "n=2", "p=2", "q=4", SHORT_LADDER],
    ["family=knapp", "kind=normalized", "n=2", "p=2", "q=4", SHORT_LADDER],
    ["family=scaling", "n=1", "p=2", "q=2", LONG_LADDER],
    ["family=moment", "p=2", "q=2", LONG_LADDER],
]


def test_criterion_07_counterexample_slopes(capsys):
    ok = True
    for keys in LADDERS:
        argv = ["counterexample", "--set", "tolerance=0.15"]
        for key in keys:
            argv += ["--set", key]
        code, _, last = run_cli(capsys, argv)
        ok = ok and code == 0 and last == "# verdict=pass"
    # the region-average value must stay bounded below uniformly in delta
    s1 = standard_heisenberg(1)
    floor = None
    for k in (3, 4, 5, 6, 7, 6):
        inst = scaling_example(s1, 2.0 ** -k)
        pts, _ = inst.test_region.points_and_weights()
        t = np.clip(inst.time(pts), 1.0, 2.0)
        vals = spherical_average_batch(s1, inst.field, t, pts, inst.rule)
        mean = float(np.mean(vals))
        floor = mean if floor is None else floor
        ok = ok and mean >= 0.5 * floor
    report(capsys, 7, "counterexample slope ladder", ok)


# --- criterion 8: divergence diagnostic ----------------------------------

def test_criterion_08_divergence_diagnostic(capsys):
    # the stein verdict: the probe curve's growth exponent is within the
    # default tolerance 0.2 of 1 - alpha
    code, _, last = run_cli(capsys, [
        "counterexample", "--set", "family=stein", "--set", "alpha=0.9",
        "--set", "j_lo=10", "--set", "j_hi=30"])
    report(capsys, 8, "singular density divergence",
           code == 0 and last == "# verdict=pass")


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
