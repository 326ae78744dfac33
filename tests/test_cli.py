"""Command line driver: exit codes, config handling, output determinism."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislab import cli, families
from heislab.cli import (ConfigError, apply_overrides, load_config, main,
                         parse_deltas, parse_rational)
from oracles import lemma_check_table


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- config plumbing ------------------------------------------------------

def test_load_config_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nfamily = ball\nn=2\n\ndeltas=2^-3,2^-4\n")
    cfg = load_config(str(path))
    assert cfg == {"family": "ball", "n": "2", "deltas": "2^-3,2^-4"}
    cfg = apply_overrides(cfg, ["n=1", "p = 2"])
    assert cfg["n"] == "1"
    assert cfg["p"] == "2"
    with pytest.raises(OSError):
        load_config(str(tmp_path / "missing.cfg"))


def test_malformed_config_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("family ball\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        apply_overrides({}, ["noequals"])


def test_parse_rational():
    from fractions import Fraction
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("inf") == float("inf")
    with pytest.raises(ConfigError):
        parse_rational("three")


def test_parse_deltas():
    assert parse_deltas("2^-3, 0.25") == [0.125, 0.25]
    with pytest.raises(ConfigError):
        parse_deltas("")
    with pytest.raises(ConfigError, match="too large"):
        parse_deltas("2^2000,2^-4,2^-5")
    # a complex power and a zero to a negative power are no real deltas
    for bad in ("-8^0.5", "0^-1"):
        with pytest.raises(ConfigError,
                           match=re.escape(f"cannot parse delta '{bad}'")):
            parse_deltas(f"{bad},2^-4,2^-5")


def test_default_counterexample_ratios(capsys):
    # ball on H^2, p = q = 2, delta = 2^-3 .. 2^-7: no other test or bench
    # reference covers the rungs 2^-5 .. 2^-7, whose averages cull the most
    # sphere nodes; these are the ratios of the average over every node of
    # the full factor masks
    code, out, _ = run(["counterexample"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "# verdict=pass"
    ratios = [float(line.split(",")[6]) for line in out.splitlines()
              if line.startswith("ball,")]
    assert ratios == pytest.approx([
        0.023342518234469443, 0.011961983338910766, 0.006010260409692177,
        0.0030068475812585634, 0.0015087465376203647], rel=1e-9, abs=0.0)


# --- table layout ---------------------------------------------------------

GEOMETRY_COLUMNS = ("x0,x1,x2,x3,x4,t,y0,y1,y2,y3,y4,sigma,rank_xi,"
                    "rank_spatial,rank_curv,c_value,c_bound")


@pytest.mark.parametrize("argv, head, columns, tail", [
    (["group-check", "--set", "samples=5"], [],
     "check,worst_error,tolerance,status", []),
    (["lemma-check", "--set", "samples=5"], [],
     "size,rho,formula,bruteforce,rel_error,status", []),
    (["geometry", "--set", "points=2", "--set", "fold_points=1"],
     ["# smallness_margin="], GEOMETRY_COLUMNS,
     ["# status= deviations="]),
    (["counterexample", "--set", "family=moment",
      "--set", "deltas=2^-3,2^-4,2^-5"], [],
     "family,n,m,p,q,delta,ratio,predicted_exponent",
     ["# slope= intercept= r_squared=",
      "# predicted= tolerance= max_residual= residual_bound=",
      "# verdict="]),
    (["counterexample", "--set", "family=stein", "--set", "j_hi=12"],
     ["# alpha="], "j,value", ["# growth_exponent= expected=", "# verdict="]),
    (["region", "--set", "region=maximal"], [],
     "label,ip,iq,excluded_strong,excluded_rwt", []),
], ids=["group-check", "lemma-check", "geometry", "counterexample", "stein",
        "region"])
def test_table_layout(argv, head, columns, tail, capsys):
    # every table: the schema line, '# key=value' head comments, the column
    # row, rows of as many cells, '# key=value' tail comments
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    keys = [re.sub(r"=[^ ]*", "=", line) for line in lines]
    assert lines[0] == "# schema=1"
    assert keys[1:1 + len(head)] == head
    assert lines[1 + len(head)] == columns
    assert keys[len(lines) - len(tail):] == tail
    rows = lines[2 + len(head):len(lines) - len(tail)]
    assert rows
    assert all(len(row.split(",")) == columns.count(",") + 1 for row in rows)
    assert "np.float64" not in out


# --- exit codes -----------------------------------------------------------

def test_group_check_passes(capsys):
    code, out, err = run(["group-check", "--set", "samples=50"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "check,worst_error,tolerance,status"
    assert all(line.endswith("pass") for line in lines[2:6])
    assert any(line.startswith("margin,") and line.endswith(",ok")
               for line in lines)


@pytest.mark.parametrize("structure, has_row", [
    (["kind=quaternionic", "m=1"], True),
    (["kind=quaternionic", "m=2"], True),
    (["kind=quaternionic", "m=3"], True),
    (["kind=normalized", "n=1"], True),
    (["kind=normalized", "n=2"], True),
    (["kind=heisenberg"], False),
], ids=["quaternionic-m1", "quaternionic-m2", "quaternionic-m3",
        "normalized-n1", "normalized-n2", "heisenberg"])
def test_group_check_htype_row(structure, has_row, capsys):
    # the H-type identity (J^theta)^2 = -|theta|^2 I is checked for every
    # H-type kind, whatever its center dimension; the half-scaled
    # heisenberg structure is not H-type
    argv = ["group-check", "--set", "samples=20"]
    for entry in structure:
        argv += ["--set", entry]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("htype,")]
    assert len(rows) == has_row
    assert all(row.endswith(",pass") for row in rows)


def test_group_check_negative_margin_warns(capsys):
    # a large tilt flips the margin sign; that is a measurement, not an
    # error, so the command still exits 0 with a warning row
    code, out, _ = run(["group-check", "--set", "samples=20",
                        "--set", "n=1", "--set", "tilt=1,0"], capsys)
    assert code == 0
    assert any(line.startswith("margin,")
               and line.endswith(",warning-nonpositive")
               for line in out.strip().split("\n"))


@pytest.mark.parametrize("argv", [
    ["group-check", "--set", "tilt=1e160,0,0,0"],
    ["group-check", "--set", "tilt=1e308,1e308,0,0"],
    ["geometry", "--set", "tilt=1e200,0,0,0", "--set", "points=2"],
    ["geometry", "--set", "tilt=1e308,1e308,0,0"],
    ["counterexample", "--set", "tilt=1e154,0,0,0",
     "--set", "deltas=2^-3,2^-4,2^-5"],
], ids=["group-check-1e160", "group-check-1e308", "geometry-1e200",
        "geometry-1e308", "ball-1e154"])
def test_tilt_past_the_float_bound_exits_2(argv, capsys):
    # entries past 2^128 are refused when the structure is built, before any
    # overflow; Tier-1 turns any numpy RuntimeWarning into an error
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at most 2^128" in err


BOUND = repr(2.0 ** 128)      # the largest entry MetivierStructure takes


@pytest.mark.parametrize("argv", [
    ["group-check", "--set", "samples=20",
     "--set", f"tilt={BOUND},-{BOUND},{BOUND},{BOUND}"],
    ["geometry", "--set", "points=5", "--set", "fold_points=5",
     "--set", f"tilt={BOUND},-{BOUND},{BOUND},{BOUND}"],
    ["counterexample", "--set", f"tilt={BOUND},-{BOUND},{BOUND},{BOUND}",
     "--set", "deltas=2^-3,2^-4,2^-5"],
    ["counterexample", "--set", "family=scaling", "--set", "n=1",
     "--set", f"tilt={BOUND},-{BOUND}", "--set", "deltas=2^-3,2^-4,2^-5"],
], ids=["group-check", "geometry", "ball", "scaling"])
def test_tilt_at_the_float_bound_runs_without_overflow(argv, capsys):
    # tilt entries at the bound: the commands judge the structure (the ball
    # field misses every node, so that ladder exits 2), and no numpy
    # operation overflows on the way
    code, _, err = run(argv, capsys)
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("no equals sign here\n")
    code, _, err = run(["counterexample", "--config", str(path)], capsys)
    assert code == 2
    assert "error:" in err


def test_unknown_family_exits_2(capsys):
    code, _, err = run(["counterexample", "--set", "family=wave"], capsys)
    assert code == 2
    assert "error:" in err


def test_memory_error_exits_2(capsys, monkeypatch):
    # a request too large for memory, such as group-check with 10^9 samples,
    # ends in one error line, not a traceback; nothing is allocated here
    def too_large(cfg, args):
        raise MemoryError("Unable to allocate 119. GiB")

    monkeypatch.setitem(cli.COMMANDS, "group-check", too_large)
    code, out, err = run(["group-check", "--set", "samples=1000000000"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err == "error: Unable to allocate 119. GiB\n"


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(["counterexample", "--config", "/nonexistent.cfg"],
                       capsys)
    assert code == 2


@pytest.mark.parametrize("argv, keys", [
    (["group-check", "--set", "sampels=20"], ("sampels",)),
    (["lemma-check", "--set", "sampels=3"], ("sampels",)),
    (["geometry", "--set", "points=2", "--set", "tolerance=0"],
     ("tolerance",)),
    (["counterexample", "--set", "family=stein", "--set", "j_high=12"],
     ("j_high",)),
    (["region", "--set", "regoin=averaging", "--set", "n=1"], ("regoin",)),
    # keys that the chosen kind or family does not read
    (["group-check", "--set", "m=2"], ("m",)),
    (["group-check", "--set", "kind=quaternionic", "--set", "n=9",
      "--set", "samples=3"], ("n",)),
    (["counterexample", "--set", "family=moment", "--set", "n=7",
      "--set", "t=1.9"], ("n", "t")),
    (["counterexample", "--set", "family=ball", "--set", "alpha=0.5"],
     ("alpha",)),
], ids=["group-check", "lemma-check", "geometry", "counterexample", "region",
        "heisenberg-m", "quaternionic-n", "moment-n-t", "ball-alpha"])
def test_unknown_key_exits_2(argv, keys, capsys):
    # a misspelled key, or one the chosen kind or family ignores, would
    # otherwise leave its default in force
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert re.match(r"error: unknown keys? ", err) and err.count("\n") == 1
    assert argv[0] in err
    assert all(repr(key) in err for key in keys)


@pytest.mark.parametrize("argv, entry", [
    (["group-check", "--set", "samples=1e3"], "samples='1e3'"),
    (["geometry", "--set", "points=x"], "points='x'"),
    (["geometry", "--set", "fold_points=2.5"], "fold_points='2.5'"),
    (["group-check", "--set", "n=x"], "n='x'"),
    (["region", "--set", "n=2.5"], "n='2.5'"),
    (["region", "--set", "m=one"], "m='one'"),
    (["group-check", "--set", "kind=quaternionic", "--set", "blocks=1.0"],
     "blocks='1.0'"),
    (["counterexample", "--set", "family=stein", "--set", "j_lo=ten"],
     "j_lo='ten'"),
    (["counterexample", "--set", "family=stein", "--set", "j_hi=abc"],
     "j_hi='abc'"),
], ids=["samples", "points", "fold_points", "n", "region-n", "m", "blocks",
        "j_lo", "j_hi"])
def test_bad_integer_names_its_key(argv, entry, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {entry}: must be an integer\n"


@pytest.mark.parametrize("argv, message", [
    (["group-check", "--set", "tolerance=abc"],
     "tolerance='abc': must be a number"),
    (["counterexample", "--set", "family=stein", "--set", "alpha=x"],
     "alpha='x': must be a number"),
    (["counterexample", "--set", "family=scaling", "--set", "n=1",
      "--set", "t=1.5.0"], "t='1.5.0': must be a number"),
    (["group-check", "--set", "n=1", "--set", "tilt=1,x"],
     "tilt='1,x': must be 2n finite numbers on a one-dimensional center"),
], ids=["tolerance", "alpha", "t", "tilt"])
def test_bad_real_names_its_key(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, key, value, message", [
    (["counterexample"], "tolerance", "a\nb", "must be a number"),
    (["group-check"], "n", "a\nb", "must be an integer"),
    # from Python 3.12 on, Fraction allows whitespace around the slash, so
    # these reach the exponent checks; before, parse_rational refuses them
    (["counterexample"], "p", "1\n/2",
     "exponent must be >= 1 or inf|cannot parse rational"),
    (["counterexample"], "q", "1" + "0" * 400 + "\n/1",
     "exponent is too large for a float|cannot parse rational"),
    (["group-check", "--set", "n=1"], "tilt", "1,\nx",
     "must be 2n finite numbers"),
    # float() allows a leading newline, so this tilt parses and is refused
    (["group-check"], "tilt", "1e160,\n0,0,0", "Lambda entries"),
], ids=["real", "integer", "exponent", "exponent-too-large", "tilt",
        "tilt-refused"])
def test_value_with_a_newline_prints_one_error_line(argv, key, value,
                                                    message, capsys):
    # the raw text is quoted by repr, so its newline stays on the one line
    code, out, err = run([*argv, "--set", f"{key}={value}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(value) in err and re.search(message, err)


def test_unknown_key_in_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "region.cfg"
    path.write_text("region=averaging\nn=1\nformat=svg\n")
    code, out, err = run(["region", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: unknown key 'format' for region; its keys are "
                   "region, n, m\n")


def test_bad_structure_kind_exits_2(capsys):
    code, _, err = run(["group-check", "--set", "kind=free"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["geometry", "--set", "points=-3", "--set", "fold_points=-1"],
    ["geometry", "--set", "points=5", "--set", "fold_points=-1"],
    ["geometry", "--set", "points=0", "--set", "fold_points=0"],
    ["lemma-check", "--set", "samples=0"],
    ["lemma-check", "--set", "samples=-4"],
    ["group-check", "--set", "samples=0"],
])
def test_run_that_checks_nothing_exits_2(argv, capsys):
    # a certificate over zero or a negative number of samples checks
    # nothing, so it is a usage error, not a pass
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# --- lemma check ----------------------------------------------------------

def test_lemma_check(capsys):
    code, out, _ = run(["lemma-check", "--set", "samples=50", "--seed", "3"],
                       capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "size,rho,formula,bruteforce,rel_error,status"
    assert len(lines) == 52
    assert all(line.endswith(",pass") for line in lines[2:])
    assert "np.float64" not in out


@pytest.mark.parametrize("samples", [1, 7, 50, 2000])
@pytest.mark.parametrize("seed", range(4))
def test_lemma_check_bytes_match_the_per_sample_loop(seed, samples, capsys):
    # the CLI checks its draws in one stack per matrix size; at 1 and 7
    # samples some sizes are drawn once and make stacks of one matrix
    code, out, _ = run(["lemma-check", "--seed", str(seed),
                        "--set", f"samples={samples}"], capsys)
    assert code == 0
    assert out.encode() == lemma_check_table(seed, samples)


# --- geometry -------------------------------------------------------------

def test_geometry_certified(tmp_path, capsys):
    out_path = tmp_path / "geom.csv"
    code, _, _ = run(["geometry", "--seed", "7", "--out", str(out_path),
                      "--set", "points=10", "--set", "fold_points=5"],
                     capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# schema=1")
    assert "# status=certified deviations=0" in text
    assert "np.float64" not in text


def test_geometry_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["geometry", "--seed", "11", "--set", "points=6",
            "--set", "fold_points=3"]
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run(["geometry", "--seed", "12", "--set", "points=6",
                "--set", "fold_points=3", "--out", str(c)], capsys)[0] == 0
    assert a.read_bytes() != c.read_bytes()


def test_geometry_uncertified_margin(tmp_path, capsys):
    # tilt too large for the smallness condition: status flips to
    # uncertified and deviations no longer fail the run
    cfg = tmp_path / "tilt.cfg"
    cfg.write_text("kind=heisenberg\nn=2\npoints=5\nfold_points=0\n"
                   "tilt=1,0,0,0\n")
    code, out, _ = run(["geometry", "--config", str(cfg)], capsys)
    assert code == 0
    assert "# status=uncertified" in out


@pytest.mark.parametrize("kind", [[], ["--set", "kind=quaternionic"]],
                         ids=["heisenberg", "quaternionic-m3"])
def test_geometry_c_value_is_nonnegative(kind, capsys):
    # c is odd in the normal N, and N's sign at a fold point is the SVD's:
    # the entry N_{2n} that could fix it is zero to rounding there, so the
    # report keeps |c| and the bytes do not depend on LAPACK's rounding
    code, out, _ = run(["geometry", *kind], capsys)
    assert code == 0
    lines = [line.split(",") for line in out.splitlines()
             if not line.startswith("#")]
    col = lines[0].index("c_value")
    fold = [row[col] for row in lines[1:] if row[col]]
    assert len(fold) == 50
    assert not [c for c in fold if c.startswith("-")]


def test_geometry_fold_points_only(capsys):
    code, out, _ = run(["geometry", "--set", "points=0",
                        "--set", "fold_points=3"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 3 + 3 + 1
    assert out.endswith("# status=certified deviations=0\n")


# --- counterexample -------------------------------------------------------

def test_counterexample_scaling_pass(tmp_path, capsys):
    out_path = tmp_path / "scaling.csv"
    code, _, _ = run(["counterexample", "--set", "family=scaling",
                      "--set", "n=1", "--set", "deltas=2^-3,2^-4,2^-5",
                      "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# schema=1")
    assert "family,n,m,p,q,delta,ratio,predicted_exponent" in text
    assert "# predicted=1/2" in text
    assert "# verdict=pass" in text


def test_counterexample_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["counterexample", "--set", "family=moment",
            "--set", "deltas=2^-3,2^-4,2^-5"]
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_counterexample_stein_diagnostic(capsys):
    code, out, _ = run(["counterexample", "--set", "family=stein",
                        "--set", "j_lo=10", "--set", "j_hi=30"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert "j,value" in lines
    assert any(line.startswith("# growth_exponent=") for line in lines)
    assert "# verdict=pass" in lines
    assert "np.float64" not in out


def test_counterexample_stein_honours_tolerance(capsys):
    # the default alpha misses 1 - alpha by about 0.026: inside the default
    # tolerance 0.2, outside 1e-9
    code, out, _ = run(["counterexample", "--set", "family=stein",
                        "--set", "tolerance=1e-9"], capsys)
    assert code == 1
    assert "# verdict=FAIL" in out.splitlines()


@pytest.mark.parametrize("levels", [
    ["--set", "j_lo=20", "--set", "j_hi=10"],
    ["--set", "j_hi=1"],
    ["--set", "j_lo=29", "--set", "j_hi=30"],
])
def test_counterexample_short_stein_range_exits_2(levels, capsys):
    code, out, err = run(["counterexample", "--set", "family=stein",
                          *levels], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at least 3 levels" in err


def test_counterexample_stein_curve_not_finite_exits_2(capsys):
    # the probe curve overflows from j = 1025 on
    code, out, err = run(["counterexample", "--set", "family=stein",
                          "--set", "j_hi=1100"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "j_hi=1100" in err
    assert len(err.strip().splitlines()) == 1
    code, out, _ = run(["counterexample", "--set", "family=stein",
                        "--set", "j_hi=1024"], capsys)
    assert code == 0 and "# verdict=pass" in out.splitlines()


def test_counterexample_tight_tolerance_fails(tmp_path, capsys):
    # quadrature bias exceeds an artificially tight slope tolerance, so
    # the verdict flips and the exit code reports the assertion failure
    code, out, _ = run(["counterexample", "--set", "family=ball",
                        "--set", "n=1", "--set", "p=1", "--set", "q=inf",
                        "--set", "deltas=2^-3,2^-4,2^-5",
                        "--set", "tolerance=1e-4"], capsys)
    assert code == 1
    assert "# verdict=FAIL" in out


def test_counterexample_exponent_below_one_exits_2(capsys):
    code, out, err = run(["counterexample", "--set", "family=moment",
                          "--set", "p=1/2",
                          "--set", "deltas=2^-3,2^-4,2^-5"], capsys)
    assert code == 2
    assert "verdict" not in out
    assert "error:" in err and ">= 1" in err


@pytest.mark.parametrize("exponent, message", [
    # 1/0 in the predicted exponent: rejected before it is computed
    pytest.param("p=0", ">= 1", id="p=0"),
    pytest.param("q=0", ">= 1", id="q=0"),
    # float(p) in the ladder would overflow
    pytest.param("p=1e400", "too large for a float", id="p=1e400"),
    pytest.param("q=1e400", "too large for a float", id="q=1e400"),
])
def test_counterexample_zero_exponent_exits_2(exponent, message, capsys):
    code, out, err = run(["counterexample", "--set", exponent,
                          "--set", "deltas=2^-3,2^-4,2^-5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("deltas, message", [
    ("2^-3,2^-4,2^-4", "strictly decreasing"),
    ("2^-4,2^-3,2^-5", "strictly decreasing"),
    ("2^-3,2^-4", "at least 3"),
    # a delta out of range after three good ones: no rung may run first
    ("2^-5,2^-6,2^-7,-1", "(0, 1/4]"),
    ("2^-5,2^-6,2^-7,nan", "(0, 1/4]"),
    ("0.5,2^-3,2^-4", "(0, 1/4]"),
])
def test_counterexample_bad_ladder_exits_before_first_rung(
        deltas, message, capsys, monkeypatch):
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran on a ladder that cannot be fitted")

    monkeypatch.setattr(families, "ball_example", no_rung)
    monkeypatch.setattr(families, "operator_ratio", no_rung)
    code, out, err = run(["counterexample", "--set", f"deltas={deltas}"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("deltas, message", [
    ("2^-5,2^-6,2^-7,-1", "delta=-1.0 must lie in (0, 1/4]"),
    ("2^-5,2^-6,2^-7,nan", "delta=nan must lie in (0, 1/4]"),
    ("0.5,2^-3,2^-4", "delta=0.5 must lie in (0, 1/4]"),
])
def test_counterexample_out_of_range_delta_is_named(deltas, message, capsys):
    code, out, err = run(["counterexample", "--set", f"deltas={deltas}"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("structure, deltas, message", [
    # 2^2000 overflows a float as it is parsed
    ([], "2^2000,2^-4,2^-5", "too large for a float"),
    # the 2^-1000 rung would need a circle rule of 64 * 2^1000 nodes
    (["--set", "n=1"], "2^-3,2^-4,2^-1000", "sphere rule of more than"),
    # a node count such as 2/delta is inf for a subnormal delta: the rule's
    # node limit must refuse it before int() would raise OverflowError
    ([], "2^-1070,2^-1071,2^-1072", "sphere rule of more than"),
    (["--set", "family=knapp", "--set", "kind=normalized"],
     "2^-1070,2^-1071,2^-1072", "sphere rule of more than"),
    (["--set", "family=moment"], "2^-1070,2^-1071,2^-1072",
     "sphere rule of more than"),
    (["--set", "n=1"], "2^-1070,2^-1071,2^-1072", "sphere rule of more than"),
    # finite float counts whose node product overflows a float
    (["--set", "family=knapp", "--set", "kind=normalized"],
     "2^-3,2^-4,2^-600", "sphere rule of more than"),
    # powers that are no real number
    ([], "-8^0.5,2^-4,2^-5", "cannot parse delta '-8^0.5'"),
    ([], "0^-1,2^-4,2^-5", "cannot parse delta '0^-1'"),
    # the 2^-7 rung's q-sum underflows to 0 although its averages do not
    (["--set", "n=1", "--set", "q=200"], "2^-3,2^-4,2^-5,2^-6,2^-7",
     "ball delta=0.0078125: sum w |A_t f|^q = 0.0 at q=200.0"),
])
def test_counterexample_extreme_deltas_exit_2(structure, deltas, message,
                                              capsys):
    code, out, err = run(["counterexample", *structure,
                          "--set", f"deltas={deltas}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


MOMENT = ["counterexample", "--set", "family=moment",
          "--set", "deltas=2^-3,2^-4,2^-5"]


@pytest.mark.parametrize("argv", [
    MOMENT + ["--set", "tolerance=-1"],
    MOMENT + ["--set", "tolerance=nan"],
    MOMENT + ["--set", "tolerance=inf"],
    ["group-check", "--set", "samples=5", "--set", "tolerance=nan"],
    ["lemma-check", "--set", "samples=5", "--set", "tolerance=-1e-10"],
])
def test_bad_tolerance_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tolerance" in err


@pytest.mark.parametrize("structure", [
    ["--set", "family=ball", "--set", "n=3"],
    ["--set", "family=knapp", "--set", "kind=normalized", "--set", "n=3"],
    ["--set", "family=ball", "--set", "kind=quaternionic", "--set", "m=2"],
    ["--set", "family=scaling", "--set", "kind=quaternionic", "--set", "m=2"],
    ["--set", "n=1", "--set", "tilt=nan,0"],
])
def test_counterexample_unsupported_structure_exits_2(structure, capsys):
    code, out, err = run(["counterexample", *structure,
                          "--set", "deltas=2^-3,2^-4,2^-5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# a signed decimal, optionally raised to a signed decimal power
NUMBER = st.from_regex(
    r"[-+]?\d{1,3}(\.\d{0,2})?(\^[-+]?\d{1,3}(\.\d{0,2})?)?", fullmatch=True)
ENTRY = st.one_of(NUMBER, st.text(max_size=6))
# drawn lists are seldom ladders, so whole 2^-k ladders are drawn too
LADDERS = st.one_of(
    *(st.lists(e, min_size=1, max_size=5).map(",".join)
      for e in (NUMBER, ENTRY)),
    st.lists(st.integers(2, 40), min_size=3, max_size=6, unique=True).map(
        lambda ks: ",".join(f"2^-{k}" for k in sorted(ks))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional={
    "p": ENTRY, "q": ENTRY, "t": ENTRY, "tolerance": ENTRY,
    "deltas": LADDERS}))
@example({"deltas": "-8^0.5,2^-4,2^-5"})
@example({"deltas": "0^-1,2^-4,2^-5"})
def test_counterexample_number_keys_exit_0_1_or_2(entries):
    argv = ["counterexample", "--set", "family=scaling", "--set", "n=1"]
    for key, value in entries.items():
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with (pytest.MonkeyPatch.context() as patch, redirect_stdout(out),
          redirect_stderr(err)):
        # each ratio equals its delta, so no rung is computed
        patch.setattr(families, "run_ladder", lambda make, deltas, p, q:
                      [(float(d), float(d)) for d in deltas])
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert err.startswith("error:")
        # a drawn value may put a line break into the message
        assert sum(line.startswith("error:") for line in err.split("\n")) == 1
    else:
        assert code in (0, 1) and err == ""
        assert out.endswith(f"# verdict={'pass' if code == 0 else 'FAIL'}\n")


# --- region ---------------------------------------------------------------

def test_region_csv(capsys):
    code, out, _ = run(["region", "--set", "region=maximal",
                        "--set", "n=2", "--set", "m=1"], capsys)
    assert code == 0
    assert "Q2,3/4,3/4,1,0" in out
    assert "Q4,5/8,1/4,1,0" in out


def test_region_svg(tmp_path, capsys):
    out_path = tmp_path / "region.svg"
    code, _, _ = run(["region", "--format", "svg", "--set",
                      "region=averaging", "--set", "n=1", "--set", "m=1",
                      "--out", str(out_path)], capsys)
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg")
    assert "</svg>" in svg


def test_region_unknown_exits_2(capsys):
    code, _, _ = run(["region", "--set", "region=restriction"], capsys)
    assert code == 2


# --- output ---------------------------------------------------------------

# one quick run of each command
QUICK = {
    "group-check": ["group-check", "--set", "samples=5"],
    "lemma-check": ["lemma-check", "--set", "samples=5"],
    "geometry": ["geometry", "--set", "points=2", "--set", "fold_points=1"],
    "counterexample": ["counterexample", "--set", "family=stein",
                       "--set", "j_hi=12"],
    "region": ["region", "--set", "region=maximal"],
}


@pytest.mark.parametrize("command", [c for c in QUICK if c != "region"])
def test_format_svg_is_for_region_only(command, capsys):
    code, out, err = run(QUICK[command] + ["--format", "svg"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --format svg: {command} writes csv only\n"


@pytest.mark.parametrize("command", QUICK)
def test_format_csv_is_the_default(command, capsys):
    assert (run(QUICK[command] + ["--format", "csv"], capsys)
            == run(QUICK[command], capsys))


@pytest.mark.parametrize("argv", [
    *QUICK.values(),
    ["region", "--set", "region=averaging", "--set", "n=1", "--format", "svg"],
], ids=[*QUICK, "region-svg"])
def test_out_writes_the_stdout_bytes(argv, tmp_path, capsys):
    code, out, _ = run(argv, capsys)
    path = tmp_path / "out"
    assert run(argv + ["--out", str(path)], capsys) == (code, "", "")
    assert path.read_bytes() == out.encode()


# --- imports --------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a fresh interpreter: prints "skip" when numpy itself loads
# numpy.random (numpy 1.x), else the sampling modules loaded after the
# sample-free commands, then after one sampling command.
IMPORT_PROBE = """
import contextlib, io, sys
import numpy
if "numpy.random" in sys.modules:
    print("skip")
    sys.exit()
import heislab
from heislab import cli
SAMPLING = ("numpy.random", "secrets", "_hashlib")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["region"]) == 0
    assert cli.main(["counterexample", "--set", "family=moment"]) == 0
print([m for m in SAMPLING if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["geometry", "--set", "points=1",
                     "--set", "fold_points=0"]) == 0
print("numpy.random" in sys.modules)
"""


def test_sample_free_commands_load_no_random_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    if done.stdout == "skip\n":
        pytest.skip("import numpy loads numpy.random itself (numpy 1.x)")
    assert done.stdout == "[]\nTrue\n"
