"""Counterexample families: geometry invariants, exponents, fitting, CSV."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from heislab.groups import (DomainError, normalized_heisenberg,
                            quaternionic_htype, standard_heisenberg)
from heislab.families import (ExampleInstance, ParamRegion, _box_region,
                              ball_example, c_one, c_ring, c_zero,
                              experiment_csv, fit_exponent, knapp_example,
                              knapp_frame, moment_example, moment_structure,
                              operator_ratio, predicted_exponent, run_ladder,
                              scaling_example, stein_growth_exponent,
                              stein_probe_curve)
from heislab.spheres import ScalarField, sphere_rule, spherical_average_batch

F = Fraction


# --- parametrized regions -------------------------------------------------

def test_param_region_measure():
    # quarter disc in polar coordinates: area pi/4
    def param(u):
        r = np.sqrt(u[:, 0])
        a = 0.5 * np.pi * u[:, 1]
        return (np.stack([r * np.cos(a), r * np.sin(a)], axis=1),
                0.25 * np.pi * np.ones(len(u)))

    reg = ParamRegion((40, 40), param)
    one = reg.lq_norm(lambda pts: np.ones(len(pts)), 1.0)
    assert one == pytest.approx(np.pi / 4.0, rel=1e-12)
    pts, w = reg.points_and_weights()
    mean = np.sum((pts[:, 0] ** 2 + pts[:, 1] ** 2) * w) / np.sum(w)
    assert mean == pytest.approx(0.5, rel=1e-3)
    sup = reg.lq_norm(lambda pts: pts[:, 0], np.inf)
    assert sup <= 1.0


def box_indicator(lo, hi, box_lo, box_hi):
    """Indicator of the box [lo, hi] declared on the larger box_lo..box_hi."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def ev(pts):
        return np.all((pts >= lo) & (pts <= hi), axis=1).astype(float)

    return ScalarField(ev, box_lo, box_hi, "box indicator")


def box_region(f, count):
    """The field's support-box region at count nodes per axis."""
    return replace(_box_region(f), counts=(count,) * len(f.support_lo))


def test_box_region_indicator_norms():
    f = box_indicator([0.0, 0.0], [0.5, 0.8], [-1.0, -1.0], [1.0, 1.0])
    reg = box_region(f, 48)
    vol = 0.4
    for p in (1.0, 2.0, 3.0):
        got = reg.lq_norm(f, p)
        assert abs(got - vol ** (1.0 / p)) / vol ** (1.0 / p) <= 0.02
    assert reg.lq_norm(f, np.inf) == 1.0


def test_lq_norm_homogeneity_exact():
    f = box_indicator([0.0, 0.0], [0.5, 0.8], [-1.0, -1.0], [1.0, 1.0])
    reg = box_region(f, 32)

    def doubled(pts):
        return 2.0 * f(pts)

    assert reg.lq_norm(doubled, 2.0) == 2.0 * reg.lq_norm(f, 2.0)


def test_lq_norm_scaling_jacobian_law():
    f = box_indicator([-1.0, -1.0], [1.0, 1.0], [-2.0, -2.0], [2.0, 2.0])
    reg = box_region(f, 64)
    c = 2.0

    def squeezed(pts):
        return f(c * pts)

    # |f(c .)|_p = c^{-dim/p} |f|_p, dim = 2
    for p in (1.0, 2.0):
        a = reg.lq_norm(f, p)
        b = reg.lq_norm(squeezed, p)
        assert b == pytest.approx(c ** (-2.0 / p) * a, rel=0.02)


def test_lq_norm_rejects_exponent_below_one():
    f = box_indicator([0.0], [1.0], [0.0], [1.0])
    reg = _box_region(f)
    for bad in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            reg.lq_norm(f, bad)


def test_field_region_seed_denominators():
    # the support-box lattice reproduces the seed's denominators
    cases = [
        (ball_example(standard_heisenberg(1), 0.125), 1.0, 8.147063078703706),
        (ball_example(standard_heisenberg(2), 0.125), 2.0, 4.014756944444445),
        (knapp_example(normalized_heisenberg(2), 0.125), 2.0,
         21.739549781247955),
    ]
    for inst, p, want in cases:
        assert inst.field_region.counts == (24,) * inst.structure.d
        got = inst.field_region.lq_norm(inst.field, p)
        assert got == pytest.approx(want, rel=1e-12)


def test_instance_rejects_unknown_family():
    s = standard_heisenberg(1)
    inst = ball_example(s, 0.125)
    with pytest.raises(DomainError):
        ExampleInstance("cone", 0.125, s, inst.field, inst.test_region,
                        inst.field_region, inst.time, inst.rule)


# --- operator ratio -------------------------------------------------------

def test_operator_ratio_field_homogeneity():
    s = standard_heisenberg(1)
    inst = ball_example(s, 0.125)
    base = operator_ratio(s, inst, 1.0, np.inf)
    f = inst.field

    def doubled(pts):
        return 2.0 * f(pts)

    f2 = ScalarField(doubled, f.support_lo, f.support_hi, "doubled")
    inst2 = ExampleInstance(inst.family, inst.delta, inst.structure, f2,
                            inst.test_region, inst.field_region,
                            inst.time, inst.rule)
    assert operator_ratio(s, inst2, 1.0, np.inf) == pytest.approx(base,
                                                                  rel=1e-12)


def test_operator_ratio_rejects_exponent_below_one():
    inst = moment_example(0.125)
    for p, q in ((0.5, 2.0), (2.0, 0.5)):
        with pytest.raises(DomainError, match=">= 1"):
            operator_ratio(inst.structure, inst, p, q)


def test_operator_ratio_zero_numerator_raises():
    # eight circle nodes all miss the ball of radius 10 * 2^-7
    s = standard_heisenberg(1)
    inst = replace(ball_example(s, 2.0 ** -7), rule=sphere_rule(1, 8))
    with pytest.raises(DomainError) as err:
        operator_ratio(s, inst, 1.0, math.inf)
    msg = str(err.value)
    assert "ball" in msg and repr(2.0 ** -7) in msg
    assert "no sphere node hits the field's support" in msg


def test_operator_ratio_clamps_time_map():
    # a time map outside [1, 2] acts as its clamped value
    def const(t):
        return lambda pts: np.full(len(pts), t)

    def ratio(inst, t):
        return operator_ratio(inst.structure, replace(inst, time=const(t)),
                              2.0, 2.0)

    moment = moment_example(0.125)
    assert ratio(moment, 0.2) == ratio(moment, 1.0)
    # the moment caps miss the field at t = 2; the ball's do not
    ball = ball_example(standard_heisenberg(1), 0.125)
    assert ratio(ball, 0.2) == ratio(ball, 1.0)
    assert ratio(ball, 7.0) == ratio(ball, 2.0)
    assert ratio(ball, 2.0) != ratio(ball, 1.0)


def test_families_reject_unsupported_structures():
    for s in (standard_heisenberg(3), quaternionic_htype(1, 2)):
        for make in (ball_example, scaling_example):
            with pytest.raises(DomainError, match="n <= 2, m = 1"):
                make(s, 0.125)


def test_delta_window():
    s = standard_heisenberg(1)
    for bad in (0.0, -0.1, 0.3):
        with pytest.raises(DomainError):
            ball_example(s, bad)


# --- predicted exponents --------------------------------------------------

def test_predicted_exponents_exact():
    assert predicted_exponent("ball", 1, 1, 1, math.inf) == F(-2)
    assert predicted_exponent("ball", 2, 1, 2, 4) == F(3, 4)
    assert predicted_exponent("knapp", 2, 1, 2, 4) == F(1, 2)
    assert predicted_exponent("scaling", 1, 1, 2, 2) == F(1, 2)
    assert predicted_exponent("moment", 1, 1, 2, 2) == F(1)
    assert predicted_exponent("ball", 1, 1, 1, 1) == F(-1)


def test_predicted_exponent_errors():
    with pytest.raises(DomainError):
        predicted_exponent("stein", 1, 1, 2, 2)
    with pytest.raises(DomainError):
        predicted_exponent("knapp", 2, 2, 2, 4)
    with pytest.raises(DomainError):
        predicted_exponent("moment", 2, 1, 2, 2)
    with pytest.raises(DomainError):
        predicted_exponent("wave", 1, 1, 2, 2)


def test_exponent_vanishes_on_matching_edges():
    # each family's exponent must be identically zero along its region edge
    def lerp(a, b, th):
        return (a[0] + th * (b[0] - a[0]), a[1] + th * (b[1] - a[1]))

    thetas = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
    for n in (1, 2, 3):
        for m in (1, 2):
            d = 2 * n + m
            D = d * (d - 1) + (d + 1) * (m + 1)
            q2 = (F(d - m - 1, d - m), F(d - m - 1, d - m))
            q3 = (F(d - 1, d + m), F(m + 1, d + m))
            q4 = (F(d * (d - 1), D), F((m + 1) * (d - 1), D))
            for th in thetas:
                ip, iq = lerp(q2, q3, th)
                assert predicted_exponent("ball", n, m, 1 / ip, 1 / iq) == 0
                ip, iq = lerp((F(0), F(0)), q4, th)
                if ip == 0:
                    continue
                assert predicted_exponent("scaling", n, m, 1 / ip,
                                          1 / iq) == 0
    for n in (2, 3):
        d = 2 * n + 1
        D = d * (d - 1) + 2 * (d + 1)
        q3 = (F(n, n + 1), F(1, n + 1))
        q4 = (F(d * (d - 1), D), F(2 * (d - 1), D))
        for th in thetas:
            ip, iq = lerp(q3, q4, th)
            assert predicted_exponent("knapp", n, 1, 1 / ip, 1 / iq) == 0
    for th in thetas:
        ip, iq = lerp((F(1, 2), F(1, 3)), (F(2, 3), F(1, 2)), th)
        assert predicted_exponent("moment", 1, 1, 1 / ip, 1 / iq) == 0


# --- fitting --------------------------------------------------------------

def test_fit_exact_power_law():
    deltas = [2.0 ** -k for k in range(3, 8)]
    fit = fit_exponent([(d, d ** 1.5) for d in deltas])
    assert fit.slope == pytest.approx(1.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_noisy_power_law():
    rng = np.random.default_rng(15)
    deltas = [2.0 ** -k for k in range(3, 9)]
    pts = [(d, 3.0 * d ** 0.75 * (1.0 + 0.01 * rng.uniform(-1, 1)))
           for d in deltas]
    fit = fit_exponent(pts)
    assert abs(fit.slope - 0.75) <= 0.05


def test_fit_constant_ratios():
    deltas = [2.0 ** -k for k in range(3, 7)]
    fit = fit_exponent([(d, 0.7) for d in deltas])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_validation():
    with pytest.raises(DomainError):
        fit_exponent([(0.5, 1.0), (0.25, 1.0)])
    with pytest.raises(DomainError):
        fit_exponent([(0.25, 1.0), (0.5, 1.0), (0.125, 1.0)])
    with pytest.raises(DomainError):
        fit_exponent([(0.5, 1.0), (0.25, 0.0), (0.125, 1.0)])


# --- ball family ----------------------------------------------------------

def test_ball_region_incidence_chain():
    # points of the test region paired with sphere directions near
    # ubar x / t keep the image inside the field ball scales
    for s in (standard_heisenberg(1), standard_heisenberg(2)):
        delta = 1.0 / 16.0
        inst = ball_example(s, delta)
        pts, _ = inst.test_region.points_and_weights()
        rng = np.random.default_rng(25)
        sel = rng.choice(len(pts), size=50, replace=False)
        two_n = 2 * s.n
        for i in sel:
            x = pts[i]
            ub = x[:two_n]
            t = float(np.linalg.norm(ub))
            assert 9.0 / 8.0 - 1e-12 <= t <= 15.0 / 8.0 + 1e-12
            # nearby direction on the sphere: within delta of ubar x / t
            step = rng.standard_normal(two_n)
            step *= rng.uniform() / np.linalg.norm(step)
            w = ub / t + (delta / (4.0 * t)) * step
            w = w / np.linalg.norm(w)
            assert np.linalg.norm(ub - t * w) <= delta
            center = (x[two_n:] - t * t * (s.Lambda @ w)
                      - t * s.commutator_form(ub, w))
            assert np.max(np.abs(center)) <= 3.0 * delta


def test_ball_field_and_constants():
    s = standard_heisenberg(1)
    assert c_ring(s) == pytest.approx(15.0)
    inst = ball_example(s, 0.125)
    f = inst.field
    assert f(np.zeros((1, 3)))[0] == 1.0
    assert f(np.array([[10.0, 0.0, 0.0]]))[0] == 0.0
    assert np.all(f.support_hi == 1.25)


def test_ball_two_rung_slope():
    s = standard_heisenberg(1)
    rows = run_ladder(lambda d: ball_example(s, d), [0.125, 0.0625],
                      1.0, math.inf)
    e = math.log(rows[1][1] / rows[0][1]) / math.log(0.5)
    assert abs(e - (-2.0)) <= 0.2


# --- scaling family -------------------------------------------------------

def test_scaling_average_is_one_on_region():
    s = standard_heisenberg(1)
    assert c_zero(s) == pytest.approx(5.0)
    for delta in (0.125, 0.03125):
        inst = scaling_example(s, delta)
        pts, _ = inst.test_region.points_and_weights()
        t = np.clip(inst.time(pts), 1.0, 2.0)
        vals = spherical_average_batch(s, inst.field, t, pts, inst.rule)
        assert np.min(vals) >= 0.999
        assert np.max(vals) <= 1.0 + 1e-12


def test_scaling_ratio_exact_halving():
    s = standard_heisenberg(1)
    rows = run_ladder(lambda d: scaling_example(s, d),
                      [0.25, 0.125, 0.0625], 2.0, 2.0)
    fit = fit_exponent(rows)
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_scaling_time_window():
    s = standard_heisenberg(1)
    with pytest.raises(DomainError):
        scaling_example(s, 0.125, t=2.5)


# --- knapp family ---------------------------------------------------------

def test_knapp_frame_invariance():
    s = normalized_heisenberg(2)
    u, v, comp = knapp_frame(s)
    two_n = 4
    P = np.outer(u, u) + np.outer(v, v)
    Pp = np.eye(two_n) - P
    J = s.J[0]
    # the plane and its complement are J-invariant
    assert np.max(np.abs(Pp @ J @ P)) <= 1e-12
    assert np.max(np.abs(P @ J @ Pp)) <= 1e-12
    frame = np.concatenate([np.stack([u, v], axis=1), comp], axis=1)
    assert np.max(np.abs(frame.T @ frame - np.eye(two_n))) <= 1e-12


def test_knapp_requires_normalized_structure():
    with pytest.raises(DomainError):
        knapp_example(standard_heisenberg(2), 0.125)
    for n in (1, 3):
        with pytest.raises(DomainError):
            knapp_example(normalized_heisenberg(n), 0.125)


def test_knapp_field_anisotropy():
    s = normalized_heisenberg(2)
    delta = 1.0 / 32.0
    assert c_one(s) == pytest.approx(10.0)
    inst = knapp_example(s, delta)
    f = inst.field
    u, v, comp = knapp_frame(s)
    c1 = 10.0
    # in-plane direction dies beyond C1 delta, the complement survives
    # out to C1 sqrt(delta)
    plane_pt = np.concatenate([0.9 * c1 * delta * u, [0.0]])
    far_plane = np.concatenate([2.0 * c1 * delta * u, [0.0]])
    perp_pt = np.concatenate([0.9 * c1 * math.sqrt(delta) * comp[:, 0],
                              [0.0]])
    far_perp = np.concatenate([2.0 * c1 * math.sqrt(delta) * comp[:, 0],
                               [0.0]])
    vals = f(np.stack([plane_pt, far_plane, perp_pt, far_perp]))
    assert list(vals) == [1.0, 0.0, 1.0, 0.0]


def test_knapp_region_selector_window():
    s = normalized_heisenberg(2)
    inst = knapp_example(s, 0.125)
    pts, w = inst.test_region.points_and_weights()
    t = np.clip(inst.time(pts), 1.0, 2.0)
    assert np.all(t >= 9.0 / 8.0 - 1e-12)
    assert np.all(t <= 15.0 / 8.0 + 1e-12)
    assert np.all(w > 0)


# --- stein diagnostic -----------------------------------------------------

def test_stein_probe_curve_monotone():
    curve = stein_probe_curve(0.9, 30, j_lo=10)
    assert curve.shape == (21, 2)
    assert np.all(np.diff(curve[:, 1]) > 0)
    expo = stein_growth_exponent(curve)
    assert abs(expo - 0.1) <= 0.2


def test_stein_growth_exponent_synthetic():
    j = np.arange(10, 31, dtype=float)
    vals = 2.0 + j ** 0.25
    expo = stein_growth_exponent(np.stack([j, vals], axis=1))
    # discrete increments bias the continuum exponent by a few percent
    assert abs(expo - 0.25) <= 0.05
    with pytest.raises(DomainError):
        stein_growth_exponent(np.array([[10.0, 1.0], [11.0, 1.0]]))


# --- moment family --------------------------------------------------------

def test_moment_structure_twist():
    s = moment_structure()
    x = np.array([2.0, 3.0])
    y = np.array([5.0, 7.0])
    # x^T J y = x2 y1 - x1 y2
    assert s.commutator_form(x, y)[0] == pytest.approx(3.0 * 5.0 - 2.0 * 7.0)


def test_moment_average_lower_bound_on_region():
    # the arc |s| <= delta stays inside the field box at every region point
    s = moment_structure()
    for delta in (0.125, 0.0625):
        inst = moment_example(delta)
        pts, _ = inst.test_region.points_and_weights()
        t = np.clip(inst.time(pts), 1.0, 2.0)
        vals = spherical_average_batch(s, inst.field, t, pts, inst.rule)
        assert np.min(vals) >= 0.2 * delta


def test_moment_slope_two_rungs():
    rows = run_ladder(lambda d: moment_example(d), [0.125, 0.0625], 2.0, 2.0)
    e = math.log(rows[1][1] / rows[0][1]) / math.log(0.5)
    assert abs(e - 1.0) <= 0.2


# --- ladders and CSV ------------------------------------------------------

def test_run_ladder_rows():
    s = standard_heisenberg(1)
    rows = run_ladder(lambda d: scaling_example(s, d), [0.25, 0.125], 2, 2)
    assert len(rows) == 2
    assert rows[0][0] == 0.25
    assert rows[0][1] > rows[1][1] > 0


def test_experiment_csv_format():
    rows = [(0.125, 0.25), (0.0625, 0.125)]
    text = experiment_csv("scaling", 1, 1, F(2), F(2), rows, F(1, 2))
    lines = text.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert lines[1] == "family,n,m,p,q,delta,ratio,predicted_exponent"
    assert lines[2] == "scaling,1,1,2,2,0.125,0.25,1/2"
    assert len(lines) == 4
    bare = experiment_csv("stein", 1, 1, F(2), F(2), rows, None)
    assert bare.strip().split("\n")[2].endswith(",")
