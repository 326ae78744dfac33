"""Counterexample families: geometry invariants, exponents, fitting."""

import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from heislab import cli, families, spheres
from heislab.groups import (DomainError, MetivierStructure,
                            normalized_heisenberg, quaternionic_htype,
                            standard_heisenberg)
from heislab.families import (ParamRegion, _box_measure, _lattice_count,
                              _row_dot, ball_example, c_one, c_ring, c_zero,
                              fit_exponent, fit_passes, knapp_example,
                              knapp_frame, moment_example, moment_structure,
                              operator_ratio, predicted_exponent, run_ladder,
                              scaling_example, stein_growth_exponent,
                              stein_probe_curve)
from heislab.spheres import ScalarField, sphere_rule, spherical_average_batch
from oracles import (ball_inside, box_count_blocks, knapp_inside,
                     moment_inside, node_order_average, row_dot_full)

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
    pts, w = reg.points_and_weights()
    assert math.fsum(w) == pytest.approx(np.pi / 4.0, rel=1e-12)
    mean = np.sum((pts[:, 0] ** 2 + pts[:, 1] ** 2) * w) / np.sum(w)
    assert mean == pytest.approx(0.5, rel=1e-3)
    assert np.max(np.hypot(pts[:, 0], pts[:, 1])) <= 1.0


def support_lattice(f, count):
    """The midpoint lattice of f's support box, count nodes per axis."""
    lo, hi = f.support_lo, f.support_hi
    volume = float(np.prod(hi - lo))
    return ParamRegion((count,) * len(lo),
                       lambda u: ((hi - lo) * u + lo, np.full(len(u), volume)))


def recording(f):
    """f, plus a list of (shape, f_contiguous) of the batches it sees."""
    seen = []

    def ev(pts):
        seen.append((pts.shape, pts.flags.f_contiguous))
        return f(pts)

    return ScalarField(ev, f.support_lo, f.support_hi), seen


TILTED_KNAPP = MetivierStructure(2, 1, normalized_heisenberg(2).J,
                                 np.array([[0.1, 0.05, 0.0, 0.2]]))

# the families whose measure is a lattice count; the tilted knapp frame
# reads all four horizontal axes in each of its two disks, so they form
# one group of 24^4 points
LATTICE_FAMILIES = {
    "ball-n1": lambda d: ball_example(standard_heisenberg(1), d),
    "ball-n2": lambda d: ball_example(standard_heisenberg(2), d),
    "knapp-n2": lambda d: knapp_example(normalized_heisenberg(2), d),
    "knapp-tilted-n2": lambda d: knapp_example(TILTED_KNAPP, d),
}


@pytest.mark.parametrize("family", LATTICE_FAMILIES)
def test_box_measure_matches_blockwise_oracle(family):
    # the count by axis groups agrees exactly with the field evaluated on
    # every lattice point, and the measure rounds once
    for delta in (2.0 ** -3, 2.0 ** -4, 0.1):
        f = LATTICE_FAMILIES[family](delta).field
        count = _lattice_count(f)
        assert count == box_count_blocks(f)
        volume = float(np.prod(f.support_hi - f.support_lo))
        assert _box_measure(f) == count * (volume / 24 ** len(f.support_lo))


@pytest.mark.parametrize("family, want", [
    ("ball-n1", 7208),
    ("ball-n2", 1314240),
    # a disk in the plane axes, one in the complement axes, and the slab
    ("knapp-n2", 448 * 448 * 24),
], ids=["ball-n1", "ball-n2", "knapp-n2"])
def test_lattice_counts_are_fixed_along_the_ladder(family, want, monkeypatch):
    # the support box scales with the set, so every rung counts the same
    # lattice points.  The counts read no sphere rule, and the 2^-7 rules
    # take up to 128 MiB
    monkeypatch.setattr(families, "sphere_rule", lambda *args, **kw: None)
    for k in range(3, 8):
        assert _lattice_count(LATTICE_FAMILIES[family](2.0 ** -k).field) == want


# the families whose sets are declared as Conditions: moment's measure is
# a closed form, not a lattice count
CONDITION_FAMILIES = {**LATTICE_FAMILIES, "moment": moment_example}


@pytest.mark.parametrize("family", CONDITION_FAMILIES)
def test_conditions_match_the_closures(family):
    # the Conditions give the booleans, and knapp's time map the bits, of
    # the closures written directly on _row_dot or on the coordinates, on
    # random points of the support box and on points scaled to within a
    # few ulp of each bound
    rng = np.random.default_rng(11)
    for delta in (2.0 ** -3, 0.1):
        inst = CONDITION_FAMILIES[family](delta)
        s, f = inst.structure, inst.field
        if family.startswith("knapp"):
            inside, time = knapp_inside(s, delta)
        elif family == "moment":
            inside, time = moment_inside(delta), None
        else:       # the ball's time map is unchanged
            inside, time = ball_inside(s, delta), None
        x = rng.uniform(f.support_lo, f.support_hi, (4000, s.d))
        batches = [x]
        for c in f.evaluator.items:
            scale = (c.bound / c.value(x.T)) ** (0.5 if c.squares else 1.0)
            near = [x * (scale * (1.0 + j * 2.0 ** -52))[:, None]
                    for j in range(-3, 4)]
            holds = np.concatenate([c.value(y.T) <= c.bound for y in near])
            assert holds.any() and not holds.all()
            batches += near
        for y in batches:
            y = np.ascontiguousarray(y.T).T
            assert np.array_equal(f(y), inside(y))
            if time is not None:
                assert inst.time(y).tobytes() == time(y).tobytes()


def test_instance_rejects_a_bad_measure():
    inst = moment_example(0.125)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"moment delta=0\.125"):
            replace(inst, measure=bad)


def test_field_region_norm_memory_is_bounded():
    # the 24^5 ball lattice: 8.0e6 points, 318 MB as one array, counted in
    # 576 chunks of 24^3; the tilted knapp group: 24 chunks of 24^3
    for family in ("ball-n2", "knapp-tilted-n2"):
        f = LATTICE_FAMILIES[family](0.125).field
        tracemalloc.start()
        try:
            _box_measure(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_sphere_average_memory_is_bounded():
    # one average of the ball and knapp rungs on H^2 at delta = 2^-3, the
    # h2-thin bench's first rungs: its blocks of at most CHUNK_WORK window
    # nodes or hit pairs hold its working set to about 2.5 MiB
    for family in ("ball-n2", "knapp-n2"):
        inst = LATTICE_FAMILIES[family](0.125)
        pts, _ = inst.test_region.points_and_weights()
        t = np.clip(inst.time(pts), 1.0, 2.0)
        tracemalloc.start()
        try:
            spherical_average_batch(inst.structure, inst.field, t, pts,
                                    inst.rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


def test_field_region_seed_denominators():
    # the support-box lattice reproduces the seed's denominators
    cases = [
        (ball_example(standard_heisenberg(1), 0.125), 1.0, 8.147063078703706),
        (ball_example(standard_heisenberg(2), 0.125), 2.0, 4.014756944444445),
        (knapp_example(normalized_heisenberg(2), 0.125), 2.0,
         21.739549781247955),
    ]
    for inst, p, want in cases:
        assert inst.measure ** (1.0 / p) == pytest.approx(want, rel=1e-12)


def test_batches_are_coordinate_major(monkeypatch):
    inst = ball_example(standard_heisenberg(2), 0.125)
    f, seen = recording(inst.field)
    pts, _ = inst.test_region.points_and_weights()
    f(pts)
    assert len(seen) == 1
    t = np.clip(inst.time(pts), 1.0, 2.0)
    # a small chunk splits the sphere images into several batches
    monkeypatch.setattr(spheres, "CHUNK_WORK", 20000)
    assert spherical_average_batch(inst.structure, f, t, pts,
                                   inst.rule).max() > 0
    assert len(seen) > 2
    assert all(shape[1] == 5 and f_order for shape, f_order in seen)


def row_major(region):
    """region with its points handed on as a row-major copy."""
    def param(u):
        pts, jac = region.param(u)
        return np.ascontiguousarray(pts), jac

    return ParamRegion(region.counts, param)


TILTED_H2 = MetivierStructure(2, 1, normalized_heisenberg(2).J,
                              np.array([[0.03, 0.0, 0.02, 0.0]]))


@pytest.mark.parametrize("inst", [
    ball_example(standard_heisenberg(1), 0.125),
    knapp_example(normalized_heisenberg(2), 0.125),
    knapp_example(TILTED_H2, 0.125),
    scaling_example(standard_heisenberg(1), 0.125),
    scaling_example(TILTED_H2, 0.125),
    moment_example(0.125),
], ids=["ball-n1", "knapp-n2", "knapp-tilted-n2", "scaling-n1",
        "scaling-tilted-n2", "moment"])
def test_row_major_batches_give_the_same_bits(inst):
    s = inst.structure
    # halved test lattices keep the n = 2 averages cheap
    test_region = replace(inst.test_region, counts=tuple(
        max(2, c // 2) for c in inst.test_region.counts))
    pts, _ = test_region.points_and_weights()
    box_pts, _ = support_lattice(inst.field, 12).points_and_weights()
    for x in (pts, box_pts):
        rows = np.ascontiguousarray(x)
        assert x.flags.f_contiguous and not rows.flags.f_contiguous
        assert np.array_equal(_row_dot(rows, rows), _row_dot(x, x))
    # the time map gives the same bits on a row-major copy and on a batch
    # split at an odd index
    times = inst.time(pts)
    assert np.array_equal(inst.time(np.ascontiguousarray(pts)), times)
    assert np.array_equal(np.concatenate([inst.time(pts[:7]),
                                          inst.time(pts[7:])]), times)
    # the smooth weight exposes every bit of the image coordinates
    weighted = ScalarField(lambda x: inst.field(x) * np.exp(x.sum(axis=1)),
                           inst.field.support_lo, inst.field.support_hi)
    for f in (inst.field, weighted):
        assert np.array_equal(f(np.ascontiguousarray(box_pts)), f(box_pts))
        assert np.array_equal(np.concatenate([f(box_pts[:7]),
                                              f(box_pts[7:])]), f(box_pts))
        t = np.clip(inst.time(pts), 1.0, 2.0)
        avg = spherical_average_batch(s, f, t, pts, inst.rule)
        assert avg.max() > 0
        assert np.array_equal(spherical_average_batch(
            s, f, t, np.ascontiguousarray(pts), inst.rule), avg)
        for q in (2.0, np.inf):
            want = operator_ratio(s, replace(inst, field=f,
                                             test_region=test_region), 2.0, q)
            assert want > 0
            assert operator_ratio(s, replace(inst, field=f, test_region=(
                row_major(test_region))), 2.0, q) == want


def test_row_dot_skips_zero_coefficients():
    # 0.0 and -0.0 coefficients, all zeros, and none; the rows of x make
    # negative, positive and zero products, so full sums hold -0.0
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.standard_normal((40, 4)),
                        [[1.0, -1.0, -1.0, -1.0], [-0.0, 2.0, -3.0, 0.0]],
                        np.zeros((1, 4))])
    coefficients = [[0.0, 1.5, -0.0, -2.0], [-0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0], [-0.0, -0.0, 0.0, 0.7],
                    [0.3, -1.1, 2.0, 0.5]]
    signs_differ = False
    for y in map(np.array, coefficients):
        got, want = _row_dot(x, y), row_dot_full(x, y)
        assert (got * got).tobytes() == (want * want).tobytes()
        assert np.abs(got).tobytes() == np.abs(want).tobytes()
        # equal as numbers: only the sign of a zero may differ
        assert np.array_equal(got, want)
        signs_differ |= bool(np.any(np.signbit(got) != np.signbit(want)))
    assert signs_differ
    assert _row_dot(x, x).tobytes() == row_dot_full(x, x).tobytes()


def with_zeros(pts, two_n):
    """pts, plus copies whose center is -0.0 or 0.0 and whose horizontal
    coordinates are negative, so that full row dots with zero
    coefficients are -0.0."""
    neg = -np.abs(pts[:, :two_n])
    return np.concatenate([pts] + [np.c_[neg, np.full((len(pts), 1), z)]
                                   for z in (-0.0, 0.0)])


@pytest.mark.parametrize("inst", [
    knapp_example(normalized_heisenberg(2), 0.125),
    knapp_example(TILTED_H2, 0.125),
    scaling_example(standard_heisenberg(1), 0.125),
    scaling_example(standard_heisenberg(2), 0.125),
], ids=["knapp-n2", "knapp-tilted-n2", "scaling-n1", "scaling-n2"])
def test_fields_match_full_row_dots(inst, monkeypatch):
    # the frames and the zero Lambda hold 0.0 and -0.0 coefficients
    two_n = 2 * inst.structure.n
    pts, _ = inst.test_region.points_and_weights()
    box_pts, _ = support_lattice(inst.field, 6).points_and_weights()
    x = with_zeros(np.concatenate([pts, box_pts]), two_n)
    field, times = inst.field(x), inst.time(x)
    assert 0 < np.count_nonzero(field) < len(x)
    monkeypatch.setattr(families, "_row_dot", row_dot_full)
    # a Condition skips its zero coefficients as _row_dot does
    monkeypatch.setattr(families.Condition, "_terms", property(
        lambda c: [list(enumerate(row)) for row in c.rows]))
    assert inst.field(x).tobytes() == field.tobytes()
    assert inst.time(x).tobytes() == times.tobytes()


@pytest.mark.parametrize("make,step", [
    (lambda: ball_example(standard_heisenberg(1), 2.0 ** -5), 37),
    (lambda: ball_example(standard_heisenberg(2), 2.0 ** -5), 151),
    (lambda: knapp_example(normalized_heisenberg(2), 2.0 ** -5), 97),
    (lambda: scaling_example(standard_heisenberg(1), 2.0 ** -5), 67),
    (lambda: moment_example(2.0 ** -7), 13),
], ids=["ball-n1", "ball-n2", "knapp", "scaling-n1", "moment"])
def test_instance_averages_match_node_order_oracle(make, step):
    # every step-th test point of the instance: the numerator's averages
    # carry the bits of the oracle that culls no node
    inst = make()
    pts, _ = inst.test_region.points_and_weights()
    pts = pts[::step]
    t = np.clip(inst.time(pts), 1.0, 2.0)
    got = spherical_average_batch(inst.structure, inst.field, t, pts,
                                  inst.rule)
    want = node_order_average(inst.structure, inst.field, t, pts, inst.rule)
    assert np.count_nonzero(want) >= 10
    assert np.array_equal(got, want)


# --- operator ratio -------------------------------------------------------

def test_operator_ratio_field_homogeneity():
    # the ratio is homogeneous of degree -1/p in the field's measure
    s = standard_heisenberg(1)
    inst = ball_example(s, 0.125)
    for p, q in ((1.0, np.inf), (2.0, 2.0), (3.0, 4.0)):
        base = operator_ratio(s, inst, p, q)
        for c in (0.5, 8.0):
            got = operator_ratio(s, replace(inst, measure=c * inst.measure),
                                 p, q)
            assert got == pytest.approx(base * c ** (-1.0 / p), rel=1e-12)


def test_lq_norm_rejects_exponent_below_one():
    # the denominator |f|_p = measure^(1/p) takes no p below 1, whether the
    # measure is a closed form (moment) or a support-box sum (ball)
    for inst in (moment_example(0.125),
                 ball_example(standard_heisenberg(1), 0.125)):
        for bad in (0.5, 0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match=">= 1"):
                operator_ratio(inst.structure, inst, bad, 2.0)


def test_operator_ratio_rejects_exponent_below_one():
    # the numerator's q is checked as the denominator's p is
    inst = moment_example(0.125)
    for bad in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match=">= 1"):
            operator_ratio(inst.structure, inst, 2.0, bad)


def test_operator_ratio_zero_numerator_raises():
    # eight circle nodes all miss the ball of radius 10 * 2^-7
    s = standard_heisenberg(1)
    inst = replace(ball_example(s, 2.0 ** -7), rule=sphere_rule(1, 8))
    with pytest.raises(DomainError) as err:
        operator_ratio(s, inst, 1.0, math.inf)
    msg = str(err.value)
    assert "ball" in msg and repr(2.0 ** -7) in msg
    assert "no sphere node hits the field's support" in msg


def test_operator_ratio_refuses_an_underflowing_q_sum():
    # the n = 1 ball rung at 2^-7 has averages up to 0.018, but its sum
    # w |A_t f|^q is 0 at q = 200 and subnormal from q = 180
    s = standard_heisenberg(1)
    inst = ball_example(s, 2.0 ** -7)
    with pytest.raises(DomainError) as err:
        operator_ratio(s, inst, 2.0, 200.0)
    assert str(err.value) == (
        f"ball delta={2.0 ** -7!r}: sum w |A_t f|^q = 0.0 at q=200.0 leaves "
        "the normal float range; use a smaller q or q=inf")
    with pytest.raises(DomainError, match=r"= 1\.38994816e-316 at q=180\.0 "):
        operator_ratio(s, inst, 2.0, 180.0)
    # a normal sum keeps every bit of the ratio
    assert operator_ratio(s, inst, 2.0, 100.0).hex() == "0x1.87108e09e2254p-2"


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
    for bad in (0.0, -0.1, 0.3, math.nan):
        with pytest.raises(DomainError,
                           match=rf"delta={bad!r} must lie in \(0, 1/4\]"):
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
    # an exponent below 1 is a domain error, not a division by zero
    with pytest.raises(DomainError):
        predicted_exponent("ball", 2, 1, 0, 2)
    with pytest.raises(DomainError):
        predicted_exponent("ball", 2, 1, 2, 0)


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


def test_fit_passes_needs_a_straight_line():
    # residuals +a, -a, +a, -a, +a are orthogonal to the centred log
    # deltas, so the slope stays exactly 1/2 while r^2 drops below 0.9
    deltas = [2.0 ** -k for k in range(3, 8)]
    zigzag = [0.2, -0.2, 0.2, -0.2, 0.2]
    fit = fit_exponent([(d, d ** 0.5 * math.exp(e))
                        for d, e in zip(deltas, zigzag)])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared < 0.9
    assert fit.max_residual == pytest.approx(0.24, abs=1e-12)
    assert not fit_passes(fit, F(1, 2), 0.15)
    straight = fit_exponent([(d, d ** 0.5) for d in deltas])
    assert fit_passes(straight, F(1, 2), 0.15)
    assert not fit_passes(straight, F(1, 2) + F(1, 5), 0.15)


def test_fit_constant_ratios():
    deltas = [2.0 ** -k for k in range(3, 7)]
    fit = fit_exponent([(d, 0.7) for d in deltas])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_passes_flat_ladder():
    # scaling on H^1 with p = 2, q = 3 predicts exponent 0: the ratios agree
    # to rounding, so r^2 is noise (1/3 here) while the line is exact
    s = standard_heisenberg(1)
    rows = run_ladder(lambda d: scaling_example(s, d),
                      [2.0 ** -k for k in range(3, 6)], 2, 3)
    fit = fit_exponent(rows)
    assert predicted_exponent("scaling", 1, 1, 2, 3) == 0
    assert fit.max_residual < 1e-12
    assert fit_passes(fit, 0, 0.15)


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


def test_fields_vanish_outside_support_box():
    # the spherical averages skip every sphere node whose image misses the
    # field's support box, so each field must vanish just past each face
    s1, s2 = standard_heisenberg(1), standard_heisenberg(2)
    s2n = normalized_heisenberg(2)
    tilted2 = MetivierStructure(2, 1, s2n.J, np.array([[0.03, 0.0, 0.02, 0.0]]))
    tilted1 = MetivierStructure(1, 1, s1.J, np.array([[0.05, -0.02]]))
    instances = [ball_example(s1, 0.125), ball_example(s2, 0.125),
                 ball_example(tilted1, 0.125), scaling_example(s1, 0.125),
                 scaling_example(s2, 0.0625), scaling_example(tilted2, 0.125),
                 knapp_example(s2n, 0.125), knapp_example(tilted2, 0.0625),
                 moment_example(0.125)]
    rng = np.random.default_rng(23)
    for inst in instances:
        f = inst.field
        lo, hi = f.support_lo, f.support_hi
        d = len(lo)
        pts = rng.uniform(lo, hi, (4000, d))
        assert np.any(f(pts) != 0.0), inst.family
        for i in range(d):
            for edge, side in ((lo[i], -1.0), (hi[i], 1.0)):
                face = np.vstack([pts, 0.5 * (lo + hi)])
                face[:, i] = edge + side * 1e-9 * (1.0 + abs(edge))
                assert not np.any(f(face) != 0.0), (inst.family, i, side)


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


def test_scaling_field_region_when_shell_exceeds_time():
    # C0 delta = 5/2 > t = 3/2: the shell is the disk of radius 4 times a
    # center interval of length 5, and its volume is 80 pi
    inst = scaling_example(normalized_heisenberg(1), 0.25)
    assert inst.measure == 80.0 * math.pi


def test_scaling_measure_matches_radial_quadrature():
    # standard H^2 at delta = 2^-3: the set is 7/8 <= |ubar| <= 17/8 in
    # R^4 (|S^3| = 2 pi^2) times a center interval of length 2 C0 delta
    s = standard_heisenberg(2)
    inst = scaling_example(s, 0.125)
    shell = c_zero(s) * 0.125
    lo, hi = 1.5 - shell, 1.5 + shell
    count = 100000
    r = lo + (hi - lo) * (np.arange(count) + 0.5) / count
    ray = np.zeros((count, 5))
    ray[:, 0] = r
    assert np.all(inst.field(ray) == 1.0)
    want = (math.fsum(r ** 3) * (hi - lo) / count
            * 2.0 * math.pi ** 2 * 2.0 * shell)
    assert inst.measure == pytest.approx(want, rel=1e-9)


# --- knapp family ---------------------------------------------------------

def test_instances_at_the_entry_bound_stay_finite():
    # J and Lambda entries of 2^128, the largest MetivierStructure takes:
    # the support boxes, whose volume grows as the fifth power of the
    # entries for knapp, and the measures stay finite (ExampleInstance
    # refuses any other), and Tier-1 turns an overflow warning into an error
    bound = 2.0 ** 128
    J = normalized_heisenberg(2).J
    lam = np.array([[bound, -bound, bound, bound]])
    tilted = MetivierStructure(2, 1, J, lam)
    large = MetivierStructure(2, 1, np.sign(J) * bound, lam)
    knapp_example(tilted, 0.25)
    scaling_example(large, 0.25)
    ball_example(large, 0.25)


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
    with pytest.raises(DomainError, match="increasing"):
        stein_growth_exponent(np.array([[10.0, 1.0], [11.0, 1.0],
                                        [12.0, 2.0]]))
    for short in (np.empty((0, 2)), np.array([[10.0, 1.0], [11.0, 2.0]])):
        with pytest.raises(DomainError, match="at least 3"):
            stein_growth_exponent(short)
    for j_lo, j_hi in ((20, 10), (29, 30), (1, 3)):
        with pytest.raises(DomainError, match="at least 3"):
            stein_probe_curve(0.9, j_hi, j_lo=j_lo)
    assert stein_probe_curve(0.9, 4, j_lo=1).shape == (3, 2)


def test_stein_refuses_a_curve_that_is_not_finite():
    # the deepest cutoffs whose curve stays finite
    for j_hi in (1022, 1023, 1024):
        curve = stein_probe_curve(0.9, j_hi, j_lo=10)
        assert np.isfinite(curve).all()
        assert abs(stein_growth_exponent(curve) - 0.1) <= 0.2
    # the density overflows from j = 1025 on, and turns NaN later
    for j_hi in (1025, 1100):
        with pytest.raises(DomainError, match=f"j_hi={j_hi}"):
            stein_probe_curve(0.9, j_hi, j_lo=10)
    j = np.arange(10.0, 15.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError, match="finite"):
            stein_growth_exponent(np.stack([j, [1.0, 2.0, 3.0, 4.0, bad]],
                                           axis=1))


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



# --- ladder workers -------------------------------------------------------

LADDER = [2.0 ** -k for k in range(2, 6)]


def _forks(monkeypatch, cpus):
    """Pretend this process may use cpus CPUs; returns the list that
    collects the pid of every child run_ladder forks."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(families, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_run_ladder_rows_do_not_depend_on_workers(cpus, monkeypatch):
    s = standard_heisenberg(1)
    rows = [(d, operator_ratio(s, scaling_example(s, d), 2.0, 2.0))
            for d in LADDER]
    pids = _forks(monkeypatch, cpus)
    got = run_ladder(lambda d: scaling_example(s, d), LADDER, 2, 2)
    # one worker per CPU, never more than one per rung; worker 0 is this
    # process
    assert len(pids) == min(cpus, len(LADDER)) - 1
    assert [(d, r.hex()) for d, r in got] == [(d, r.hex()) for d, r in rows]
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_ladder_raises_the_first_failing_rung(cpus, monkeypatch):
    # with two workers rung 1 fails in the child and rung 2 in this process
    s = standard_heisenberg(1)
    pids = _forks(monkeypatch, cpus)

    def make(delta):
        if delta in LADDER[1:3]:
            raise DomainError(f"rung {LADDER.index(delta)} failed")
        return scaling_example(s, delta)

    with pytest.raises(DomainError, match="^rung 1 failed$"):
        run_ladder(make, LADDER, 2, 2)
    assert len(pids) == cpus - 1
    _no_child_left()


def test_run_ladder_child_without_result(monkeypatch, capsys):
    parent = os.getpid()
    pids = _forks(monkeypatch, 2)
    ball = families.ball_example

    def make(s, delta):
        # only a child may leave, and only on its first rung
        if os.getpid() != parent and delta == 2.0 ** -4:
            os._exit(3)
        return ball(s, delta)

    monkeypatch.setattr(families, "ball_example", make)
    s = standard_heisenberg(1)
    with pytest.raises(ChildProcessError, match="exit code 3 and no result"):
        run_ladder(lambda d: families.ball_example(s, d), LADDER[1:], 1,
                   math.inf)
    assert len(pids) == 1
    _no_child_left()

    code = cli.main(["counterexample", "--set", "n=1",
                     "--set", "deltas=2^-3,2^-4,2^-5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "delta=0.0625: the ladder worker ended with exit code 3" in err
    assert len(pids) == 2
    _no_child_left()
