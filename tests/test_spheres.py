"""Sphere quadrature, spherical averages, maximal values."""

import numpy as np
import pytest

from heislab.groups import (DomainError, GroupPoint, MetivierStructure,
                            normalized_heisenberg, standard_heisenberg)
from heislab.spheres import (ScalarField, SphereRule, TimeSelector,
                             fixed_time_selector, maximal_value,
                             maximal_value_batch, spherical_average,
                             spherical_average_batch, sphere_rule)


def box_indicator(lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def ev(pts):
        return np.all((pts >= lo) & (pts <= hi), axis=1).astype(float)

    return ScalarField(ev, lo, hi, "box indicator")


# --- quadrature rules ----------------------------------------------------

def test_rule_weights_and_nodes():
    for rule in (sphere_rule(1, 64), sphere_rule(2, 12),
                 sphere_rule(2, (8, 12, 16)),
                 sphere_rule(2, 12, latitude="uniform")):
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        assert np.all(rule.weights > 0)
        assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) <= 1e-12
        assert not rule.monte_carlo


def test_circle_second_moment():
    rule = sphere_rule(1, 128)
    m = float(np.sum(rule.nodes[:, 0] ** 2 * rule.weights))
    assert abs(m - 0.5) <= 1e-12


def test_s3_second_moment():
    for latitude in ("gauss", "uniform"):
        rule = sphere_rule(2, 24, latitude=latitude)
        for j in range(4):
            m = float(np.sum(rule.nodes[:, j] ** 2 * rule.weights))
            assert abs(m - 0.25) <= 1e-10


def test_rule_validation():
    with pytest.raises(DomainError):
        sphere_rule(1, 3)
    with pytest.raises(DomainError):
        sphere_rule(2, (12, 3, 12))
    with pytest.raises(DomainError):
        sphere_rule(2, 12, latitude="chebyshev")
    with pytest.raises(DomainError):
        SphereRule(np.array([[1.0, 0.0], [0.0, 1.0]]),
                   np.array([0.7, 0.7]))
    with pytest.raises(DomainError):
        SphereRule(np.array([[2.0, 0.0]]), np.array([1.0]))


def test_monte_carlo_fallback():
    with pytest.warns(RuntimeWarning):
        rule = sphere_rule(3, 16, seed=5)
    assert rule.monte_carlo
    assert rule.nodes.shape[1] == 6
    with pytest.warns(RuntimeWarning):
        again = sphere_rule(3, 16, seed=5)
    assert np.array_equal(rule.nodes, again.nodes)


# --- averages ------------------------------------------------------------

def test_constant_field_averages_to_one():
    s = standard_heisenberg(1)
    big = 100.0 * np.ones(3)
    f = ScalarField(lambda pts: np.ones(len(pts)), -big, big, "one")
    rule = sphere_rule(1, 64)
    x = GroupPoint(np.array([0.3, -0.2]), np.array([0.1]))
    assert spherical_average(s, f, 1.5, x, rule) == pytest.approx(1.0,
                                                                  abs=1e-12)


def test_disjoint_support_is_exact_zero():
    s = standard_heisenberg(1)
    f = box_indicator([5.0, 5.0, 5.0], [6.0, 6.0, 6.0])
    rule = sphere_rule(1, 64)
    x = GroupPoint(np.zeros(2), np.zeros(1))
    assert spherical_average(s, f, 1.0, x, rule) == 0.0


def test_circle_average_matches_closed_form():
    # f depending only on the first horizontal coordinate: the average at
    # the origin is the circle mean of f(-t cos a), computable directly.
    s = standard_heisenberg(1)
    big = 10.0 * np.ones(3)
    f = ScalarField(lambda pts: pts[:, 0] ** 2, -big, big, "x1 squared")
    rule = sphere_rule(1, 512)
    x = GroupPoint(np.zeros(2), np.zeros(1))
    t = 1.7
    got = spherical_average(s, f, t, x, rule)
    assert got == pytest.approx(t ** 2 / 2.0, abs=1e-10)


def test_average_rotation_covariance():
    # Rotations by grid angles commute with the standard twist when Lambda=0.
    s = standard_heisenberg(1)
    rng = np.random.default_rng(9)
    res = 64
    rule = sphere_rule(1, res)
    k = 5
    ang = 2 * np.pi * k / res
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])

    def ev(pts):
        return np.exp(-np.sum(pts ** 2, axis=1))

    big = 50.0 * np.ones(3)
    f = ScalarField(ev, -big, big, "gaussian")

    def ev_rot(pts):
        rot = pts.copy()
        rot[:, :2] = pts[:, :2] @ R  # apply R^T to the horizontal block
        return ev(rot)

    f_rot = ScalarField(ev_rot, -big, big, "rotated gaussian")
    for _ in range(10):
        ub = rng.uniform(-1, 1, 2)
        bar = rng.uniform(-1, 1, 1)
        t = float(rng.uniform(1.0, 2.0))
        a = spherical_average(s, f, t, GroupPoint(ub, bar), rule)
        b = spherical_average(s, f_rot, t, GroupPoint(R @ ub, bar), rule)
        assert abs(a - b) <= 1e-10


def test_average_batch_chunk_invariance():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, (37, 5))
    t = rng.uniform(1.0, 2.0, 37)
    rule = sphere_rule(2, 8)
    big = 50.0 * np.ones(5)
    f = ScalarField(lambda p: np.cos(p @ np.arange(1.0, 6.0)), -big, big, "")
    a = spherical_average_batch(s, f, t, pts, rule, chunk=200000)
    b = spherical_average_batch(s, f, t, pts, rule, chunk=7)
    assert np.array_equal(a, b)


def test_dimension_mismatch_raises():
    s = standard_heisenberg(2)
    rule = sphere_rule(2, 8)
    big = np.ones(5)
    f = ScalarField(lambda p: np.zeros(len(p)), -big, big, "")
    with pytest.raises(Exception):
        spherical_average_batch(s, f, np.array([1.0]), np.zeros((1, 4)), rule)


# --- maximal values ------------------------------------------------------

def test_maximal_constant_is_one():
    s = standard_heisenberg(1)
    big = 100.0 * np.ones(3)
    f = ScalarField(lambda pts: np.ones(len(pts)), -big, big, "one")
    rule = sphere_rule(1, 64)
    sel = TimeSelector(kind="grid", count=9)
    x = GroupPoint(np.zeros(2), np.zeros(1))
    assert maximal_value(s, f, x, sel, rule) == pytest.approx(1.0, abs=1e-12)


def test_maximal_dominates_single_time():
    s = standard_heisenberg(1)
    f = box_indicator(-0.4 * np.ones(3), 0.4 * np.ones(3))
    rule = sphere_rule(1, 128)
    sel = TimeSelector(kind="grid", count=9)
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = GroupPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1))
        mv = maximal_value(s, f, x, sel, rule)
        for t in np.linspace(1.0, 2.0, 9):
            assert mv >= abs(spherical_average(s, f, t, x, rule)) - 1e-14


def test_map_selector_clamps():
    sel = TimeSelector(kind="map", mapper=lambda pts: pts[:, 0])
    t = sel.times(np.array([[0.2, 0.0], [1.5, 0.0], [7.0, 0.0]]))
    assert np.array_equal(t, [1.0, 1.5, 2.0])
    fix = fixed_time_selector(1.25)
    assert np.array_equal(fix.times(np.zeros((3, 2))), [1.25, 1.25, 1.25])


def test_selector_validation():
    with pytest.raises(DomainError):
        TimeSelector(kind="grid", count=1)
    with pytest.raises(DomainError):
        TimeSelector(kind="map")
    with pytest.raises(DomainError):
        TimeSelector(kind="sup")
    sel = TimeSelector(kind="grid", count=4)
    with pytest.raises(DomainError):
        sel.times(np.zeros((1, 2)))


def test_maximal_batch_matches_scalar():
    s = standard_heisenberg(1)
    f = box_indicator(-0.5 * np.ones(3), 0.5 * np.ones(3))
    rule = sphere_rule(1, 64)
    sel = TimeSelector(kind="grid", count=5)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, (6, 3))
    batch = maximal_value_batch(s, f, pts, sel, rule)
    for i in range(6):
        x = GroupPoint(pts[i, :2], pts[i, 2:])
        assert batch[i] == maximal_value(s, f, x, sel, rule)


# --- scalar fields -------------------------------------------------------

def test_scalar_field_validation():
    with pytest.raises(DomainError):
        ScalarField(lambda p: np.zeros(len(p)), np.ones(2), -np.ones(2))

