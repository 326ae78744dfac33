"""Group arithmetic, structure constructors, margins, and the skew norm."""

import math

import numpy as np
import pytest

from heislab.groups import (DimensionMismatch, DomainError, GroupPoint,
                            MetivierStructure, dilate, group_inverse,
                            group_multiply, identity_point,
                            normalized_heisenberg, quaternionic_htype,
                            radon_hurwitz, skew_inverse_norm,
                            smallness_margin, standard_heisenberg,
                            theta_grid)


def random_point(rng, s, scale=2.0):
    return GroupPoint(rng.uniform(-scale, scale, 2 * s.n),
                      rng.uniform(-scale, scale, s.m))


# --- group laws ----------------------------------------------------------

def test_identity_and_inverse_exact():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(3)
    e = identity_point(s)
    for _ in range(50):
        x = random_point(rng, s)
        xe = group_multiply(s, x, e)
        assert np.array_equal(xe.as_array(), x.as_array())
        ex = group_multiply(s, e, x)
        assert np.array_equal(ex.as_array(), x.as_array())
        # ubar^T J ubar cancels pairwise by skew-symmetry; only summation
        # order noise remains
        xi = group_multiply(s, x, group_inverse(s, x))
        assert np.max(np.abs(xi.as_array())) <= 1e-14


def test_associativity_seeded():
    for s in (standard_heisenberg(1), standard_heisenberg(2),
              quaternionic_htype(1, 3)):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            x, y, z = (random_point(rng, s) for _ in range(3))
            lhs = group_multiply(s, group_multiply(s, x, y), z)
            rhs = group_multiply(s, x, group_multiply(s, y, z))
            worst = max(worst, np.max(np.abs(lhs.as_array() - rhs.as_array())))
        assert worst <= 1e-12


def test_dilation_cases():
    s = standard_heisenberg(1)
    rng = np.random.default_rng(5)
    x = random_point(rng, s)
    same = dilate(s, 1.0, x)
    assert np.array_equal(same.as_array(), x.as_array())
    e1 = GroupPoint(np.array([1.0, 0.0]), np.array([1.0]))
    d2 = dilate(s, 2.0, e1)
    assert np.array_equal(d2.ubar, [2.0, 0.0])
    assert np.array_equal(d2.bar, [4.0])
    with pytest.raises(DomainError):
        dilate(s, 0.0, x)


def test_dilation_automorphism_seeded():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        x, y = random_point(rng, s), random_point(rng, s)
        t = float(rng.uniform(0.5, 2.0))
        a = dilate(s, t, group_multiply(s, x, y))
        b = group_multiply(s, dilate(s, t, x), dilate(s, t, y))
        worst = max(worst, np.max(np.abs(a.as_array() - b.as_array())))
    assert worst <= 1e-12


# --- constructors --------------------------------------------------------

def test_standard_heisenberg_matrix():
    s = standard_heisenberg(1)
    J = s.J[0]
    assert np.array_equal(J, [[0.0, 0.5], [-0.5, 0.0]])
    assert np.array_equal(J.T, -J)
    sv = np.linalg.svd(standard_heisenberg(3).J[0], compute_uv=False)
    assert np.allclose(sv, 0.5, atol=1e-14)


def test_normalized_heisenberg_square():
    for n in (1, 2, 3):
        s = normalized_heisenberg(n)
        J = s.J[0]
        assert np.max(np.abs(J @ J + np.eye(2 * n))) == 0.0


def test_quaternionic_htype_identity():
    s = quaternionic_htype(1, 3)
    rng = np.random.default_rng(23)
    for _ in range(100):
        th = rng.standard_normal(3)
        Jt = s.J_theta(th)
        dev = Jt @ Jt + float(th @ th) * np.eye(2 * s.n)
        assert np.max(np.abs(dev)) <= 1e-12
    # unit coefficient vector: exactly a complex structure
    J1 = s.J[0]
    assert np.max(np.abs(J1 @ J1 + np.eye(4))) == 0.0
    # m=1 reduction: skew with all singular values 1
    s1 = quaternionic_htype(2, 1)
    sv = np.linalg.svd(s1.J[0], compute_uv=False)
    assert np.allclose(sv, 1.0, atol=1e-14)


def test_structure_validation():
    with pytest.raises(DimensionMismatch):
        MetivierStructure(n=1, m=1, J=np.ones((1, 2, 2)),
                         Lambda=np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        MetivierStructure(n=1, m=2, J=np.zeros((1, 2, 2)),
                         Lambda=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        quaternionic_htype(1, 4)
    with pytest.raises(DomainError):
        standard_heisenberg(0)


def test_point_dimension_check():
    s = standard_heisenberg(2)
    bad = GroupPoint(np.zeros(2), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        group_multiply(s, bad, bad)


# --- Radon-Hurwitz -------------------------------------------------------

def test_radon_hurwitz_values():
    expected = {1: 1, 2: 2, 3: 1, 4: 4, 8: 8, 12: 4, 16: 9, 32: 10,
                64: 12, 128: 16}
    for k, v in expected.items():
        assert radon_hurwitz(k) == v
    with pytest.raises(DomainError):
        radon_hurwitz(0)


def test_quaternionic_respects_radon_hurwitz():
    for blocks in (1, 2):
        s = quaternionic_htype(blocks, 3)
        assert s.m < radon_hurwitz(2 * s.n)


# --- smallness margin ----------------------------------------------------

def test_margin_standard_and_htype():
    assert float(smallness_margin(standard_heisenberg(1))) == pytest.approx(
        0.5, abs=1e-14)
    assert float(smallness_margin(standard_heisenberg(2))) == pytest.approx(
        0.5, abs=1e-14)
    assert float(smallness_margin(quaternionic_htype(1, 3))) == pytest.approx(
        1.0, abs=1e-10)


def test_margin_negative_with_large_tilt():
    J = standard_heisenberg(1).J
    s = MetivierStructure(n=1, m=1, J=J, Lambda=np.array([[1.0, 0.0]]))
    mg = smallness_margin(s)
    assert float(mg) == pytest.approx(-0.5, abs=1e-14)
    assert not mg.degenerate


def test_margin_degenerate_flag():
    # one singular slice on the theta grid
    J = np.zeros((1, 2, 2))
    s = MetivierStructure(n=1, m=1, J=J, Lambda=np.zeros((1, 2)))
    mg = smallness_margin(s)
    assert mg.degenerate
    assert float(mg) <= 0.0


def test_theta_grid_shapes():
    assert theta_grid(1).shape == (2, 1)
    g2 = theta_grid(2, 90)
    assert g2.shape == (90, 2)
    assert np.allclose(np.linalg.norm(g2, axis=1), 1.0, atol=1e-12)
    g3 = theta_grid(3, 500)
    assert g3.shape == (500, 3)
    assert np.allclose(np.linalg.norm(g3, axis=1), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        theta_grid(4)


# --- skew inverse norm ---------------------------------------------------

def test_skew_inverse_norm_scaled_identity():
    assert skew_inverse_norm(2.0, np.zeros((2, 2))) == pytest.approx(0.5)


def test_skew_inverse_norm_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        size = int(rng.integers(2, 9))
        raw = rng.standard_normal((size, size))
        B = raw - raw.T
        rho = float(rng.uniform(-2.0, 2.0))
        if rho == 0.0:
            rho = 1.0
        got = skew_inverse_norm(rho, B)
        brute = np.linalg.norm(np.linalg.inv(rho * np.eye(size) + B), 2)
        assert abs(got - brute) / brute <= 1e-10
        if size % 2 == 1:
            assert got == pytest.approx(1.0 / abs(rho), rel=1e-12)


def test_skew_inverse_norm_singular_cases():
    assert skew_inverse_norm(0.0, np.array([[0.0, 1.0], [-1.0, 0.0]])) \
        != math.inf
    # odd size with rho = 0 is always singular
    raw = np.random.default_rng(2).standard_normal((3, 3))
    B = raw - raw.T
    assert skew_inverse_norm(0.0, B) == math.inf
    # even size, singular B, rho = 0
    assert skew_inverse_norm(0.0, np.zeros((2, 2))) == math.inf
    # even size, singular B, rho nonzero: 1/|rho|
    assert skew_inverse_norm(-2.0, np.zeros((4, 4))) == pytest.approx(0.5)
    with pytest.raises(DimensionMismatch):
        skew_inverse_norm(1.0, np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        skew_inverse_norm(1.0, np.zeros((2, 3)))
