"""Group arithmetic, structure constructors, margins, and the skew norm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import groups
from heislab.groups import (DimensionMismatch, DomainError,
                            MetivierStructure, dilate, group_inverse,
                            group_multiply, normalized_heisenberg,
                            quaternionic_htype, radon_hurwitz,
                            skew_inverse_norm, smallness_margin,
                            standard_heisenberg, theta_grid)
from oracles import whole_grid_margin


def random_point(rng, s, scale=2.0):
    return rng.uniform(-scale, scale, s.d)


# --- group laws ----------------------------------------------------------

def test_identity_and_inverse_exact():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(3)
    e = np.zeros(s.d)
    for _ in range(50):
        x = random_point(rng, s)
        assert np.array_equal(group_multiply(s, x, e), x)
        assert np.array_equal(group_multiply(s, e, x), x)
        # ubar^T J ubar cancels pairwise by skew-symmetry; only summation
        # order noise remains
        xi = group_multiply(s, x, group_inverse(s, x))
        assert np.max(np.abs(xi)) <= 1e-14


def test_associativity_seeded():
    for s in (standard_heisenberg(1), standard_heisenberg(2),
              quaternionic_htype(1, 3)):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            x, y, z = (random_point(rng, s) for _ in range(3))
            lhs = group_multiply(s, group_multiply(s, x, y), z)
            rhs = group_multiply(s, x, group_multiply(s, y, z))
            worst = max(worst, np.max(np.abs(lhs - rhs)))
        assert worst <= 1e-12


def test_dilation_cases():
    s = standard_heisenberg(1)
    rng = np.random.default_rng(5)
    x = random_point(rng, s)
    assert np.array_equal(dilate(s, 1.0, x), x)
    assert np.array_equal(dilate(s, 2.0, np.array([1.0, 0.0, 1.0])),
                          [2.0, 0.0, 4.0])
    batch = np.stack([x, x])
    for t in (0.0, -1.0, math.nan, np.array([[2.0], [0.0]])):
        with pytest.raises(DomainError):
            dilate(s, t, batch)


def test_dilation_automorphism_seeded():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        x, y = random_point(rng, s), random_point(rng, s)
        t = float(rng.uniform(0.5, 2.0))
        a = dilate(s, t, group_multiply(s, x, y))
        b = group_multiply(s, dilate(s, t, x), dilate(s, t, y))
        worst = max(worst, np.max(np.abs(a - b)))
    assert worst <= 1e-12


# --- group law properties ------------------------------------------------

EPS = np.finfo(float).eps


def draw_structure(data):
    """Standard or normalized H^n (n <= 3) or a quaternionic structure
    (blocks <= 2, m <= 3), half of them with a random tilt."""
    s = data.draw(st.one_of(
        st.builds(standard_heisenberg, st.integers(1, 3)),
        st.builds(normalized_heisenberg, st.integers(1, 3)),
        st.builds(quaternionic_htype, st.integers(1, 2), st.integers(1, 3))))
    if data.draw(st.booleans()):
        tilt = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=s.m * 2 * s.n,
                                  max_size=s.m * 2 * s.n))
        s = MetivierStructure(s.n, s.m, s.J,
                              np.reshape(tilt, (s.m, 2 * s.n)))
    return s


def draw_point(data, s, coords):
    return np.array(data.draw(st.lists(coords, min_size=s.d, max_size=s.d)),
                    dtype=float)


REALS = st.floats(-2.0, 2.0)
# k/16 with |k| <= 64: every twist term and partial sum is a multiple of
# 1/512 below 2^11 in magnitude, so the group arithmetic rounds nowhere
DYADIC = st.integers(-64, 64).map(lambda k: k / 16.0)


def _scale(*xs):
    return math.prod(1.0 + np.linalg.norm(x) for x in xs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_associativity_property(data):
    # the two bracketings round the bilinear twist differently; measured
    # worst case 0.6 eps * (1 + |x|)(1 + |y|)(1 + |z|), stated bound 8 eps
    s = draw_structure(data)
    x, y, z = (draw_point(data, s, REALS) for _ in range(3))
    lhs = group_multiply(s, group_multiply(s, x, y), z)
    rhs = group_multiply(s, x, group_multiply(s, y, z))
    assert np.max(np.abs(lhs - rhs)) <= 8 * EPS * _scale(x, y, z)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_identity_and_inverse_property(data):
    s = draw_structure(data)
    e = np.zeros(s.d)
    x = draw_point(data, s, REALS)
    assert np.array_equal(group_multiply(s, x, e), x)
    assert np.array_equal(group_multiply(s, e, x), x)
    assert np.array_equal(group_inverse(s, group_inverse(s, x)), x)
    # x x^-1 = x^-1 x = e exactly where the twist's pairwise cancelling
    # terms are summed without rounding
    x = draw_point(data, s, DYADIC)
    xi = group_inverse(s, x)
    for prod in (group_multiply(s, x, xi), group_multiply(s, xi, x)):
        assert np.array_equal(prod, e)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_dilation_homomorphism_property(data):
    # measured worst case 0.7 eps * (1 + t)^2 (1 + |x|)(1 + |y|), stated
    # bound 8 eps
    s = draw_structure(data)
    x, y = (draw_point(data, s, REALS) for _ in range(2))
    t = data.draw(st.floats(0.25, 4.0))
    a = dilate(s, t, group_multiply(s, x, y))
    b = group_multiply(s, dilate(s, t, x), dilate(s, t, y))
    assert np.max(np.abs(a - b)) <= 8 * EPS * (1.0 + t) ** 2 * _scale(x, y)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_batch_law_matches_rows(data):
    # a (k, d) batch, and a batch against one point, give bitwise the rows
    # of k single-point calls
    s = draw_structure(data)
    k = data.draw(st.integers(1, 5))
    xs, ys = (np.stack([draw_point(data, s, REALS) for _ in range(k)])
              for _ in range(2))
    ts = np.array([[data.draw(st.floats(0.25, 4.0))] for _ in range(k)])
    product = group_multiply(s, xs, ys)
    inverse = group_inverse(s, xs)
    dilated = dilate(s, ts, xs)
    against_point = group_multiply(s, xs, ys[0])
    assert product.shape == inverse.shape == dilated.shape == xs.shape
    for i in range(k):
        assert np.array_equal(product[i], group_multiply(s, xs[i], ys[i]))
        assert np.array_equal(inverse[i], group_inverse(s, xs[i]))
        assert np.array_equal(dilated[i], dilate(s, ts[i, 0], xs[i]))
        assert np.array_equal(against_point[i],
                              group_multiply(s, xs[i], ys[0]))


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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_j_theta_is_tensordot(m):
    # the broadcast contract: theta (..., m) gives (..., 2n, 2n), with the
    # bits of tensordot, on the quaternionic units and on random skew J
    rng = np.random.default_rng(29 + m)
    raw = rng.standard_normal((m, 4, 4))
    for s in (quaternionic_htype(1, m),
              MetivierStructure(n=2, m=m, J=raw - raw.transpose(0, 2, 1),
                                Lambda=np.zeros((m, 4)))):
        for shape in ((m,), (7, m), (3, 5, m)):
            theta = rng.standard_normal(shape)
            got = s.J_theta(theta)
            want = np.tensordot(theta, s.J, axes=(-1, 0))
            assert got.shape == shape[:-1] + (4, 4)
            assert got.tobytes() == want.tobytes()


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
    J = standard_heisenberg(1).J
    # entries up to 2^128 in magnitude are taken, larger ones refused
    bound = 2.0 ** 128
    MetivierStructure(n=1, m=1, J=np.sign(J) * bound, Lambda=[[bound, -bound]])
    for bad in (math.nan, math.inf, -math.inf, np.nextafter(bound, math.inf),
                -2.0 ** 205):
        with pytest.raises(DomainError, match="finite"):
            MetivierStructure(n=1, m=1, J=J, Lambda=[[bad, 0.0]])
        with pytest.raises(DomainError, match="finite"):
            MetivierStructure(n=1, m=1, J=np.where(J != 0, J, bad),
                              Lambda=np.zeros((1, 2)))


def test_point_dimension_check():
    s = standard_heisenberg(2)
    good = np.zeros(s.d)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((s.d, 4)),
                np.float64(0.0)):
        with pytest.raises(DimensionMismatch):
            group_multiply(s, bad, good)
        with pytest.raises(DimensionMismatch):
            group_multiply(s, good, bad)
        with pytest.raises(DimensionMismatch):
            group_inverse(s, bad)
        with pytest.raises(DimensionMismatch):
            dilate(s, 2.0, bad)


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
    assert smallness_margin(standard_heisenberg(1)) == pytest.approx(
        0.5, abs=1e-14)
    assert smallness_margin(standard_heisenberg(2)) == pytest.approx(
        0.5, abs=1e-14)
    assert smallness_margin(quaternionic_htype(1, 3)) == pytest.approx(
        1.0, abs=1e-10)


def test_margin_negative_with_large_tilt():
    J = standard_heisenberg(1).J
    s = MetivierStructure(n=1, m=1, J=J, Lambda=np.array([[1.0, 0.0]]))
    assert smallness_margin(s) == pytest.approx(-0.5, abs=1e-14)


def test_margin_degenerate_flag():
    # a singular J^theta counts as -|Lambda^theta|, so with Lambda = 0 it
    # reads 0, not sigma_min(J^theta) - 0 > 0, and certifies nothing
    J = np.zeros((1, 2, 2))
    s = MetivierStructure(n=1, m=1, J=J, Lambda=np.zeros((1, 2)))
    assert smallness_margin(s) == 0.0
    J = np.array([[[0.0, -1e-13], [1e-13, 0.0]]])
    s = MetivierStructure(n=1, m=1, J=J, Lambda=np.zeros((1, 2)))
    assert smallness_margin(s) == 0.0


@pytest.mark.parametrize("block", [groups.MARGIN_BLOCK, 300])
def test_margin_blocks_match_whole_grid(monkeypatch, block):
    # the m = 3 grid of 10^4 theta in blocks (300 leaves a short last
    # block) gives the whole-grid minimum bit for bit
    monkeypatch.setattr(groups, "MARGIN_BLOCK", block)
    q = quaternionic_htype(1, 3)
    tilt = 0.05 * np.random.default_rng(31).standard_normal((3, 4))
    for s in (q, MetivierStructure(n=q.n, m=q.m, J=q.J, Lambda=tilt)):
        assert smallness_margin(s) == whole_grid_margin(s)
    assert smallness_margin(s) < smallness_margin(q)    # the tilt counts


def test_theta_grid_shapes():
    assert theta_grid(1).shape == (2, 1)
    g2 = theta_grid(2)
    assert g2.shape == (360, 2)
    assert np.allclose(np.linalg.norm(g2, axis=1), 1.0, atol=1e-12)
    g3 = theta_grid(3)
    assert g3.shape == (10000, 3)
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


@pytest.mark.parametrize("size", range(9))
def test_skew_inverse_norm_stack_matches_single_calls(size):
    # a (k, N, N) stack with a (k,) rho gives k norms, each with the bits of
    # its own one-matrix call; entry 1 is a singular B (zeros) with rho != 0,
    # entry 2 has rho = 0, entry 3 both
    rng = np.random.default_rng(60 + size)
    raw = rng.standard_normal((6, size, size))
    B = raw - np.swapaxes(raw, 1, 2)
    B[1] = B[3] = 0.0
    rho = rng.uniform(-2.0, 2.0, 6)
    rho[2] = rho[3] = 0.0
    got = skew_inverse_norm(rho, B)
    assert got.shape == (6,)
    single = [skew_inverse_norm(r, b) for r, b in zip(rho.tolist(), B)]
    assert all(isinstance(v, float) for v in single)
    assert [g.hex() for g in got.tolist()] == [v.hex() for v in single]
    assert got[1] == 1.0 / abs(rho[1])
    assert got[3] == math.inf
    # a skew matrix of odd size (or of size 0) is singular
    assert (got[2] == math.inf) == (size % 2 == 1 or size == 0)


def test_skew_inverse_norm_stack_refuses_bad_members():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((4, 4, 4))
    B = raw - np.swapaxes(raw, 1, 2)
    assert skew_inverse_norm(np.ones(4), B).shape == (4,)
    B[2, 0, 1] += 1.0
    with pytest.raises(DimensionMismatch):
        skew_inverse_norm(np.ones(4), B)
    with pytest.raises(DimensionMismatch):
        skew_inverse_norm(np.ones(3), np.zeros((3, 2, 3)))
