"""Two-step nilpotent group structures with nondegenerate commutator form.

A structure is the data (n, m, J_1..J_m, Lambda): the horizontal layer is
R^{2n}, the center is R^m, the J_i are skew 2n x 2n matrices defining the
commutator bilinear form, and Lambda is an m x 2n tilt matrix for the
averaging surface.  A point is a float array whose last axis holds the
d = 2n + m exponential coordinates (ubar, bar) in R^{2n} x R^m: one point
of shape (d,) or a batch of shape (k, d), the same convention as the phase
and sphere modules.  The group operations broadcast a point against a batch;
the identity is np.zeros(d).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """A point or matrix does not match the structure's dimensions."""


class DomainError(ValueError):
    """An argument is outside the operation's domain."""


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MetivierStructure:
    """Algebraic datum (n, m, J, Lambda) of a two-step group.

    J has shape (m, 2n, 2n) with each slice exactly skew-symmetric;
    Lambda has shape (m, 2n).  Immutable after construction.
    """

    n: int
    m: int
    J: np.ndarray
    Lambda: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError("need n >= 1 and m >= 1")
        J = _freeze(self.J)
        Lam = _freeze(self.Lambda)
        if J.shape != (self.m, 2 * self.n, 2 * self.n):
            raise DimensionMismatch(
                f"J has shape {J.shape}, expected {(self.m, 2*self.n, 2*self.n)}")
        if Lam.shape != (self.m, 2 * self.n):
            raise DimensionMismatch(
                f"Lambda has shape {Lam.shape}, expected {(self.m, 2*self.n)}")
        # The lab multiplies up to d = 5 quantities that grow linearly with
        # the entries (a family's support-box volume: knapp's box sides are
        # c_one(s) times delta or sqrt(delta)) and adds squares of them (the
        # norms of Lambda^theta, (J^theta)^2 in the H-type check, |x|^2 of
        # sphere images).  Entries of at most 2^128 = (float max)^(1/8)
        # keep all of these inside the float range with room to spare; a
        # tilt between 2^200 and 2^205 overflows knapp's box volume, and
        # one of 1e154 the ball field's |x|^2.  NaN fails the comparison.
        bound = 2.0 ** (sys.float_info.max_exp // 8)
        if not ((np.abs(J) <= bound).all() and (np.abs(Lam) <= bound).all()):
            raise DomainError("J and Lambda entries must be finite and at "
                              "most 2^128 in magnitude")
        for i in range(self.m):
            if not np.array_equal(J[i].T, -J[i]):
                raise DimensionMismatch(f"J[{i}] is not exactly skew-symmetric")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "Lambda", Lam)

    @property
    def d(self):
        """Topological dimension 2n + m."""
        return 2 * self.n + self.m

    def J_theta(self, theta):
        """Sum theta_i J_i for theta in R^m, broadcast over leading axes.

        theta of shape (..., m) gives shape (..., 2n, 2n).  This is the one
        matrix product np.tensordot(theta, J, axes=(-1, 0)) makes, bit for
        bit, without its axis bookkeeping.
        """
        theta = np.asarray(theta, dtype=float)
        flat = np.dot(theta.reshape(-1, self.m), self.J.reshape(self.m, -1))
        return flat.reshape(theta.shape[:-1] + self.J.shape[1:])

    def Lambda_theta(self, theta):
        """Sum theta_i Lambda_i, a row vector in R^{2n}."""
        theta = np.asarray(theta, dtype=float)
        return theta @ self.Lambda

    def commutator_form(self, u, v):
        """(u^T J_i v)_{i=1..m} in R^m, broadcast over leading axes."""
        return np.einsum("ijk,...j,...k->...i", self.J, u, v)


def _check_point(s, x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != s.d:
        raise DimensionMismatch(
            f"point shape {x.shape} does not end in the structure's "
            f"dimension d={s.d}")
    return x


def group_multiply(s, x, y):
    """Product x . y = (ubar x + ubar y, bar x + bar y + (ubar x^T J_i ubar y)_i)."""
    x = _check_point(s, x)
    y = _check_point(s, y)
    k = 2 * s.n
    u, v = x[..., :k], y[..., :k]
    bar = x[..., k:] + y[..., k:] + s.commutator_form(u, v)
    return np.concatenate([u + v, bar], axis=-1)


def group_inverse(s, x):
    """Inverse (-ubar, -bar); valid since ubar^T J_i ubar = 0 by skew-symmetry."""
    return -_check_point(s, x)


def dilate(s, t, x):
    """Automorphic dilation (t ubar, t^2 bar).

    t is a scalar or a (k, 1) column with one factor per point of a batch.
    """
    if not np.all(np.greater(t, 0)):
        raise DomainError("dilation parameter must be positive")
    x = _check_point(s, x)
    k = 2 * s.n
    return np.concatenate([t * x[..., :k], t * t * x[..., k:]], axis=-1)


def _heisenberg(n, entry):
    """H^n whose symplectic matrix has entries entry and -entry."""
    if n < 1:
        raise DomainError("need n >= 1")
    J = np.zeros((1, 2 * n, 2 * n))
    j = np.arange(n)
    J[0, j, n + j] = entry
    J[0, n + j, j] = -entry
    return MetivierStructure(n=n, m=1, J=J, Lambda=np.zeros((1, 2 * n)))


def standard_heisenberg(n):
    """Heisenberg group H^n with the half-scaled symplectic form.

    The bilinear form carries the factor 1/2, so for n=1 the matrix is
    [[0, 1/2], [-1/2, 0]] and all singular values equal 1/2.
    """
    return _heisenberg(n, 0.5)


def normalized_heisenberg(n):
    """Heisenberg group with the unscaled symplectic matrix, so J^2 = -I."""
    return _heisenberg(n, 1.0)


# Left multiplication by the quaternion units i, j, k on R^4 ~ H,
# in the basis (1, i, j, k).  Each is skew-orthogonal and they anticommute.
_QUAT_I = np.array([
    [0., -1., 0., 0.],
    [1., 0., 0., 0.],
    [0., 0., 0., -1.],
    [0., 0., 1., 0.]])
_QUAT_J = np.array([
    [0., 0., -1., 0.],
    [0., 0., 0., 1.],
    [1., 0., 0., 0.],
    [0., -1., 0., 0.]])
_QUAT_K = np.array([
    [0., 0., 0., -1.],
    [0., 0., -1., 0.],
    [0., 1., 0., 0.],
    [1., 0., 0., 0.]])


def quaternionic_htype(blocks, m):
    """Heisenberg-type structure built from quaternion left multiplication.

    The horizontal layer is R^{4*blocks}; the m <= 3 skew matrices are
    block-diagonal copies of the unit quaternions, so (J^theta)^2 =
    -|theta|^2 I for every theta.
    """
    if blocks < 1:
        raise DomainError("need at least one quaternionic block")
    if not 1 <= m <= 3:
        raise DomainError("quaternionic construction supports m in 1..3 only")
    n = 2 * blocks
    units = [_QUAT_I, _QUAT_J, _QUAT_K][:m]
    J = np.zeros((m, 2 * n, 2 * n))
    for i, U in enumerate(units):
        for b in range(blocks):
            J[i, 4 * b:4 * b + 4, 4 * b:4 * b + 4] = U
    assert m < radon_hurwitz(2 * n)
    return MetivierStructure(n=n, m=m, J=J, Lambda=np.zeros((m, 2 * n)))


def radon_hurwitz(k):
    """Radon-Hurwitz number: k = odd * 2^(4p+q), q in 0..3, gives 8p + 2^q."""
    if k < 1:
        raise DomainError("need k >= 1")
    e = 0
    while k % 2 == 0:
        k //= 2
        e += 1
    p, q = divmod(e, 4)
    return 8 * p + 2 ** q


def theta_grid(m):
    """Quasi-uniform finite subset of the unit sphere S^{m-1}.

    {+1, -1} for m=1, 360 angles for m=2, a Fibonacci grid of 10^4 points
    for m=3.  Returns an array of shape (count, m).
    """
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = 2 * np.pi * np.arange(360) / 360
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if m == 3:
        count = 10000
        # Fibonacci sphere
        i = np.arange(count) + 0.5
        z = 1 - 2 * i / count
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        golden = np.pi * (3 - np.sqrt(5.0))
        phi = golden * i
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise DomainError("theta grids implemented for m <= 3")


# Most theta per block of smallness_margin: bounds the temporaries of the
# m = 3 grid's 10^4 singular value decompositions.
MARGIN_BLOCK = 1000


def smallness_margin(s):
    """min over a theta-grid of sigma_min(J^theta) - |Lambda^theta|.

    A positive value certifies the tilt-smallness condition on the grid.
    Where J^theta is (numerically) singular the margin is -|Lambda^theta|,
    so a singular J^theta never certifies.  The grid is walked in blocks
    of MARGIN_BLOCK; each matrix gets its own LAPACK call either way, and
    a minimum does not depend on the order, so the value has the bits of
    a whole-grid pass.
    """
    thetas = theta_grid(s.m)
    margin = math.inf
    for start in range(0, len(thetas), MARGIN_BLOCK):
        block = thetas[start:start + MARGIN_BLOCK]
        svals = np.linalg.svd(s.J_theta(block), compute_uv=False)
        smin = svals[:, -1]
        lam_norm = np.linalg.norm(block @ s.Lambda, axis=1)
        singular = smin <= 1e-12 * np.maximum(1.0, svals[:, 0])
        margin = np.minimum(margin, np.where(singular, -lam_norm,
                                             smin - lam_norm).min())
    return float(margin)


def skew_inverse_norm(rho, B):
    """Spectral norm of (rho I + B)^{-1} for skew-symmetric B, in closed form.

    Even size: singular iff rho = 0 and B singular; norm is 1/|rho| when
    det B = 0 and (rho^2 + |B^{-1}|^{-2})^{-1/2} otherwise.  Odd size:
    singular iff rho = 0, else 1/|rho|.  Returns math.inf for
    non-invertible input.  B of shape (..., N, N) broadcast against rho
    gives one norm per matrix, each with the bits of its own call; one
    (N, N) B and a scalar rho give one float.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim < 2 or B.shape[-1] != B.shape[-2]:
        raise DimensionMismatch("B must be square")
    if not np.allclose(np.swapaxes(B, -1, -2), -B, atol=1e-12):
        raise DimensionMismatch("B is not skew-symmetric")
    N = B.shape[-1]
    rho = np.asarray(rho, dtype=float)
    if N % 2 == 1 or N == 0:
        # a skew matrix of odd size is singular
        singular, inv_norm_B = np.ones(B.shape[:-2], dtype=bool), 0.0
    else:
        sv = np.linalg.svd(B, compute_uv=False)
        # |B^{-1}|^{-1} equals the smallest singular value
        inv_norm_B = sv[..., -1]
        singular = inv_norm_B <= 1e-12 * np.maximum(1.0, sv[..., 0])
    with np.errstate(divide="ignore"):
        norm = np.where(singular, 1.0 / np.abs(rho),
                        1.0 / np.hypot(rho, inv_norm_B))
    return float(norm) if norm.ndim == 0 else norm
