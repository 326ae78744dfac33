"""Phase geometry of the averaging operator: rank and curvature certificates.

The fixed-time averaging operator is, locally, an oscillatory integral with
phase Phi(x, t, y) = y_{2n} S^{2n}(x,t,y') + sum_i ybar_i Sbar_i(x,t,y'),
where the S's are defining functions of the translated sphere written over
the graph chart g(w') = sqrt(1 - |w'|^2).  This module evaluates one
analytic object, the mixed-Hessian columns Xi_{y_j} of the (x,t)-gradient
Xi of Phi.  At the chart points sample_chart_point draws, the geometry
command certifies with certify_point:

  * rank Xi_y = d at every point,
  * at points of the fold locus sigma = 0, drawn at x' = y': the spatial
    block and the curvature of the cone y -> Xi(x,t,y) have rank d-1, and
    the diagonal curvature scalar c has |c| >= c_bound - C_SLACK, its
    certified floor.  The curvature matrix is the y-derivative of
    <N, Xi_y> (see curvature_matrix): a central difference of the analytic
    Xi_y along the chart slots y', and along the slots (y_{2n}, ybar), in
    which Phi is linear and Xi_y affine, one unit difference, exact.

Every rank uses the one cutoff of _rank.  A point that breaks one of these
deviates.  Only the tests check the determinant identity, the fold cone's
curvature rank d-2 and the two-sided fold, with the gradient Xi, the closed
forms and the finite-difference oracles of tests/oracles.py.

Coordinates: x = (x', x_{2n}, xbar) in R^{2n-1} x R x R^m, same split for
y; the time t is appended as the last gradient slot, so Xi lives in
R^{d+1} with d = 2n + m.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import DomainError, MetivierStructure


class ChartError(DomainError):
    """A point lies outside the graph chart |x' - y'| < t."""


# Radii of the y' ball and of the ubar x perturbation in sample_chart_point.
YPRIME_RADIUS = X_PERTURBATION = 0.1
# Step of the central differences of Xi_y along the chart slots y' that
# give the curvature matrix.
FD_STEP = 1e-4
# Slack of the fold-point check |c| >= c_bound - C_SLACK.
C_SLACK = 1e-8


# --- graph chart ---------------------------------------------------------

def _chart(s: MetivierStructure, x: np.ndarray, t: float, yp: np.ndarray):
    """(w, g, grad g) with w = (x' - y')/t and g(w) = sqrt(1 - |w|^2).

    On the sphere chart h = <w, grad g> - g simplifies to -1/g, and
    grad h to -w/g^3; callers write both inline.
    """
    w = (x[: 2 * s.n - 1] - yp) / t
    ww = float(np.dot(w, w))
    if ww >= 1.0:
        raise ChartError("argument leaves the upper hemisphere chart")
    g = float(np.sqrt(1.0 - ww))
    return w, g, -w / g


def _g_hess(w: np.ndarray, g: float) -> np.ndarray:
    return -np.eye(len(w)) / g - np.outer(w, w) / g ** 3


def _split_x(s: MetivierStructure, x: np.ndarray):
    two_n = 2 * s.n
    return x[: two_n - 1], x[two_n - 1], x[two_n: two_n + s.m]


def _linear_columns(s: MetivierStructure, x: np.ndarray, t: float,
                    yp: np.ndarray, chart) -> np.ndarray:
    """Columns Xi_{y_2n}, Xi_{ybar_1}..Xi_{ybar_m}, shape (d+1, m+1).

    Xi is linear in (y_2n, ybar), and these columns depend on y' only,
    through chart = _chart(s, x, t, yp).
    """
    two_n = 2 * s.n
    _, g, gg = chart
    h = -1.0 / g
    vec = np.concatenate([yp, [-t * g]])
    cols = np.zeros((s.d + 1, s.m + 1))
    # y_{2n} column: (-grad g, 1, 0_m, h); the time row is last
    cols[: two_n - 1, 0] = -gg
    cols[two_n - 1, 0] = 1.0
    cols[-1, 0] = h
    for i in range(s.m):
        Ji = s.J[i]
        ci = float(x[:two_n] @ Ji[:, -1] - t * s.Lambda[i, -1])
        cols[: two_n - 1, 1 + i] = Ji[: two_n - 1, :] @ vec - ci * gg
        cols[two_n - 1, 1 + i] = Ji[-1, :] @ vec
        cols[two_n + i, 1 + i] = 1.0
        cols[-1, 1 + i] = h * ci - s.Lambda[i] @ vec
    return cols


def sigma_value(s: MetivierStructure, x: np.ndarray, t: float,
                y: np.ndarray) -> float:
    """Rotational-curvature scalar y_{2n} + (ubar x^T J^{ybar} - t L^{ybar}) e_{2n}."""
    two_n = 2 * s.n
    _, y2n, ybar = _split_x(s, y)
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    return float(y2n + x[:two_n] @ Jy[:, -1] - t * Ly[-1])


def y2n_on_fold(s: MetivierStructure, x: np.ndarray, t: float,
                ybar: np.ndarray) -> float:
    """Solution of sigma = 0 in the y_{2n} slot."""
    two_n = 2 * s.n
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    return float(t * Ly[-1] - x[:two_n] @ Jy[:, -1])


def xi_y(s: MetivierStructure, x: np.ndarray, t: float,
         y: np.ndarray) -> np.ndarray:
    """Columns Xi_{y_1}..Xi_{y_d} of the mixed Hessian, shape (d+1, d)."""
    two_n = 2 * s.n
    yp, y2n, ybar = _split_x(s, y)
    chart = _chart(s, x, t, yp)
    w, g, gg = chart
    gh = _g_hess(w, g)
    hg = -w / g ** 3
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    sig = float(y2n + x[:two_n] @ Jy[:, -1] - t * Ly[-1])
    cols = np.zeros((s.d + 1, s.d))
    for j in range(two_n - 1):
        ej_ext = np.zeros(two_n)
        ej_ext[j] = 1.0
        ej_ext[-1] = gg[j]                     # e_j + (d_j g) e_{2n}
        cols[: two_n - 1, j] = sig / t * gh[:, j] + Jy[: two_n - 1, :] @ ej_ext
        cols[two_n - 1, j] = Jy[-1, :] @ ej_ext
        cols[-1, j] = -sig / t * hg[j] - Ly @ ej_ext
    cols[:, two_n - 1:] = _linear_columns(s, x, t, yp, chart)
    return cols


def _rank(sv: np.ndarray) -> int:
    """Count of the descending singular values sv above 1e-7 * sv[0]."""
    return int(np.sum(sv > 1e-7 * sv[0])) if len(sv) and sv[0] > 0 else 0


@dataclass(frozen=True)
class CurvatureReport:
    """Certification record for one sampled chart point."""

    x: np.ndarray
    t: float
    y: np.ndarray
    sigma: float
    on_fold: bool
    rank_xi: int
    rank_spatial: int
    c_value: Optional[float] = None     # |c|
    c_bound: Optional[float] = None
    rank_curv: Optional[int] = None

    @property
    def deviates(self) -> bool:
        """Whether rank Xi_y is not d or, at a fold point, the spatial or
        curvature rank is not d-1 or |c| < c_bound - C_SLACK."""
        d = len(self.x)
        return self.rank_xi != d or self.on_fold and (
            self.rank_spatial != d - 1 or self.rank_curv != d - 1
            or abs(self.c_value) < self.c_bound - C_SLACK)


def c_value(s: MetivierStructure, x: np.ndarray, t: float, y: np.ndarray,
            N: np.ndarray) -> float:
    """Diagonal curvature scalar of the x'=y' block form.

    c = t^{-1} ubar a^T J^{ybar} e_{2n} - t^{-2} a_{d+1} sigma
        - t^{-1} a_{d+1} L^{ybar} e_{2n} with a the normal components.
    """
    two_n = 2 * s.n
    _, _, ybar = _split_x(s, y)
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    sig = sigma_value(s, x, t, y)
    ubar_a = N[:two_n]
    a_last = N[s.d]
    return float(ubar_a @ Jy[:, -1] / t - a_last * sig / t ** 2
                 - a_last * Ly[-1] / t)


def c_lower_bound(s: MetivierStructure, t: float, y: np.ndarray,
                  N: np.ndarray) -> float:
    """Certified floor t^{-1} |ybar| |ubar a| (s_min(J^v) - |L^v|), v = ybar/|ybar|."""
    _, _, ybar = _split_x(s, y)
    r = float(np.linalg.norm(ybar))
    if r == 0.0:
        raise DomainError("ybar must be nonzero")
    v = ybar / r
    smin = float(np.linalg.svd(s.J_theta(v), compute_uv=False)[-1])
    lam = float(np.linalg.norm(s.Lambda_theta(v)))
    return float(np.linalg.norm(N[: 2 * s.n]) * r * (smin - lam) / t)


def curvature_matrix(s: MetivierStructure, x: np.ndarray, t: float,
                     y: np.ndarray, N: np.ndarray):
    """(C, rank C) for the curvature matrix C_{jl} = d <N, Xi_{y_j}> / dy_l.

    Along the 2n-1 chart slots y', central differences of the analytic xi_y
    at FD_STEP and FD_STEP/2, combined by one Richardson step.  Xi_y is
    affine in the slots (y_{2n}, ybar), since the phase is linear in them,
    so along each of those one unit forward difference from the shared
    xi_y(y) is exact.  C is the symmetrized D; N is held fixed while y
    varies.
    """
    k = 2 * s.n - 1
    D = np.empty((s.d, s.d))

    def chart_column(l, h):
        yp = np.array(y); yp[l] += h
        ym = np.array(y); ym[l] -= h
        return N @ (xi_y(s, x, t, yp) - xi_y(s, x, t, ym)) / (2.0 * h)

    for l in range(k):
        D[:, l] = (4.0 * chart_column(l, FD_STEP / 2.0)
                   - chart_column(l, FD_STEP)) / 3.0
    base = xi_y(s, x, t, y)
    for l in range(k, s.d):
        yl = np.array(y); yl[l] += 1.0
        D[:, l] = N @ (xi_y(s, x, t, yl) - base)
    C = (D + D.T) / 2.0
    return C, _rank(np.linalg.svd(C, compute_uv=False))


# --- chart sampling ------------------------------------------------------

def _ball(rng, dim, radius):
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v * radius * rng.uniform() ** (1.0 / dim)


def sample_chart_point(s: MetivierStructure, rng: "np.random.Generator",
                       on_fold: bool = False):
    """One seeded chart point (x, t, y).

    y' lies in a small ball, ubar x is a perturbation of e_{2n}, t is in
    [1,2], ybar sits on the annulus 1/2 <= |ybar| <= 2.  With on_fold the
    x' block is set equal to y' (where the analytic block forms apply)
    and the y_{2n} slot is solved from sigma = 0.
    """
    two_n = 2 * s.n
    yp = _ball(rng, two_n - 1, YPRIME_RADIUS)
    x = np.zeros(s.d)
    x[:two_n] = _ball(rng, two_n, X_PERTURBATION)
    x[two_n - 1] += 1.0
    if on_fold:
        x[: two_n - 1] = yp
    x[two_n:] = rng.uniform(-0.5, 0.5, s.m)
    t = float(rng.uniform(1.0, 2.0))
    if s.m == 1:
        r = rng.uniform(0.5, 2.0)
        ybar = np.array([r if rng.uniform() < 0.5 else -r])
    else:
        ybar = _ball(rng, s.m, 1.0)
        ybar *= rng.uniform(0.5, 2.0) / np.linalg.norm(ybar)
    y2n = y2n_on_fold(s, x, t, ybar) if on_fold else rng.uniform(-1.0, 1.0)
    return x, t, np.concatenate([yp, [y2n], ybar])


def certify_point(s: MetivierStructure, x: np.ndarray, t: float,
                  y: np.ndarray, on_fold: bool = False) -> CurvatureReport:
    """Ranks of Xi_y and of its spatial block at one chart point; at a
    fold point (on_fold) whose Xi_y has full rank, also rank_curv, |c| and
    its floor, from the unit normal N of Xi_y.

    N keeps the sign the SVD gives it: the entry N_{2n} that could fix
    the sign is zero to rounding at the fold points sample_chart_point
    draws (x' = y').  c is odd in N, so the report keeps |c|; the floor
    and the curvature rank do not depend on the sign.
    """
    cols = xi_y(s, x, t, y)
    u, sv, _ = np.linalg.svd(cols)
    rank_xi = _rank(sv)
    curvature = {}
    if on_fold and rank_xi == s.d:
        N = u[:, -1]
        _, rank_curv = curvature_matrix(s, x, t, y, N)
        curvature = dict(c_value=abs(c_value(s, x, t, y, N)),
                         c_bound=c_lower_bound(s, t, y, N),
                         rank_curv=rank_curv)
    return CurvatureReport(
        x=np.array(x), t=float(t), y=np.array(y),
        sigma=sigma_value(s, x, t, y), on_fold=on_fold, rank_xi=rank_xi,
        rank_spatial=_rank(np.linalg.svd(cols[:-1], compute_uv=False)),
        **curvature)
