"""Phase geometry of the averaging operator: rank and curvature certificates.

The fixed-time averaging operator is, locally, an oscillatory integral with
phase Phi(x, t, y) = y_{2n} S^{2n}(x,t,y') + sum_i ybar_i Sbar_i(x,t,y'),
where the S's are defining functions of the translated sphere written over
the graph chart g(w') = sqrt(1 - |w'|^2).  This module evaluates Phi, its
(x,t)-gradient Xi, and the mixed-Hessian columns Xi_{y_j} analytically, and
certifies at sampled chart points:

  * rank Xi_y = d everywhere in the chart,
  * the spatial block drops exactly one rank on the fold locus sigma = 0,
  * the cone y -> Xi(x,t,y) has d-1 nonvanishing principal curvatures,
  * the fold cone sigma = 0 has d-2 nonvanishing principal curvatures,
  * both transversal derivatives of det along kernel and cokernel are
    nonzero (two-sided fold).

Coordinates: x = (x', x_{2n}, xbar) in R^{2n-1} x R x R^m, same split for
y; the time t is appended as the last gradient slot, so Xi lives in
R^{d+1} with d = 2n + m.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .groups import DomainError, MetivierStructure


class ChartError(DomainError):
    """A point lies outside the graph chart |x' - y'| < t."""


# --- graph chart scalars -------------------------------------------------

def g_value(w: np.ndarray) -> float:
    s = float(np.dot(w, w))
    if s >= 1.0:
        raise ChartError("argument leaves the upper hemisphere chart")
    return float(np.sqrt(1.0 - s))


def g_grad(w: np.ndarray) -> np.ndarray:
    return -w / g_value(w)


def g_hess(w: np.ndarray) -> np.ndarray:
    g = g_value(w)
    return -np.eye(len(w)) / g - np.outer(w, w) / g ** 3


def h_value(w: np.ndarray) -> float:
    # h = <w, grad g> - g simplifies to -1/g on the sphere chart.
    return -1.0 / g_value(w)


def h_grad(w: np.ndarray) -> np.ndarray:
    return -w / g_value(w) ** 3


@dataclass(frozen=True)
class PhaseModel:
    """Chart data for the phase functions of one group structure."""

    structure: MetivierStructure
    yprime_radius: float = 0.1
    x_perturbation: float = 0.1

    @property
    def n(self):
        return self.structure.n

    @property
    def m(self):
        return self.structure.m

    @property
    def d(self):
        return self.structure.d


def _split_x(pm: PhaseModel, x: np.ndarray):
    two_n = 2 * pm.n
    return x[: two_n - 1], x[two_n - 1], x[two_n: two_n + pm.m]


def _w_of(pm: PhaseModel, x: np.ndarray, t: float, yp: np.ndarray):
    xp = x[: 2 * pm.n - 1]
    return (xp - yp) / t


def defining_functions(pm: PhaseModel, x: np.ndarray, t: float,
                       yp: np.ndarray) -> Tuple[float, np.ndarray]:
    """(S^{2n}, Sbar) at a chart point.

    S^{2n} = x_{2n} - t g((x'-y')/t) and
    Sbar_i = x_{2n+i} + (ubar x^T J_i - t Lambda_i)(P^T y' - t g e_{2n}).
    """
    s = pm.structure
    two_n = 2 * s.n
    w = _w_of(pm, x, t, yp)
    g = g_value(w)
    ubar_x = x[:two_n]
    vec = np.concatenate([yp, [-t * g]])          # P^T y' - t g e_{2n}
    S2n = x[two_n - 1] - t * g
    rows = np.einsum("j,ijk->ik", ubar_x, s.J)    # (m, 2n): ubar x^T J_i
    Sbar = x[two_n: two_n + s.m] + (rows - t * s.Lambda) @ vec
    return float(S2n), Sbar


def phi(pm: PhaseModel, x: np.ndarray, t: float, y: np.ndarray) -> float:
    """Phase y_{2n} S^{2n} + sum ybar_i Sbar_i."""
    yp, y2n, ybar = _split_x(pm, y)
    S2n, Sbar = defining_functions(pm, x, t, yp)
    return float(y2n * S2n + ybar @ Sbar)


def _linear_columns(pm: PhaseModel, x: np.ndarray, t: float,
                    yp: np.ndarray) -> np.ndarray:
    """Columns Xi_{y_2n}, Xi_{ybar_1}..Xi_{ybar_m}, shape (d+1, m+1).

    Xi is linear in (y_2n, ybar), and these columns depend on y' only.
    """
    s = pm.structure
    two_n = 2 * s.n
    w = _w_of(pm, x, t, yp)
    g = g_value(w)
    gg = g_grad(w)
    h = h_value(w)
    vec = np.concatenate([yp, [-t * g]])
    cols = np.zeros((s.d + 1, s.m + 1))
    # y_{2n} column: (-grad g, 1, 0_m, h)
    cols[: two_n - 1, 0] = -gg
    cols[two_n - 1, 0] = 1.0
    cols[s.d, 0] = h
    for i in range(s.m):
        Ji = s.J[i]
        ci = float(x[:two_n] @ Ji[:, -1] - t * s.Lambda[i, -1])
        cols[: two_n - 1, 1 + i] = Ji[: two_n - 1, :] @ vec - ci * gg
        cols[two_n - 1, 1 + i] = Ji[-1, :] @ vec
        cols[two_n + i, 1 + i] = 1.0
        cols[s.d, 1 + i] = h * ci - s.Lambda[i] @ vec
    return cols


def xi(pm: PhaseModel, x: np.ndarray, t: float, y: np.ndarray) -> np.ndarray:
    """Gradient of Phi in (x, t), a vector in R^{d+1}."""
    k = 2 * pm.n - 1
    return _linear_columns(pm, x, t, y[:k]) @ y[k:]


def sigma_value(pm: PhaseModel, x: np.ndarray, t: float,
                y: np.ndarray) -> float:
    """Rotational-curvature scalar y_{2n} + (ubar x^T J^{ybar} - t L^{ybar}) e_{2n}."""
    s = pm.structure
    two_n = 2 * s.n
    _, y2n, ybar = _split_x(pm, y)
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    return float(y2n + x[:two_n] @ Jy[:, -1] - t * Ly[-1])


def y2n_on_fold(pm: PhaseModel, x: np.ndarray, t: float,
                ybar: np.ndarray) -> float:
    """Solution of sigma = 0 in the y_{2n} slot."""
    s = pm.structure
    two_n = 2 * s.n
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    return float(t * Ly[-1] - x[:two_n] @ Jy[:, -1])


def xi_y(pm: PhaseModel, x: np.ndarray, t: float,
         y: np.ndarray) -> np.ndarray:
    """Columns Xi_{y_1}..Xi_{y_d} of the mixed Hessian, shape (d+1, d)."""
    s = pm.structure
    two_n = 2 * s.n
    yp, y2n, ybar = _split_x(pm, y)
    w = _w_of(pm, x, t, yp)
    gg = g_grad(w)
    gh = g_hess(w)
    hg = h_grad(w)
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    sig = float(y2n + x[:two_n] @ Jy[:, -1] - t * Ly[-1])
    cols = np.zeros((s.d + 1, s.d))
    for j in range(two_n - 1):
        ej_ext = np.zeros(two_n)
        ej_ext[j] = 1.0
        ej_ext[-1] = gg[j]                     # e_j + (d_j g) e_{2n}
        col = np.zeros(s.d + 1)
        col[: two_n - 1] = sig / t * gh[:, j] + Jy[: two_n - 1, :] @ ej_ext
        col[two_n - 1] = Jy[-1, :] @ ej_ext
        col[s.d] = -sig / t * hg[j] - Ly @ ej_ext
        cols[:, j] = col
    cols[:, two_n - 1:] = _linear_columns(pm, x, t, yp)
    return cols


def spatial_block(xi_cols: np.ndarray) -> np.ndarray:
    """Pi Xi_y: drop the time row, keeping the d x d spatial block."""
    return xi_cols[:-1, :]


def det_identity_rhs(pm: PhaseModel, x: np.ndarray, t: float,
                     y: np.ndarray) -> float:
    """det of t^{-1} sigma g'' + P J^{ybar} P^T + B - B^T.

    Equal to det Pi Xi_y; at sigma = 0 the matrix is odd skew-symmetric,
    so both sides vanish.
    """
    s = pm.structure
    two_n = 2 * s.n
    yp, _, ybar = _split_x(pm, y)
    w = _w_of(pm, x, t, yp)
    Jy = s.J_theta(ybar)
    sig = sigma_value(pm, x, t, y)
    B = np.outer(Jy[: two_n - 1, -1], g_grad(w))
    M = sig / t * g_hess(w) + Jy[: two_n - 1, : two_n - 1] + B - B.T
    return float(np.linalg.det(M))


def matrix_rank_report(mat: np.ndarray, tol: float = 1e-7):
    """(rank, singular values) with rank = count of s_i > tol * s_max."""
    sv = np.linalg.svd(mat, compute_uv=False)
    smax = sv[0] if len(sv) else 0.0
    rank = int(np.sum(sv > tol * smax)) if smax > 0 else 0
    return rank, sv


@dataclass(frozen=True)
class CurvatureReport:
    """Certification record for one sampled chart point."""

    x: np.ndarray
    t: float
    y: np.ndarray
    sigma: float
    normal: Optional[np.ndarray]
    c_value: Optional[float]
    c_bound: Optional[float]
    singular_values_xi: np.ndarray
    singular_values_curv: Optional[np.ndarray]
    rank_xi: int
    rank_spatial: int
    rank_curv: Optional[int]

    def csv_row(self) -> str:
        fields = [repr(float(v)) for v in self.x]
        fields += [repr(float(self.t))]
        fields += [repr(float(v)) for v in self.y]
        fields += [repr(float(self.sigma)),
                   str(self.rank_xi), str(self.rank_spatial),
                   str(self.rank_curv if self.rank_curv is not None else -1),
                   repr(float(self.c_value)) if self.c_value is not None else "",
                   repr(float(self.c_bound)) if self.c_bound is not None else ""]
        return ",".join(fields)


def mixed_hessian_rank(pm: PhaseModel, x: np.ndarray, t: float,
                       y: np.ndarray, tol: float = 1e-7) -> CurvatureReport:
    """Rank certificate at one point, no curvature entries."""
    cols = xi_y(pm, x, t, y)
    rank_full, sv_full = matrix_rank_report(cols, tol)
    rank_sp, _ = matrix_rank_report(spatial_block(cols), tol)
    return CurvatureReport(
        x=np.array(x), t=float(t), y=np.array(y),
        sigma=sigma_value(pm, x, t, y),
        normal=None, c_value=None, c_bound=None,
        singular_values_xi=sv_full, singular_values_curv=None,
        rank_xi=rank_full, rank_spatial=rank_sp, rank_curv=None)


def normal_vector(pm: PhaseModel, x: np.ndarray, t: float,
                  y: np.ndarray) -> np.ndarray:
    """Unit vector in R^{d+1} orthogonal to all columns of Xi_y.

    Sign is fixed by a nonnegative 2n-th entry.  Raises when the columns
    are rank deficient, since then the null direction is not unique.
    """
    cols = xi_y(pm, x, t, y)
    rank, sv = matrix_rank_report(cols)
    if rank < pm.d:
        raise DomainError("mixed Hessian is rank deficient, normal undefined")
    u, _, _ = np.linalg.svd(cols)
    N = u[:, -1]
    two_n = 2 * pm.n
    if N[two_n - 1] < 0:
        N = -N
    return N


def c_value(pm: PhaseModel, x: np.ndarray, t: float, y: np.ndarray,
            N: np.ndarray) -> float:
    """Diagonal curvature scalar of the x'=y' block form.

    c = t^{-1} ubar a^T J^{ybar} e_{2n} - t^{-2} a_{d+1} sigma
        - t^{-1} a_{d+1} L^{ybar} e_{2n} with a the normal components.
    """
    s = pm.structure
    two_n = 2 * s.n
    _, _, ybar = _split_x(pm, y)
    Jy = s.J_theta(ybar)
    Ly = s.Lambda_theta(ybar)
    sig = sigma_value(pm, x, t, y)
    ubar_a = N[:two_n]
    a_last = N[s.d]
    return float(ubar_a @ Jy[:, -1] / t - a_last * sig / t ** 2
                 - a_last * Ly[-1] / t)


def c_lower_bound(pm: PhaseModel, t: float, y: np.ndarray,
                  N: np.ndarray) -> float:
    """Certified floor t^{-1} |ybar| |ubar a| (s_min(J^v) - |L^v|), v = ybar/|ybar|."""
    s = pm.structure
    two_n = 2 * s.n
    _, _, ybar = _split_x(pm, y)
    r = float(np.linalg.norm(ybar))
    if r == 0.0:
        raise DomainError("ybar must be nonzero")
    v = ybar / r
    Jv = s.J_theta(v)
    smin = float(np.linalg.svd(Jv, compute_uv=False)[-1])
    lam = float(np.linalg.norm(s.Lambda_theta(v)))
    ubar_a = N[:two_n]
    return float(np.linalg.norm(ubar_a) * r * (smin - lam) / t)


def _second_difference(f, y: np.ndarray, j: int, l: int, h: float) -> float:
    yj = np.array(y)
    if j == l:
        yp = np.array(y); yp[j] += h
        ym = np.array(y); ym[j] -= h
        return (f(yp) - 2.0 * f(yj) + f(ym)) / h ** 2
    ypp = np.array(y); ypp[j] += h; ypp[l] += h
    ypm = np.array(y); ypm[j] += h; ypm[l] -= h
    ymp = np.array(y); ymp[j] -= h; ymp[l] += h
    ymm = np.array(y); ymm[j] -= h; ymm[l] -= h
    return (f(ypp) - f(ypm) - f(ymp) + f(ymm)) / (4.0 * h ** 2)


def _fd_hessian(f, z: np.ndarray, step: float) -> np.ndarray:
    """Symmetric Hessian of f at z: central second differences at step and
    step/2, combined by one Richardson refinement."""
    k = len(z)
    H = np.zeros((k, k))
    for j in range(k):
        for l in range(j, k):
            d1 = _second_difference(f, z, j, l, step)
            d2 = _second_difference(f, z, j, l, step / 2.0)
            H[j, l] = H[l, j] = (4.0 * d2 - d1) / 3.0
    return H


def curvature_matrix(pm: PhaseModel, x: np.ndarray, t: float,
                     y: np.ndarray, N: np.ndarray, step: float = 1e-4,
                     tol: float = 1e-5):
    """Curvature matrix C_{jl} = d^2 <N, Xi> / dy_j dy_l and its rank.

    Central second differences with one Richardson refinement; N is held
    fixed while y varies.  The rank cutoff sits well above the finite
    difference noise floor (about 1e-7 relative) and well below any
    certified curvature.
    """
    def f(yy):
        return float(N @ xi(pm, x, t, yy))

    C = _fd_hessian(f, y, step)
    rank, sv = matrix_rank_report(C, tol)
    return C, rank, sv


def curvature_block_form(pm: PhaseModel, x: np.ndarray, t: float,
                         y: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Analytic curvature matrix at x'=y': [[c I, PA], [A^T P^T, 0]].

    Rows of A^T: first -t^{-1} ubar a^T, then for each i
    ubar a^T J_i - t^{-1}((ubar x^T J_i - t L_i) e_{2n}) ubar a^T
    - a_{d+1} L_i.
    """
    s = pm.structure
    two_n = 2 * s.n
    d = s.d
    ubar_x = x[:two_n]
    ubar_a = N[:two_n]
    a_last = N[d]
    At = np.zeros((s.m + 1, two_n))
    At[0] = -ubar_a / t
    for i in range(s.m):
        Ji = s.J[i]
        ci = float(ubar_x @ Ji[:, -1] - t * s.Lambda[i, -1])
        At[i + 1] = ubar_a @ Ji - (ci / t) * ubar_a - a_last * s.Lambda[i]
    c = c_value(pm, x, t, y, N)
    C = np.zeros((d, d))
    C[: two_n - 1, : two_n - 1] = c * np.eye(two_n - 1)
    PA = At[:, : two_n - 1].T
    C[: two_n - 1, two_n - 1:] = PA
    C[two_n - 1:, : two_n - 1] = PA.T
    return C


# --- fold cone -----------------------------------------------------------

def fold_point(pm: PhaseModel, x: np.ndarray, t: float, yp: np.ndarray,
               ybar: np.ndarray) -> np.ndarray:
    """Assemble y on the fold locus sigma = 0."""
    y = np.zeros(pm.d)
    two_n = 2 * pm.n
    y[: two_n - 1] = yp
    y[two_n - 1] = y2n_on_fold(pm, x, t, ybar)
    y[two_n:] = ybar
    return y


def fold_map(pm: PhaseModel, x: np.ndarray, t: float, yp: np.ndarray,
             ybar: np.ndarray) -> np.ndarray:
    """xi(x,t,y',ybar): spatial gradient restricted to the fold locus."""
    y = fold_point(pm, x, t, yp, ybar)
    return xi(pm, x, t, y)[:-1]


def fold_tangent_columns(pm: PhaseModel, x: np.ndarray, t: float,
                         yp: np.ndarray, ybar: np.ndarray) -> np.ndarray:
    """The d-1 tangent vectors of the fold cone at (y', ybar), shape (d, d-1).

    Chain rule through y_{2n} = y2n_on_fold: the ybar_i tangent picks up
    the Xi_{y_{2n}} column times d(y2n_on_fold)/d ybar_i.
    """
    s = pm.structure
    two_n = 2 * s.n
    y = fold_point(pm, x, t, yp, ybar)
    cols = spatial_block(xi_y(pm, x, t, y))
    out = np.zeros((s.d, s.d - 1))
    out[:, : two_n - 1] = cols[:, : two_n - 1]
    ubar_x = x[:two_n]
    for i in range(s.m):
        dy2n = float(t * s.Lambda[i, -1] - ubar_x @ s.J[i][:, -1])
        out[:, two_n - 1 + i] = cols[:, two_n + i] + dy2n * cols[:, two_n - 1]
    return out


def fold_cone_curvature(pm: PhaseModel, x: np.ndarray, t: float,
                        yp: np.ndarray, ybar: np.ndarray,
                        step: float = 1e-4, tol: float = 1e-5):
    """Curvature rank of the fold cone at a point with sigma = 0.

    Returns (rank, singular values, normal nu).  The expected rank is
    d - 2: the cone's radial direction is flat and every other principal
    curvature is nonzero.
    """
    s = pm.structure
    two_n = 2 * s.n
    tang = fold_tangent_columns(pm, x, t, yp, ybar)
    rank_t, _ = matrix_rank_report(tang)
    if rank_t < s.d - 1:
        raise DomainError("degenerate tangent frame on the fold cone")
    u, _, _ = np.linalg.svd(tang)
    nu = u[:, -1]

    def f(z):
        return float(nu @ fold_map(pm, x, t, z[: two_n - 1], z[two_n - 1:]))

    C = _fd_hessian(f, np.concatenate([yp, ybar]), step)
    rank, sv = matrix_rank_report(C, tol)
    return rank, sv, nu


def fold_cone_block_form(pm: PhaseModel, x: np.ndarray, t: float,
                         y: np.ndarray, nu: np.ndarray):
    """Analytic fold-cone curvature at x'=y': [[-t^{-1} g I, PM], [M^T P^T, 0]].

    gamma = ubar a^T J^{ybar} e_{2n} with nu = (ubar a, abar); the columns
    of M are -J_i ubar a.
    """
    s = pm.structure
    two_n = 2 * s.n
    _, _, ybar = _split_x(pm, y)
    Jy = s.J_theta(ybar)
    ubar_a = nu[:two_n]
    gamma = float(ubar_a @ Jy[:, -1])
    k = s.d - 1
    C = np.zeros((k, k))
    C[: two_n - 1, : two_n - 1] = -(gamma / t) * np.eye(two_n - 1)
    M = np.stack([-s.J[i] @ ubar_a for i in range(s.m)], axis=1)
    PM = M[: two_n - 1, :]
    C[: two_n - 1, two_n - 1:] = PM
    C[two_n - 1:, : two_n - 1] = PM.T
    return C, gamma


def fold_transversality(pm: PhaseModel, x: np.ndarray, t: float,
                        y: np.ndarray, step: float = 1e-5):
    """Directional derivatives of det Pi Xi_y along kernel and cokernel.

    At a fold point (sigma = 0, x' = y') the spatial block has a one
    dimensional kernel b = (b', b_{2n}, 0) and cokernel a with a_{2n} = 0;
    the determinant must change sign transversally along both, which is
    what makes the singularity a two-sided fold.  Returns (left, right)
    derivatives together with the kernel and cokernel vectors.
    """
    cols = spatial_block(xi_y(pm, x, t, y))
    rank, _ = matrix_rank_report(cols)
    if rank != pm.d - 1:
        raise DomainError("not a fold point: spatial rank is not d-1")
    u, _, vt = np.linalg.svd(cols)
    b = vt[-1]          # right null vector: kernel direction in y
    a = u[:, -1]        # left null vector: cokernel direction in x

    def det_at(xx, yy):
        return float(np.linalg.det(spatial_block(xi_y(pm, xx, t, yy))))

    left = (det_at(x, y + step * b) - det_at(x, y - step * b)) / (2 * step)
    right = (det_at(x + step * a, y) - det_at(x - step * a, y)) / (2 * step)
    return left, right, b, a


# --- chart sampling ------------------------------------------------------

def _ball(rng, dim, radius):
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v * radius * rng.uniform() ** (1.0 / dim)


def sample_chart_point(pm: PhaseModel, rng: np.random.Generator,
                       on_fold: bool = False, match_xprime: bool = False):
    """One seeded chart point (x, t, y).

    y' lies in a small ball, ubar x is a perturbation of e_{2n}, t is in
    [1,2], ybar sits on the annulus 1/2 <= |ybar| <= 2.  With on_fold the
    y_{2n} slot is solved from sigma = 0; with match_xprime the x' block
    is set equal to y' (where the analytic block forms apply).
    """
    s = pm.structure
    two_n = 2 * s.n
    yp = _ball(rng, two_n - 1, pm.yprime_radius)
    x = np.zeros(s.d)
    pert = _ball(rng, two_n, pm.x_perturbation)
    x[:two_n] = pert
    x[two_n - 1] += 1.0
    if match_xprime:
        x[: two_n - 1] = yp
    x[two_n:] = rng.uniform(-0.5, 0.5, s.m)
    t = float(rng.uniform(1.0, 2.0))
    if s.m == 1:
        r = rng.uniform(0.5, 2.0)
        ybar = np.array([r if rng.uniform() < 0.5 else -r])
    else:
        ybar = _ball(rng, s.m, 1.0)
        ybar *= rng.uniform(0.5, 2.0) / np.linalg.norm(ybar)
    y = np.zeros(s.d)
    y[: two_n - 1] = yp
    y[two_n:] = ybar
    if on_fold:
        y[two_n - 1] = y2n_on_fold(pm, x, t, ybar)
    else:
        y[two_n - 1] = rng.uniform(-1.0, 1.0)
    return x, t, y


def certify_point(pm: PhaseModel, x: np.ndarray, t: float,
                  y: np.ndarray, with_curvature: bool = True,
                  tol: float = 1e-7) -> CurvatureReport:
    """Full certification record for one chart point."""
    base = mixed_hessian_rank(pm, x, t, y, tol)
    if not with_curvature or base.rank_xi < pm.d:
        return base
    N = normal_vector(pm, x, t, y)
    # the curvature matrix is finite-difference data; it keeps its own,
    # coarser rank cutoff above the differencing noise floor
    _, rank_c, sv_c = curvature_matrix(pm, x, t, y, N)
    return CurvatureReport(
        x=base.x, t=base.t, y=base.y, sigma=base.sigma,
        normal=N, c_value=c_value(pm, x, t, y, N),
        c_bound=c_lower_bound(pm, t, y, N),
        singular_values_xi=base.singular_values_xi,
        singular_values_curv=sv_c,
        rank_xi=base.rank_xi, rank_spatial=base.rank_spatial,
        rank_curv=rank_c)


GEOMETRY_CSV_HEADER = "# schema=1"


def geometry_csv(reports, margin: float) -> str:
    """CSV serialization of a batch of certification reports."""
    lines = [GEOMETRY_CSV_HEADER, f"# smallness_margin={margin!r}"]
    if reports:
        d = len(reports[0].x)
        cols = ([f"x{i}" for i in range(d)] + ["t"]
                + [f"y{i}" for i in range(d)]
                + ["sigma", "rank_xi", "rank_spatial", "rank_curv",
                   "c_value", "c_bound"])
        lines.append(",".join(cols))
    for r in reports:
        lines.append(r.csv_row())
    return "\n".join(lines) + "\n"
