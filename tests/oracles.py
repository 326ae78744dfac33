"""Closed forms and finite-difference oracles that the tests compare against.

Nothing in heislab, the demos or the bench calls these; they check the
package's own evaluations:

  * whole_grid_margin, the smallness margin over the whole theta grid at
    once;
  * lemma_check_table, lemma-check's output with each sample checked as
    it is drawn, one matrix per call;
  * phi and its defining functions, whose differences test the gradient
    xi, whose differences in turn test the analytic xi_y;
  * det_identity_rhs, the closed form of det Pi Xi_y;
  * normal_vector and curvature_block_form, the x' = y' closed form of
    the curvature matrix that the CLI computes as a central difference of
    xi_y;
  * the fold cone: its curvature rank (d - 2) from the second-difference
    Hessian _fd_hessian of <nu, xi> with its own cutoff CURVATURE_TOL, its
    x' = y' block form, and the two transversal derivatives of det along
    kernel and cokernel (two-sided fold);
  * is_member and parse_region_csv for the exact rational regions;
  * box_count_blocks, the support-box lattice count with every block's
    points built afresh and the field evaluated on them; ball_inside,
    knapp_inside and scaling_inside, the ball, knapp and scaling sets as
    closures on row_dot_full, the row dot product that skips no zero
    coefficient; and moment_inside, the moment set as a closure on the
    coordinates;
  * node_order_average, the spherical average with no node culled.

Coordinates follow heislab.phase.
"""

from fractions import Fraction
from typing import Tuple

import numpy as np

from heislab.cli import _row, _table
from heislab.families import c_one, c_zero, knapp_frame
from heislab.groups import (DomainError, MetivierStructure, skew_inverse_norm,
                            theta_grid)
from heislab.phase import (FD_STEP, _chart, _g_hess, _linear_columns,
                           _rank, _split_x, c_value, sigma_value, xi_y,
                           y2n_on_fold)
from heislab.regions import RatPoint, Region, contains
from heislab.spheres import ScalarField, SphereRule

TRANSVERSAL_STEP = 1e-5     # central differences of fold_transversality
# Rank cutoff of the second-difference Hessian of fold_cone_curvature: well
# above its differencing noise floor (about 1e-7 relative) and well below
# any curvature the fold cone has.
CURVATURE_TOL = 1e-5


# --- groups --------------------------------------------------------------

def whole_grid_margin(s: MetivierStructure) -> float:
    """heislab.groups.smallness_margin in one pass over the whole theta grid."""
    thetas = theta_grid(s.m)
    Jt = np.tensordot(thetas, s.J, axes=(1, 0))          # (T, 2n, 2n)
    svals = np.linalg.svd(Jt, compute_uv=False)
    smin = svals[:, -1]
    lam_norm = np.linalg.norm(thetas @ s.Lambda, axis=1)
    singular = smin <= 1e-12 * np.maximum(1.0, svals[:, 0])
    return float(np.where(singular, -lam_norm, smin - lam_norm).min())


def lemma_check_table(seed: int, samples: int, tol: float = 1e-10) -> bytes:
    """heislab lemma-check's output bytes, one sample at a time: each draw
    (size, matrix, rho with 0 made 1) is checked as it is drawn, with one
    skew_inverse_norm call and one dense inverse and norm of its matrix."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(samples):
        size = int(rng.integers(2, 9))
        raw = rng.standard_normal((size, size))
        B = raw - raw.T
        rho = float(rng.uniform(-2.0, 2.0))
        if rho == 0.0:
            rho = 1.0
        got = float(skew_inverse_norm(rho, B))
        brute = float(np.linalg.norm(
            np.linalg.inv(rho * np.eye(size) + B), 2))
        rel = float(abs(got - brute) / brute)
        ok = rel <= tol
        if size % 2 == 1:
            ok = ok and abs(got - 1.0 / abs(rho)) <= tol / abs(rho)
        rows.append(_row((size, rho, got, brute, rel,
                          "pass" if ok else "FAIL")))
    return _table(["size", "rho", "formula", "bruteforce", "rel_error",
                   "status"], rows)


# --- phase ---------------------------------------------------------------

def xi(s: MetivierStructure, x: np.ndarray, t: float,
       y: np.ndarray) -> np.ndarray:
    """Gradient of Phi in (x, t), a vector in R^{d+1}: Xi is linear in
    (y_{2n}, ybar), with the columns of heislab.phase.xi_y."""
    k = 2 * s.n - 1
    yp = y[:k]
    return _linear_columns(s, x, t, yp, _chart(s, x, t, yp)) @ y[k:]


def defining_functions(s: MetivierStructure, x: np.ndarray, t: float,
                       yp: np.ndarray) -> Tuple[float, np.ndarray]:
    """(S^{2n}, Sbar) at a chart point.

    S^{2n} = x_{2n} - t g((x'-y')/t) and
    Sbar_i = x_{2n+i} + (ubar x^T J_i - t Lambda_i)(P^T y' - t g e_{2n}).
    """
    two_n = 2 * s.n
    _, g, _ = _chart(s, x, t, yp)
    ubar_x = x[:two_n]
    vec = np.concatenate([yp, [-t * g]])          # P^T y' - t g e_{2n}
    S2n = x[two_n - 1] - t * g
    rows = np.einsum("j,ijk->ik", ubar_x, s.J)    # (m, 2n): ubar x^T J_i
    Sbar = x[two_n: two_n + s.m] + (rows - t * s.Lambda) @ vec
    return float(S2n), Sbar


def phi(s: MetivierStructure, x: np.ndarray, t: float, y: np.ndarray) -> float:
    """Phase y_{2n} S^{2n} + sum ybar_i Sbar_i."""
    yp, y2n, ybar = _split_x(s, y)
    S2n, Sbar = defining_functions(s, x, t, yp)
    return float(y2n * S2n + ybar @ Sbar)


def det_identity_rhs(s: MetivierStructure, x: np.ndarray, t: float,
                     y: np.ndarray) -> float:
    """det of t^{-1} sigma g'' + P J^{ybar} P^T + B - B^T.

    Equal to det Pi Xi_y; at sigma = 0 the matrix is odd skew-symmetric,
    so both sides vanish.
    """
    two_n = 2 * s.n
    yp, _, ybar = _split_x(s, y)
    w, g, gg = _chart(s, x, t, yp)
    Jy = s.J_theta(ybar)
    sig = sigma_value(s, x, t, y)
    B = np.outer(Jy[: two_n - 1, -1], gg)
    M = sig / t * _g_hess(w, g) + Jy[: two_n - 1, : two_n - 1] + B - B.T
    return float(np.linalg.det(M))


def normal_vector(s: MetivierStructure, x: np.ndarray, t: float,
                  y: np.ndarray) -> np.ndarray:
    """Unit vector in R^{d+1} orthogonal to all columns of Xi_y.

    Sign is fixed by a nonnegative 2n-th entry.  Raises when the columns
    are rank deficient, since then the null direction is not unique.
    """
    u, sv, _ = np.linalg.svd(xi_y(s, x, t, y))
    if _rank(sv) < s.d:
        raise DomainError("mixed Hessian is rank deficient, normal undefined")
    N = u[:, -1]
    return -N if N[2 * s.n - 1] < 0 else N


def curvature_block_form(s: MetivierStructure, x: np.ndarray, t: float,
                         y: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Analytic curvature matrix at x'=y': [[c I, PA], [A^T P^T, 0]].

    Rows of A^T: first -t^{-1} ubar a^T, then for each i
    ubar a^T J_i - t^{-1}((ubar x^T J_i - t L_i) e_{2n}) ubar a^T
    - a_{d+1} L_i.
    """
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
    c = c_value(s, x, t, y, N)
    C = np.zeros((d, d))
    C[: two_n - 1, : two_n - 1] = c * np.eye(two_n - 1)
    PA = At[:, : two_n - 1].T
    C[: two_n - 1, two_n - 1:] = PA
    C[two_n - 1:, : two_n - 1] = PA.T
    return C


# --- fold cone -----------------------------------------------------------

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


def _fd_hessian(f, z: np.ndarray) -> np.ndarray:
    """Symmetric Hessian of f at z: central second differences at FD_STEP
    and FD_STEP/2, combined by one Richardson refinement."""
    k = len(z)
    H = np.zeros((k, k))
    for j in range(k):
        for l in range(j, k):
            d1 = _second_difference(f, z, j, l, FD_STEP)
            d2 = _second_difference(f, z, j, l, FD_STEP / 2.0)
            H[j, l] = H[l, j] = (4.0 * d2 - d1) / 3.0
    return H


def fold_point(s: MetivierStructure, x: np.ndarray, t: float, yp: np.ndarray,
               ybar: np.ndarray) -> np.ndarray:
    """Assemble y on the fold locus sigma = 0."""
    return np.concatenate([yp, [y2n_on_fold(s, x, t, ybar)], ybar])


def fold_cone_curvature(s: MetivierStructure, x: np.ndarray, t: float,
                        yp: np.ndarray, ybar: np.ndarray):
    """Curvature rank of the fold cone (y', ybar) -> Pi Xi(x, t, y) at a
    point with sigma = 0, where y_{2n} = y2n_on_fold.

    Returns (rank, singular values, normal nu).  The expected rank is
    d - 2: the cone's radial direction is flat and every other principal
    curvature is nonzero.
    """
    two_n = 2 * s.n
    # The d-1 tangent vectors: by the chain rule through y_{2n}, the ybar_i
    # tangent picks up the Xi_{y_2n} column times d(y2n_on_fold)/d ybar_i.
    cols = xi_y(s, x, t, fold_point(s, x, t, yp, ybar))[:-1]
    dy2n = [float(t * s.Lambda[i, -1] - x[:two_n] @ s.J[i][:, -1])
            for i in range(s.m)]
    tang = np.concatenate([cols[:, : two_n - 1], cols[:, two_n:]
                           + np.outer(cols[:, two_n - 1], dy2n)], axis=1)
    u, sv_t, _ = np.linalg.svd(tang)
    if _rank(sv_t) < s.d - 1:
        raise DomainError("degenerate tangent frame on the fold cone")
    nu = u[:, -1]

    def f(z):
        y = fold_point(s, x, t, z[: two_n - 1], z[two_n - 1:])
        return float(nu @ xi(s, x, t, y)[:-1])

    C = _fd_hessian(f, np.concatenate([yp, ybar]))
    sv = np.linalg.svd(C, compute_uv=False)
    return int(np.sum(sv > CURVATURE_TOL * sv[0])), sv, nu


def fold_cone_block_form(s: MetivierStructure, x: np.ndarray, t: float,
                         y: np.ndarray, nu: np.ndarray):
    """Analytic fold-cone curvature at x'=y': [[-t^{-1} g I, PM], [M^T P^T, 0]].

    gamma = ubar a^T J^{ybar} e_{2n} with nu = (ubar a, abar); the columns
    of M are -J_i ubar a.
    """
    two_n = 2 * s.n
    _, _, ybar = _split_x(s, y)
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


def fold_transversality(s: MetivierStructure, x: np.ndarray, t: float,
                        y: np.ndarray):
    """Directional derivatives of det Pi Xi_y along kernel and cokernel.

    At a fold point (sigma = 0, x' = y') the spatial block has a one
    dimensional kernel b = (b', b_{2n}, 0) and cokernel a with a_{2n} = 0;
    the determinant must change sign transversally along both, which is
    what makes the singularity a two-sided fold.  Returns (left, right)
    derivatives together with the kernel and cokernel vectors.
    """
    u, sv, vt = np.linalg.svd(xi_y(s, x, t, y)[:-1])
    if _rank(sv) != s.d - 1:
        raise DomainError("not a fold point: spatial rank is not d-1")
    b = vt[-1]          # right null vector: kernel direction in y
    a = u[:, -1]        # left null vector: cokernel direction in x

    def det_at(xx, yy):
        return float(np.linalg.det(xi_y(s, xx, t, yy)[:-1]))

    h = TRANSVERSAL_STEP
    left = (det_at(x, y + h * b) - det_at(x, y - h * b)) / (2 * h)
    right = (det_at(x + h * a, y) - det_at(x - h * a, y)) / (2 * h)
    return left, right, b, a


# --- regions -------------------------------------------------------------

def is_member(region: Region, pt: RatPoint, mode: str = "strong") -> bool:
    c = contains(region, pt, mode)
    return c != "outside" and not c.endswith("-excluded")


def parse_region_csv(data: bytes) -> Region:
    """Inverse of regions.export_region(..., "csv")."""
    flags = []
    verts, labels = [], []
    exc_s, exc_r = set(), set()
    saw_header = False
    for line in data.decode().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# flag="):
                flags.append(line[len("# flag="):])
            continue
        if not saw_header:
            saw_header = True
            continue
        lab, ip, iq, es, er = line.split(",")
        verts.append(RatPoint(Fraction(ip), Fraction(iq)))
        labels.append(lab)
        if es == "1":
            exc_s.add(lab)
        if er == "1":
            exc_r.add(lab)
    return Region(tuple(verts), tuple(labels),
                  {"strong": frozenset(exc_s), "rwt": frozenset(exc_r)},
                  tuple(flags))


# --- families ------------------------------------------------------------

def box_count_blocks(f: ScalarField) -> int:
    """heislab.families._lattice_count from f's values alone: the points of
    the 24^d midpoint lattice of f's support box at which f is nonzero.

    A block fixes all but the last three axes; its points are built from
    those axis indices, mapped onto the box and handed to f as one
    coordinate-major batch.
    """
    lo, hi = f.support_lo, f.support_hi
    d = len(lo)
    lead = max(d - 3, 0)
    count = 0
    for head in np.ndindex(*(24,) * lead):
        axes = [(np.arange(24) + 0.5) / 24 for _ in range(d)]
        axes[:lead] = [ax[i:i + 1] for ax, i in zip(axes, head)]
        u = np.empty((d,) + tuple(len(ax) for ax in axes))
        for i, ax in enumerate(axes):
            u[i] = ax.reshape((-1,) + (1,) * (d - 1 - i))
        u = u.reshape(d, -1).T
        count += int(np.count_nonzero(f((hi - lo) * u + lo)))
    return count


def ball_inside(s: MetivierStructure, delta: float):
    """The indicator of heislab.families.ball_example's set written
    directly on row_dot_full: the points x with |x|^2 <= (10 delta)^2."""
    r_ball = 10.0 * delta

    def inside(pts):
        return row_dot_full(pts, pts) <= r_ball * r_ball

    return inside


def knapp_inside(s: MetivierStructure, delta: float):
    """(indicator, time map) of heislab.families.knapp_example written
    directly on row_dot_full, in the frame of knapp_frame."""
    two_n = 2 * s.n
    C1 = c_one(s)
    u_dir, v_dir, comp = knapp_frame(s)
    hw_plane = C1 * delta

    def plane_sq(ubar):
        """|P ubar|^2 = (ubar.u)^2 + (ubar.v)^2."""
        a, b = row_dot_full(ubar, u_dir), row_dot_full(ubar, v_dir)
        return a * a + b * b

    def inside(pts):
        ubar = pts[:, :two_n]
        # |P_perp ubar|^2 from the complement coordinates ubar.comp[:, k]
        c, e = (row_dot_full(ubar, w) for w in comp.T)
        return ((c * c + e * e <= C1 * C1 * delta)
                & (plane_sq(ubar) <= hw_plane * hw_plane)
                & (np.abs(pts[:, two_n]) <= C1 * delta))

    return inside, lambda pts: np.sqrt(plane_sq(pts[:, :two_n]))


def scaling_inside(s: MetivierStructure, delta: float, t: float = 1.5):
    """The indicator of heislab.families.scaling_example's set written
    directly on row_dot_full, with the shell's square root:
    ||ubar y| - t| <= C0 delta and |ybar - t Lambda ubar y| <= C0 delta."""
    two_n = 2 * s.n
    shell = c_zero(s) * delta

    def inside(pts):
        ubar = pts[:, :two_n]
        r = np.sqrt(row_dot_full(ubar, ubar))
        # m = 1: one center coordinate
        dev = pts[:, two_n] - t * row_dot_full(ubar, s.Lambda[0])
        return (np.abs(r - t) <= shell) & (np.abs(dev) <= shell)

    return inside


def moment_inside(delta: float):
    """The indicator of heislab.families.moment_example's set written
    directly on the coordinates: |y1| <= (2 delta)^2, |y2| <= 2 delta and
    |y3 + y2| <= (2 delta)^3."""

    def inside(pts):
        return ((np.abs(pts[:, 0]) <= (2 * delta) ** 2)
                & (np.abs(pts[:, 1]) <= 2 * delta)
                & (np.abs(pts[:, 2] + pts[:, 1]) <= (2 * delta) ** 3))

    return inside


def row_dot_full(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of x with the matching row of y, or with y:
    the products x[:, k] * y[..., k] added one coordinate at a time, in
    the order of heislab.families.Condition.value, zero coefficients
    included."""
    out = x[:, 0] * y[..., 0]
    for k in range(1, x.shape[1]):
        out += x[:, k] * y[..., k]
    return out


# --- spheres -------------------------------------------------------------

def node_order_average(s: MetivierStructure, f: ScalarField, t, pts,
                       rule: SphereRule) -> np.ndarray:
    """heislab.spheres.spherical_average_batch with no node culled.

    Every node's image is built with the package's float operations: the
    horizontal coordinates ubar_k - t w_k, the center terms
    sum_k C_ik w_k added from zero in coordinate order per factor, and
    the center (bar - terms_a) - terms_b.  f is evaluated on all of them,
    and np.bincount adds each point's values times weights in node order
    (l, i, j).  f vanishes outside its support box, so the zeros that the
    package never computes change no bit of the sums.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
    two_n = 2 * s.n
    ubar = pts[:, :two_n]
    C = (t * t)[:, None, None] * s.Lambda + t[:, None, None] * np.sum(
        ubar[:, None, :, None] * s.J[None, :, :, :], axis=2)
    (_, lat, a_count), b_count = rule.a.shape, rule.b.shape[2]
    shape = (lat, a_count, b_count)
    nodes = [np.broadcast_to(w[:, :, None], shape) for w in rule.a] + [
        np.broadcast_to(w[:, None, :], shape) for w in rule.b]
    vals = []
    for p, (x, tp) in enumerate(zip(pts, t)):
        images = np.empty((s.d,) + shape)
        terms = np.zeros((2, s.m) + shape)
        for k, w in enumerate(nodes):
            images[k] = x[k] - tp * w
            terms[int(k >= 2)] += C[p, :, k, None, None, None] * w
        images[two_n:] = (x[two_n:, None, None, None] - terms[0]) - terms[1]
        vals.append(f(images.reshape(s.d, -1).T) * rule.weights)
    point = np.repeat(np.arange(len(pts)), len(rule.weights))
    return np.bincount(point, weights=np.concatenate(vals),
                       minlength=len(pts))
