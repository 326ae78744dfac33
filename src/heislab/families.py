"""Counterexample families for the averaging and maximal operators.

Each family packages the indicator of a set with the set's measure, a thin
test region with its own measure-correct lattice, a time map x -> t(x)
that picks one average per test point, and a predicted power of delta for
the ratio |Mf|_q / |f|_p, whose denominator is measure^(1/p).
Running a family down a delta ladder and fitting the log-log slope
reproduces the necessary-condition exponents.

Test regions are parametrized over the unit cube with explicit Jacobians,
so thin slabs are integrated in coordinates aligned with their thin
directions.  All per-axis lattice counts are fixed along the ladder while
the coordinate ranges scale linearly with delta; relative quadrature bias
is then delta-independent and cancels in the fitted slope.  The scaling
and moment sets have closed-form measures; the ball and knapp sets are
counted on a 24^d lattice of a support box that scales as they do, in
blocks that share their trailing coordinates, built once.
"""

import math
import os
import pickle
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np

from . import spheres
from .groups import DomainError, MetivierStructure
from .spheres import ScalarField, SphereRule, sphere_rule

FAMILIES = ("ball", "scaling", "knapp", "moment")


# Lattice points per block of _box_measure; a block needs 1-2 MiB at any d.
BLOCK_POINTS = 2 ** 14


@dataclass(frozen=True)
class ParamRegion:
    """Region given by a unit-cube parametrization with Jacobian weight.

    param sends a (count, k) batch of cube points u to the (count, d) group
    points and the (count,) volume factors, so that integrals over the
    region equal integrals of F(points) * jacobian over the cube.  counts
    gives the midpoint lattice size along each of the k cube axes.

    Batches are coordinate-major, as for ScalarField: u arrives as the
    transpose of a (k, count) C array, and param should return its points
    the same way (stack the coordinates on axis 0, then transpose), so the
    integrand streams whole coordinates.  A row-major param gives the same
    values, only more slowly.
    """

    counts: Tuple[int, ...]
    param: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

    def points_and_weights(self):
        """Lattice points, coordinate-major and in row-major node order, and
        weights: the Jacobian over the lattice size."""
        axes = [(np.arange(c) + 0.5) / c for c in self.counts]
        pts, jac = self.param(_grid(axes).T)
        return pts, np.asarray(jac, dtype=float) / math.prod(self.counts)


def _grid(axes) -> np.ndarray:
    """(k, N) C array: row i is axes[i] spread over the lattice, row-major."""
    return np.stack(np.broadcast_arrays(*np.ix_(*axes))).reshape(len(axes), -1)


@dataclass(frozen=True)
class ExampleInstance:
    """One counterexample family at a fixed scale."""

    family: str
    delta: float
    structure: MetivierStructure
    field: ScalarField      # the indicator of a set
    test_region: ParamRegion
    measure: float          # the set's volume, so |field|_p = measure^(1/p)
    time: Callable[[np.ndarray], np.ndarray]  # (P, d) points -> (P,) times
    rule: SphereRule

    def __post_init__(self):
        if not 0.0 < self.measure < math.inf:    # NaN fails too
            raise DomainError(f"{self.family} delta={self.delta!r}: field "
                              f"measure {self.measure!r} is not positive "
                              "and finite")


def operator_ratio(s: MetivierStructure, instance: ExampleInstance,
                   p: float, q: float) -> float:
    """Quadrature estimate of a lower bound of |Mf|_q / |f|_p for an instance.

    The numerator is (sum w |A_t(x) f(x)|^q)^(1/q) over the test region's
    lattice, or the max for q = inf, with the time map clamped to [1, 2]:
    |A_t(x) f(x)| is a lower bound of sup_{1<=t<=2} |A_t f| at x, but the
    average and the sum are quadratures, so the ratio estimates that bound
    and is not certified.  The denominator is measure^(1/p).
    """
    ip, iq = float(_inv(p)), float(_inv(q))     # 1/p, 1/q
    pts, w = instance.test_region.points_and_weights()
    t = np.clip(instance.time(pts), 1.0, 2.0)
    # called through the module, so a wrapper installed on heislab.spheres
    # (as bench/tracer.py does) sees every average
    vals = np.abs(spheres.spherical_average_batch(s, instance.field, t, pts,
                                                  instance.rule))
    numer = (float(vals.max()) if np.isinf(q)
             else float(np.sum(vals ** q * w)) ** iq)
    if numer == 0.0:
        raise DomainError(f"{instance.family} delta={instance.delta!r}: no "
                          "sphere node hits the field's support")
    return numer / instance.measure ** ip


def _box_measure(f: ScalarField) -> float:
    """Integral of f on the 24^d midpoint lattice of its support box.

    The families build their sphere rule first, so a refused rule fails
    before this sum.  A block fixes the fewest leading axes that leave at
    most BLOCK_POINTS points; all blocks share one array of the trailing
    coordinates.  math.fsum adds the block sums with one rounding.
    """
    lo, hi = f.support_lo, f.support_hi
    d = len(lo)
    axes = (hi - lo)[:, None] * ((np.arange(24) + 0.5) / 24) + lo[:, None]
    w = float(np.prod(hi - lo)) / 24 ** d
    lead = next(k for k in range(d + 1) if 24 ** (d - k) <= BLOCK_POINTS)
    pts = _grid([*axes[:lead, :1], *axes[lead:]])
    sums = []
    for head in np.ndindex(*(24,) * lead):
        for k, i in enumerate(head):
            pts[k] = axes[k, i]
        sums.append(np.sum(f(pts.T) * w))
    return math.fsum(sums)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of x with the matching row of y, or with y.

    The sum runs one coordinate at a time, so unlike np.einsum and matmul
    its order, and with it every bit of the result, depends neither on the
    memory order of x nor on where a batch is split.  Every family field
    and time map takes its norms and dot products from here.

    A 1-D y skips its coefficients equal to zero, 0.0 and -0.0 alike, as
    knapp's axis-aligned frame and a zero Lambda have them.  For finite x
    each skipped term is a zero, and adding a zero to a nonzero partial
    sum returns that sum, so only the sign of a zero result can differ
    from the full sum (all zeros give 0.0).  Every caller squares the
    result or takes its absolute value, which hides that sign.
    """
    terms = np.flatnonzero(y) if y.ndim == 1 else range(x.shape[1])
    if not len(terms):
        return np.zeros(len(x))
    out = x[:, terms[0]] * y[..., terms[0]]
    for k in terms[1:]:
        out += x[:, k] * y[..., k]
    return out


# --- family constants ----------------------------------------------------

def _specnorm(M):
    return float(np.linalg.norm(M, 2))


def c_ring(s: MetivierStructure) -> float:
    """10 (1 + |Lambda| + max_i |J_i|), the ball-family window constant."""
    return 10.0 * (1.0 + _specnorm(s.Lambda) + max(_specnorm(J) for J in s.J))


def c_zero(s: MetivierStructure) -> float:
    """10 sum_i |J_i|, the scaling-family window constant."""
    return 10.0 * sum(_specnorm(J) for J in s.J)


def c_one(s: MetivierStructure) -> float:
    """10 (1 + 2 |Lambda|), the knapp-family window constant.

    This is the smallest constant for which the slab catches every cap
    image: the in-plane displacement is at most 10 delta, the center
    displacement at most (5 + 20 |Lambda|) delta.  Any larger constant
    also works asymptotically, but it postpones the onset of the
    delta^(1/2) ratio law to delta well below 1/(2 C1), which matters on
    short ladders.
    """
    return 10.0 * (1.0 + 2.0 * _specnorm(s.Lambda))


def _check_delta(delta: float):
    if not 0.0 < delta <= 0.25:
        raise DomainError(f"delta={delta!r} must lie in (0, 1/4]")


def _check_structure(s: MetivierStructure):
    # sphere rules and direction charts exist for S^1 and S^3 only, and
    # the sheared regions take one center coordinate
    if s.n > 2 or s.m != 1:
        raise DomainError("this family is implemented for n <= 2, m = 1, "
                          f"not n={s.n}, m={s.m}")


# --- sphere direction parametrizations ----------------------------------

def _sphere_dir(n: int, u: np.ndarray):
    """Directions on S^{2n-1}, n = 1 or 2, from 2n-1 cube coordinates, and
    the surface measure per unit cube volume."""
    if n == 1:
        ang = 2.0 * np.pi * u[:, 0]
        return np.stack([np.cos(ang), np.sin(ang)]).T, 2.0 * np.pi
    # (v, a1, a2) in the cube -> S^3; surface measure 1/2 dv da1 da2.
    v, a1, a2 = u[:, 0], 2 * np.pi * u[:, 1], 2 * np.pi * u[:, 2]
    r0 = np.sqrt(1.0 - v)
    r1 = np.sqrt(v)
    dirs = np.stack([r0 * np.cos(a1), r0 * np.sin(a1),
                     r1 * np.cos(a2), r1 * np.sin(a2)]).T
    return dirs, 0.5 * (2 * np.pi) ** 2


def _cap_resolution(n: int, delta: float) -> float:
    """Per-factor node count keeping the nodes-per-cap count stable in delta.

    The count stays a float, inf for a subnormal delta; sphere_rule
    refuses it or converts it.
    """
    if n == 1:
        return max(256, np.ceil(64.0 / delta))
    return max(16, np.round(2.0 / delta))


# --- ball family ---------------------------------------------------------

def ball_example(s: MetivierStructure, delta: float) -> ExampleInstance:
    """Indicator of the 10 delta ball against the shell-adapted slab.

    Test region: 9/8 <= |ubar x| <= 15/8 with the center coordinate within
    delta/C of the tilt sheet, time map t(x) = |ubar x|.
    """
    _check_delta(delta)
    _check_structure(s)
    n, m, d = s.n, s.m, s.d
    two_n = 2 * n
    C = c_ring(s)
    r_ball = 10.0 * delta

    def inside(pts):
        return _row_dot(pts, pts) <= r_ball * r_ball

    f = ScalarField(inside, -r_ball * np.ones(d), r_ball * np.ones(d))

    dd = two_n - 1
    half_b = delta / C

    def param(u):
        r = 9.0 / 8.0 + (6.0 / 8.0) * u[:, 0]
        dirs, ang = _sphere_dir(n, u[:, 1:1 + dd])
        ubar = r[:, None] * dirs
        b = half_b * (2.0 * u[:, 1 + dd:1 + dd + m] - 1.0)
        bar = b + r[:, None] * (ubar @ s.Lambda.T)
        jac = (6.0 / 8.0) * r ** (two_n - 1) * ang * (2.0 * half_b) ** m
        return np.concatenate([ubar.T, bar.T]).T, jac

    counts = (8, 16, 8) if n == 1 else (3, 4, 6, 6, 4)
    rule = sphere_rule(n, _cap_resolution(n, delta))
    return ExampleInstance(
        "ball", delta, s, f, ParamRegion(counts, param), _box_measure(f),
        lambda pts: np.sqrt(_row_dot(pts[:, :two_n], pts[:, :two_n])), rule)


# --- scaling family ------------------------------------------------------

def scaling_example(s: MetivierStructure, delta: float,
                    t: float = 1.5) -> ExampleInstance:
    """Fixed-time shell indicator tested near the origin.

    Field: indicator of ||ubar y| - t| <= C0 delta, |ybar - t Lambda
    ubar y| <= C0 delta.  Test region: |ubar x| <= delta with the center
    within delta of the tilt sheet; the average there is order one.
    """
    _check_delta(delta)
    _check_structure(s)
    if not 1.0 <= t <= 2.0:
        raise DomainError("t must lie in [1, 2]")
    n, m = s.n, s.m
    two_n = 2 * n
    C0 = c_zero(s)
    shell = C0 * delta

    def inside(pts):
        ubar = pts[:, :two_n]
        r = np.sqrt(_row_dot(ubar, ubar))
        # m = 1: one center coordinate
        dev = pts[:, two_n] - t * _row_dot(ubar, s.Lambda[0])
        return (np.abs(r - t) <= shell) & (np.abs(dev) <= shell)

    r_hi = t + shell
    bar_hw = shell + t * _specnorm(s.Lambda) * r_hi
    lo = np.concatenate([-r_hi * np.ones(two_n), -bar_hw * np.ones(m)])
    hi = -lo
    f = ScalarField(inside, lo, hi)

    dd = two_n - 1

    # the center shear keeps volume: a 2n-dimensional annulus (a ball when
    # shell > t) times a center interval of length 2 shell
    r_lo = max(t - shell, 0.0)
    measure = (math.pi ** n / math.factorial(n)
               * (r_hi ** two_n - r_lo ** two_n) * (2.0 * shell) ** m)

    def r_param(u):
        rho = delta * u[:, 0] ** (1.0 / two_n)
        dirs, ang = _sphere_dir(n, u[:, 1:1 + dd])
        ubar = rho[:, None] * dirs
        b = delta * (2.0 * u[:, 1 + dd:1 + dd + m] - 1.0)
        bar = b + t * (ubar @ s.Lambda.T)
        # equidistributed radial substitution: rho^{2n-1} drho = delta^{2n}/(2n) du
        jac = (delta ** two_n / two_n * ang * np.ones(len(u))
               * (2.0 * delta) ** m)
        return np.concatenate([ubar.T, bar.T]).T, jac

    counts = (8, 16, 8) if n == 1 else (4, 4, 8, 8, 4)
    return ExampleInstance(
        "scaling", delta, s, f, ParamRegion(counts, r_param), measure,
        lambda pts: np.full(len(pts), t),
        sphere_rule(n, 256 if n == 1 else 16))


# --- knapp family --------------------------------------------------------

def knapp_frame(s: MetivierStructure):
    """(u, v, basis of the complement) for the anisotropic slab geometry.

    u is the unit tilt direction (e_1 when Lambda = 0), v = Ju/|Ju|; the
    plane span{u, v} and its orthogonal complement are both J-invariant
    when J^2 = -I.
    """
    if s.m != 1:
        raise DomainError("this family needs a one-dimensional center")
    two_n = 2 * s.n
    J = s.J[0]
    if _specnorm(J @ J + np.eye(two_n)) > 1e-10:
        raise DomainError("this family needs the normalization J^2 = -I")
    lam = s.Lambda[0]
    if np.linalg.norm(lam) > 0:
        u = lam / np.linalg.norm(lam)
    else:
        u = np.zeros(two_n)
        u[0] = 1.0
    v = J @ u
    v = v / np.linalg.norm(v)
    W = np.stack([u, v], axis=1)
    # complement basis: QR of [u, v, I] keeps span{u, v} in its first two
    # columns, so the rest span the orthogonal complement
    q, _ = np.linalg.qr(np.concatenate([W, np.eye(two_n)], axis=1))
    comp = q[:, 2:two_n]
    return u, v, comp


def knapp_example(s: MetivierStructure, delta: float) -> ExampleInstance:
    """Anisotropic slab aligned with a flat direction of the incidence set.

    Field: indicator of |P_perp ubar y| <= C1 sqrt(delta), |P ubar y| <=
    C1 delta, |y_d| <= C1 delta, where P projects onto span{u, v}.  Test
    region: sqrt(delta)-tube over an arc window, time map t(x) =
    |P ubar x|.  Field and time map read ubar in the coordinates of
    knapp_frame, one _row_dot per coordinate.
    """
    _check_delta(delta)
    n = s.n
    two_n = 2 * n
    if n != 2:
        raise DomainError("the slab region is implemented for n = 2, "
                          f"not n={n}")
    C1 = c_one(s)
    u_dir, v_dir, comp = knapp_frame(s)
    lam = s.Lambda[0]
    sq = math.sqrt(delta)

    hw_plane = C1 * delta
    hw_perp = C1 * sq

    def plane_sq(ubar):
        """|P ubar|^2 = (ubar.u)^2 + (ubar.v)^2."""
        a, b = _row_dot(ubar, u_dir), _row_dot(ubar, v_dir)
        return a * a + b * b

    def inside(pts):
        ubar = pts[:, :two_n]
        # |P_perp ubar|^2 from the complement coordinates ubar.comp[:, k]
        c, e = (_row_dot(ubar, w) for w in comp.T)
        return ((c * c + e * e <= C1 * C1 * delta)
                & (plane_sq(ubar) <= hw_plane * hw_plane)
                & (np.abs(pts[:, two_n]) <= C1 * delta))

    plane_part = np.sqrt(u_dir ** 2 + v_dir ** 2)
    perp_part = np.sqrt(np.maximum(0.0, 1.0 - plane_part ** 2))
    hw = hw_plane * plane_part + hw_perp * perp_part
    lo = np.concatenate([-hw, [-C1 * delta]])
    f = ScalarField(inside, lo, -lo)

    # Test region coordinates: polar radius/angle in the plane, polar
    # coordinates in the sqrt(delta)-thin complement, sheared center.
    phi_lo, phi_hi = 0.73, 0.84

    def param(u):
        rho = 9.0 / 8.0 + (6.0 / 8.0) * u[:, 0]
        phi = phi_lo + (phi_hi - phi_lo) * u[:, 1]
        rperp = sq * u[:, 2] ** 0.5
        psi = 2.0 * np.pi * u[:, 3]
        # (2n, count) rows: coordinate k of the frame vectors times the
        # per-point factors
        ubar = (u_dir[:, None] * (rho * np.cos(phi))
                + v_dir[:, None] * (rho * np.sin(phi)))
        ubar = ubar + rperp * (comp[:, :1] * np.cos(psi)
                               + comp[:, 1:2] * np.sin(psi))
        bar = delta * (2.0 * u[:, 4] - 1.0) + rho * (lam @ ubar)
        # plane polar: rho drho dphi; complement polar via equidistributed
        # radius: rperp drperp dpsi = delta/2 du dpsi
        jac = ((6.0 / 8.0) * rho * (phi_hi - phi_lo)
               * (delta / 2.0) * (2.0 * np.pi)
               * (2.0 * delta) * np.ones(len(u)))
        return np.concatenate([ubar, bar[None]]).T, jac

    # caps are delta-thin in the Hopf latitude and sqrt(delta)-wide in the
    # angles; match the rule to that anisotropy
    c_lat = max(24, np.ceil(3.0 / delta))
    c_ang = max(24, np.ceil(10.0 / sq))
    rule = sphere_rule(n, (c_lat, c_ang, c_ang), latitude="uniform")
    return ExampleInstance(
        "knapp", delta, s, f, ParamRegion((3, 4, 4, 5, 4), param),
        _box_measure(f), lambda pts: np.sqrt(plane_sq(pts[:, :two_n])), rule)


# --- stein divergence diagnostic -----------------------------------------

STEIN_PROBE = (1.5, 0.0, 0.0)
# Three levels give two increments, the fewest a slope can be fitted to.
STEIN_MIN_LEVELS = 3
# Gauss-Legendre nodes per dyadic panel of the probe curve
STEIN_PANEL_NODES = 32


def stein_probe_curve(alpha: float, j_hi: int, j_lo: int = 2) -> np.ndarray:
    """Truncated spherical mean at a fixed probe versus the cutoff level.

    For the probe x = (3/2, 0, 0) with t = |ubar x| on the standard
    3-dimensional group, the horizontal radius along the circle is
    r(s) = 2t sin(s/2).  The mean of the density truncated at 2^{-j} is
    accumulated dyadic panel by dyadic panel with Gauss-Legendre nodes,
    so the returned sequence value[j] is increasing in j by construction.

    Returns an array of (j, value) rows for j = max(j_lo, 2) .. j_hi, at
    least STEIN_MIN_LEVELS of them.  A cutoff 2^{-j} below about 2^{-1024}
    overflows the density, so a j_hi whose curve is not finite is refused.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if j_hi - max(j_lo, 2) + 1 < STEIN_MIN_LEVELS:
        raise DomainError(f"j_lo={j_lo}, j_hi={j_hi}: the probe curve needs "
                          f"at least {STEIN_MIN_LEVELS} levels")
    t = STEIN_PROBE[0]
    gl_x, gl_w = np.polynomial.legendre.leggauss(STEIN_PANEL_NODES)

    def s_of_r(r):
        return 2.0 * math.asin(r / (2.0 * t))

    def panel(r_lo, r_hi):
        a, b = s_of_r(r_lo), s_of_r(r_hi)
        sm = 0.5 * (b - a) * gl_x + 0.5 * (a + b)
        w = 0.5 * (b - a) * gl_w
        r = 2.0 * t * np.sin(sm / 2.0)
        # a subnormal or zero r gives inf or NaN, which the loop refuses
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = r ** (-1.0) * np.abs(np.log(r)) ** (-alpha)
        return float(np.sum(w * vals)) / np.pi

    rows = []
    total = 0.0
    for k in range(2, j_hi + 1):
        total += panel(2.0 ** (-k), 2.0 ** (-k + 1))
        if not math.isfinite(total):
            raise DomainError(f"j_hi={j_hi}: the probe curve is not finite "
                              f"from j={k} on; use a smaller j_hi")
        if k >= j_lo:
            rows.append((k, total))
    return np.array(rows)


def stein_growth_exponent(curve: np.ndarray) -> float:
    """Growth exponent of the probe curve in log(1/cutoff).

    The curve behaves like c (j log 2)^{1-alpha} + const; a direct
    log-log fit of the values is biased by the additive constant, so the
    exponent is recovered from the increments, which scale like
    j^{-alpha}: fitted slope of log increment vs log j, plus one.
    """
    if len(curve) < STEIN_MIN_LEVELS:
        raise DomainError(f"the growth fit needs at least {STEIN_MIN_LEVELS} "
                          f"levels, got {len(curve)}")
    if not np.isfinite(curve).all():
        raise DomainError("the probe curve must be finite")
    j = curve[:, 0]
    vals = curve[:, 1]
    inc = np.diff(vals)
    jj = j[1:]
    if np.any(inc <= 0):
        raise DomainError("curve must be strictly increasing")
    slope = np.polyfit(np.log(jj), np.log(inc), 1)[0]
    return float(1.0 + slope)


# --- moment curve family -------------------------------------------------

def moment_structure() -> MetivierStructure:
    """3-dimensional group normalized so that x^T J y = x_2 y_1 - x_1 y_2."""
    J = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    return MetivierStructure(n=1, m=1, J=J, Lambda=np.zeros((1, 2)))


def moment_example(delta: float) -> ExampleInstance:
    """Sheared box matched to the circle average on the 3-dimensional group.

    Field: indicator of |y1| <= (2 delta)^2, |y2| <= 2 delta,
    |y3 + y2| <= (2 delta)^3.  Test region: |x1 - 1| <= delta^2,
    |x2| <= delta, |x3| <= delta^3, fixed time t = 1.
    """
    _check_delta(delta)
    s = moment_structure()

    def inside(pts):
        return ((np.abs(pts[:, 0]) <= (2 * delta) ** 2)
                & (np.abs(pts[:, 1]) <= 2 * delta)
                & (np.abs(pts[:, 2] + pts[:, 1]) <= (2 * delta) ** 3))

    hw1, hw2, hw3 = (2 * delta) ** 2, 2 * delta, (2 * delta) ** 3
    lo = np.array([-hw1, -hw2, -(hw3 + hw2)])
    f = ScalarField(inside, lo, -lo)

    def v_param(u):
        x1 = 1.0 + delta ** 2 * (2 * u[:, 0] - 1)
        x2 = delta * (2 * u[:, 1] - 1)
        x3 = delta ** 3 * (2 * u[:, 2] - 1)
        return (np.stack([x1, x2, x3]).T,
                8.0 * delta ** 6 * np.ones(len(u)))

    counts = (6, 6, 6)
    return ExampleInstance(
        "moment", delta, s, f, ParamRegion(counts, v_param),
        8.0 * hw1 * hw2 * hw3, lambda pts: np.ones(len(pts)),
        sphere_rule(1, _cap_resolution(1, delta)))


# --- exponents and fitting ----------------------------------------------

def _inv(x) -> Fraction:
    """1/x for a Lebesgue exponent x >= 1 or inf."""
    if x == math.inf:
        return Fraction(0)
    if not x >= 1:
        raise DomainError(f"exponent {x!r} must be >= 1 or inf")
    return Fraction(1) / Fraction(x)


def predicted_exponent(family: str, n: int, m: int, p, q) -> Fraction:
    """Exact delta-exponent of the lower bound on the ratio."""
    ip, iq = _inv(p), _inv(q)
    if family == "ball":
        return (2 * n - 1) + m * iq - (2 * n + m) * ip
    if family == "scaling":
        return (2 * n + m) * iq - (m + 1) * ip
    if family == "knapp":
        if m != 1:
            raise DomainError("knapp exponent defined for m = 1 only")
        return n * iq + n - (n + 2) * ip
    if family == "moment":
        if (n, m) != (1, 1):
            raise DomainError("moment exponent defined for n = m = 1 only")
        return 1 + 6 * iq - 6 * ip
    raise DomainError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    max_residual: float     # largest |log ratio - fitted line|


def check_ladder(deltas: Sequence[float]):
    """Reject a delta ladder that a slope cannot be fitted to, or whose
    rungs the families refuse.

    A fit needs at least 3 strictly decreasing deltas: two points always
    lie on a line.  Every delta must lie in (0, 1/4].
    """
    if len(deltas) < 3:
        raise DomainError("need at least 3 ladder points")
    if np.any(np.diff(np.asarray(deltas, dtype=float)) >= 0):
        raise DomainError("deltas must be strictly decreasing")
    for delta in deltas:
        _check_delta(delta)


def fit_exponent(points: Sequence[Tuple[float, float]]) -> ExponentFit:
    """Least squares fit of log ratio against log delta."""
    deltas = np.array([p[0] for p in points], dtype=float)
    ratios = np.array([p[1] for p in points], dtype=float)
    check_ladder(deltas)
    if np.any(ratios <= 0):
        raise DomainError("ratios must be positive")
    lx = np.log(deltas)
    ly = np.log(ratios)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(float(slope), float(intercept), float(r2),
                       float(np.max(np.abs(resid))))


# A fitted ladder passes when its slope is within the tolerance of the
# predicted exponent and no log ratio lies further than this from the
# fitted line.  Unlike an r^2 floor, the bound also admits a flat ladder,
# whose r^2 is rounding noise.  The criterion-7 ladders stay below 0.02.
MAX_LOG_RESIDUAL = 0.05


def fit_passes(fit: ExponentFit, predicted, tol: float) -> bool:
    """The verdict rule: |slope - predicted| <= tol and every residual of
    log(ratio) about the fitted line is at most MAX_LOG_RESIDUAL."""
    return (abs(fit.slope - float(predicted)) <= tol
            and fit.max_residual <= MAX_LOG_RESIDUAL)


def _cpus() -> int:
    """How many processes a ladder may run at once: the CPUs this process
    may use, or 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rate(make_instance, deltas, p, q, share):
    """[(index, ok, ratio or exception)] for the rungs in share, in order,
    up to the first rung that raises."""
    out = []
    for i in share:
        try:
            inst = make_instance(deltas[i])
            out.append((i, True, operator_ratio(inst.structure, inst,
                                                float(p), float(q))))
        except Exception as exc:
            out.append((i, False, exc))
            break
    return out


def _fork_rate(make_instance, deltas, p, q, share):
    """(pid, read end of a pipe) of a forked child that sends
    _rate(..., share) through the pipe, pickled, and exits."""
    r, w = os.pipe()
    # Forking is safe here: the child runs only heislab and numpy (OpenBLAS
    # shuts its thread pool down in an atfork handler) and leaves through
    # os._exit, so no stdio buffer or atexit hook of the parent runs twice.
    # Python 3.12 and later warn with a DeprecationWarning when a process
    # with threads forks, as one with OpenBLAS's pool does; the warning is
    # left alone.  Only Python 3.11 has run this fork, so its behaviour
    # under 3.12 is unverified.
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                pickle.dump(_rate(make_instance, deltas, p, q, share), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def run_ladder(make_instance: Callable[[float], ExampleInstance],
               deltas: Sequence[float], p, q):
    """(delta, ratio) rows down a delta ladder, largest delta first.

    The rungs are independent, so W workers share them, W being the CPUs
    this process may use but at most one per rung: worker i rates rungs
    i, i + W, ... and stops at its first failing rung.  Worker 0 is this
    process, the others are forked children.  Each ratio is computed by
    the same code from the same inputs wherever it runs, so the rows do
    not depend on W.  The first failing rung in ladder order raises its
    exception, as a serial loop would; a child that ends without a result
    raises ChildProcessError in place of its first rung.  Spans, counts
    and memory of the rungs a child rates stay in that child.
    """
    workers = max(1, min(_cpus(), len(deltas)))
    children, ends = [], []
    try:
        for first in range(1, workers):
            children.append(_fork_rate(make_instance, deltas, p, q,
                                       range(first, len(deltas), workers)))
        rated = _rate(make_instance, deltas, p, q,
                      range(0, len(deltas), workers))
    finally:
        # read every pipe to its end and reap its child, whatever happened
        for pid, r in children:
            with os.fdopen(r, "rb") as fh:
                data = fh.read()
            ends.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]),
                         data))
    for first, (code, data) in enumerate(ends, 1):
        rated += pickle.loads(data) if code == 0 else [(
            first, False, ChildProcessError(
                f"delta={deltas[first]!r}: the ladder worker ended with "
                f"exit code {code} and no result"))]
    results = {i: (ok, value) for i, ok, value in rated}
    rows = []
    for i, delta in enumerate(deltas):
        # a rung with no result comes after a failure in its worker's share
        ok, value = results[i]
        if not ok:
            raise value
        rows.append((float(delta), value))
    return rows
