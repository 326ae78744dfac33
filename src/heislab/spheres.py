"""Sphere quadrature and batched spherical averages.

The averaging operator acts on scalar fields over the group: the value at x
is the mean of f over the t-dilated tilted sphere through x.  Quadrature
rules carry normalized weights so the constant field averages to itself.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import DimensionMismatch, DomainError, MetivierStructure

# Most nodes a sphere rule may have: 256^3, the rule of the ball family on
# H^2 at delta = 2^-7.  Its weights alone take 128 MiB.
MAX_RULE_NODES = 256 ** 3


def check_rule_nodes(nodes: float):
    """Refuse a rule of more than MAX_RULE_NODES nodes.

    nodes may be a float count not yet converted to int, such as the inf
    that a node count per delta gives for a subnormal delta.
    """
    if nodes > MAX_RULE_NODES:
        raise DomainError(f"a sphere rule of more than {MAX_RULE_NODES} "
                          "nodes is refused; use a coarser delta")


@dataclass(frozen=True)
class SphereRule:
    """Product quadrature rule on S^{2n-1}, n = 1 or 2.

    Node (l, i, j) has coordinates 0, 1 equal to a[:, l, i] and
    coordinates 2 .. 2n-1 equal to b[:, l, j]: a has shape (2, L, A) and b
    shape (2n - 2, L, B) over L latitudes, which is (0, 1, 1) on the
    circle.  weights holds one positive weight per node in node order
    (l, i, j), summing to 1.
    """

    a: np.ndarray        # (2, L, A)
    b: np.ndarray        # (2n - 2, L, B)
    weights: np.ndarray  # (L * A * B,), positive, sum 1

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if a.ndim != 3 or b.ndim != 3 or len(a) != 2 or len(b) not in (0, 2):
            raise DimensionMismatch("rules exist on S^1 and S^3 only: a needs "
                                    "2 coordinate rows and b 0 or 2")
        if a.shape[1] != b.shape[1]:
            raise DimensionMismatch(f"factors have {a.shape[1]} and "
                                    f"{b.shape[1]} latitudes")
        if weights.shape != (a.shape[1] * a.shape[2] * b.shape[2],):
            raise DimensionMismatch("one weight per node required")
        # every comparison with NaN is false, so the checks below pass it
        if not (np.isfinite(a).all() and np.isfinite(b).all()
                and np.isfinite(weights).all()):
            raise DomainError("nodes and weights must be finite")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        # The squared norm of node (l, i, j) is sa[l, i] + sb[l, j].  Float
        # addition and sqrt are monotone, so per latitude the extreme norms
        # come from the extreme factor norms: no (L, A, B) array is needed.
        sa, sb = np.sum(a * a, axis=0), np.sum(b * b, axis=0)
        extremes = np.concatenate([sa.max(axis=1) + sb.max(axis=1),
                                   sa.min(axis=1) + sb.min(axis=1)])
        if np.max(np.abs(np.sqrt(extremes) - 1.0)) > 1e-12:
            raise DomainError("nodes must lie on the unit sphere")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "weights", weights)


def sphere_rule(n: int, resolution, latitude: str = "gauss") -> SphereRule:
    """Quadrature rule on S^{2n-1}, normalized to total mass 1.

    n=1: uniform angular grid on the circle (exact on trigonometric
    polynomials of degree < resolution).  n=2: Hopf-coordinate product rule
    on S^3; resolution is either one count per factor or a
    (latitude, angle, angle) triple for anisotropic integrands.  The
    latitude parameter carries a uniform measure, so latitude="gauss"
    (best for smooth integrands) and latitude="uniform" (even spacing,
    best for thin indicator caps) are both consistent.  Spheres of higher
    dimension have no rule, and a rule of more than MAX_RULE_NODES nodes is
    refused before anything is allocated.
    """
    if n not in (1, 2):
        raise DomainError(f"sphere rules exist for n = 1, 2, not n={n}")
    if n == 2 and not np.isscalar(resolution):
        cu, ca, cb = (int(c) for c in resolution)
    else:
        cu = ca = cb = int(resolution)
    if min(cu, ca, cb) < 4:
        raise DomainError("resolution must be at least 4")
    check_rule_nodes(cu if n == 1 else cu * ca * cb)
    if n == 1:
        ang = 2 * np.pi * np.arange(cu) / cu
        return SphereRule(np.stack([np.cos(ang), np.sin(ang)])[:, None],
                          np.empty((0, 1, 1)), np.full(cu, 1.0 / cu))
    # Write omega = (sqrt(1-u) cos a, sqrt(1-u) sin a, sqrt(u) cos b,
    # sqrt(u) sin b); the normalized measure is du da db / (2 pi)^2
    # with u in [0,1].
    if latitude == "gauss":
        gl_x, gl_w = np.polynomial.legendre.leggauss(cu)
        u = 0.5 * (gl_x + 1.0)
        wu = 0.5 * gl_w
    elif latitude == "uniform":
        u = (np.arange(cu) + 0.5) / cu
        wu = np.full(cu, 1.0 / cu)
    else:
        raise DomainError(f"unknown latitude rule {latitude!r}")
    # half-step offsets keep grid lines off the coordinate circles
    ang_a = 2 * np.pi * (np.arange(ca) + 0.5) / ca
    ang_b = 2 * np.pi * (np.arange(cb) + 0.5) / cb
    r0 = np.sqrt(1.0 - u)
    r1 = np.sqrt(u)
    a = np.stack([r0[:, None] * np.cos(ang_a), r0[:, None] * np.sin(ang_a)])
    b = np.stack([r1[:, None] * np.cos(ang_b), r1[:, None] * np.sin(ang_b)])
    weights = np.repeat(wu / (ca * cb), ca * cb)
    weights /= weights.sum()
    return SphereRule(a, b, weights)


@dataclass(frozen=True)
class ScalarField:
    """Pointwise-evaluable function with a declared bounding box.

    evaluator takes a batch array of shape (count, d), which it leaves
    unchanged, and returns (count,) values, cast to float by the call (an
    indicator may return its booleans); it must vanish outside the support
    box [support_lo, support_hi].  spherical_average_batch relies on this:
    it skips every sphere node whose image has a horizontal coordinate
    outside the box, counting f as 0 there without evaluating it.

    Batches come coordinate-major: each coordinate pts[:, k] is one
    contiguous run of count floats (the transpose of a (d, count) C
    array).  An evaluator should keep that order in what it computes, so
    each operation streams whole coordinates instead of rows of d floats,
    and give the same values for a row-major batch, which is only slower;
    the fields of heislab.families give the same bits for either order.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_lo: np.ndarray
    support_hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support_lo",
                           np.asarray(self.support_lo, dtype=float))
        object.__setattr__(self, "support_hi",
                           np.asarray(self.support_hi, dtype=float))
        if self.support_lo.shape != self.support_hi.shape:
            raise DimensionMismatch("support box lo/hi shape mismatch")
        if np.any(self.support_hi < self.support_lo):
            raise DomainError("support box is inverted")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.evaluator(pts), dtype=float)


def _factor_tables(ubar: np.ndarray, t: np.ndarray, C: np.ndarray,
                   nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The image parts that one factor of the rule fixes, for a chunk.

    nodes holds the factor's k coordinates, shape (k, L, A); ubar, C, lo
    and hi are the matching columns of the points, of the center
    coefficients C_il and of the support box.  Returns, over (point,
    latitude, angle): the mask of the image's k coordinates inside [lo,
    hi], those k coordinates, and the m center terms sum_l C_il w_l, each
    coordinate and term flattened to one entry per (point, latitude, angle).
    """
    shape = (len(t),) + nodes.shape[1:]
    inside = np.ones(shape, dtype=bool)
    coords = []
    terms = np.zeros((C.shape[1],) + shape)
    for k, w in enumerate(nodes):
        x = ubar[:, k, None, None] - t[:, None, None] * w
        inside &= (x >= lo[k]) & (x <= hi[k])
        coords.append(x.ravel())
        terms += C[:, :, k].T[:, :, None, None] * w
    return inside, coords, terms.reshape(len(terms), -1)


def spherical_average_batch(s: MetivierStructure, f: ScalarField,
                            t: np.ndarray, pts: np.ndarray,
                            rule: SphereRule,
                            chunk: int = 200000) -> np.ndarray:
    """Averages f over the t(p)-sphere at each point of a batch.

    The image of the node w is (ubar - t w, bar - t^2 Lambda w - t (ubar^T
    J_i w)_i).  Its coordinates 0, 1 depend only on the (latitude, a)
    factor of w and 2, 3 only on the (latitude, b) factor, and its center
    coordinates are a sum of one term per factor.  So each chunk of points
    tabulates these parts per factor, masks the factors whose horizontal
    coordinates leave f's support box, and gathers the images of the
    product of the two masks row by row into one (d, K) array (take's
    mode="clip" writes there unbuffered; the indices are in range).  f is
    evaluated on its transpose, a coordinate-major batch, and counts as 0
    on all other images, which lie outside its box; the center coordinates
    are not box-tested, since f vanishes where they leave the box.  A
    chunk holds max(1, chunk // nodes) points, and each point's values
    are summed in node order, so results do not depend on the chunk size.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
    if pts.shape[1] != s.d:
        raise DimensionMismatch("point dimension does not match structure")
    two_n = 2 * s.n
    if len(rule.a) + len(rule.b) != two_n:
        raise DimensionMismatch("sphere rule does not match structure")
    lo, hi = f.support_lo, f.support_hi
    a_count, b_count = rule.a.shape[2], rule.b.shape[2]
    count = len(rule.weights)
    rows_per_chunk = max(1, chunk // count)
    out = np.empty(len(pts))
    for start in range(0, len(pts), rows_per_chunk):
        sl = slice(start, min(start + rows_per_chunk, len(pts)))
        ubar, bar, tc = pts[sl, :two_n], pts[sl, two_n:], t[sl]
        # center = bar - sum_l C_il w_l, C_il = t^2 Lambda_il + t (J_i^T ubar)_l
        C = (tc * tc)[:, None, None] * s.Lambda + tc[:, None, None] * np.sum(
            ubar[:, None, :, None] * s.J[None, :, :, :], axis=2)
        in_a, coords_a, terms_a = _factor_tables(
            ubar[:, :2], tc, C[:, :, :2], rule.a, lo[:2], hi[:2])
        in_b, coords_b, terms_b = _factor_tables(
            ubar[:, 2:], tc, C[:, :, 2:], rule.b, lo[2:two_n], hi[2:two_n])
        flat = np.flatnonzero(in_a[:, :, :, None] & in_b[:, :, None, :])
        # floor division by a scalar is fast in numpy, the remainder is not
        row_a = flat // b_count                   # row_a indexes (P, L, A)
        row_b = row_a // a_count * b_count + (flat - row_a * b_count)
        p = flat // count
        node = flat - p * count
        images = np.empty((s.d, len(flat)))
        for k, x in enumerate(coords_a + coords_b):
            np.take(x, row_a if k < 2 else row_b, out=images[k], mode="clip")
        np.subtract(bar.T[:, p], terms_a[:, row_a], out=images[two_n:])
        images[two_n:] -= terms_b[:, row_b]
        vals = f(images.T) * rule.weights[node]
        # bincount adds each point's values one by one in node order
        out[sl] = np.bincount(p, weights=vals, minlength=len(tc))
    return out
