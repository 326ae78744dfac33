"""Sphere quadrature and batched spherical averages.

The averaging operator acts on scalar fields over the group: the value at x
is the mean of f over the t-dilated tilted sphere through x.  Quadrature
rules carry normalized weights so the constant field averages to itself.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .groups import DimensionMismatch, DomainError, MetivierStructure


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes on S^{2n-1} with positive weights summing to 1.

    shape is the rule's product shape in node order: (angle,) for n=1 and
    (latitude, a, b) for n=2, where node coordinates 0, 1 depend only on
    (latitude, a) and coordinates 2, 3 only on (latitude, b), bit for bit.
    It defaults to (count,) for n=1 and (count, 1, 1) for n=2, a product
    that every node set is.
    """

    nodes: np.ndarray    # (count, 2n), unit rows
    weights: np.ndarray  # (count,), positive, sum 1
    shape: Tuple[int, ...] = ()

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.shape != (nodes.shape[0],):
            raise DimensionMismatch("nodes/weights shape mismatch")
        count, two_n = nodes.shape
        if two_n not in (2, 4):
            raise DimensionMismatch("rules exist on S^1 and S^3 only")
        shape = tuple(int(c) for c in self.shape) or (
            (count,) if two_n == 2 else (count, 1, 1))
        if len(shape) != two_n - 1 or math.prod(shape) != count:
            raise DimensionMismatch(f"shape {shape} does not fit {count} "
                                    f"nodes on S^{two_n - 1}")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        norms = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise DomainError("nodes must lie on the unit sphere")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shape", shape)
        if two_n == 4:
            grid = nodes.reshape(shape + (4,))
            if not (np.all(grid[..., :2] == grid[:, :, :1, :2])
                    and np.all(grid[..., 2:] == grid[:, :1, :, 2:])):
                raise DomainError("nodes are not a product of their "
                                  "(latitude, a, b) factors")

    def factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinates 0, 1 per (latitude, a) and 2, 3 per (latitude, b).

        Arrays of shape (2, latitudes, a count) and (2n - 2, latitudes,
        b count); the n=1 rule is one latitude with no b coordinates.
        """
        if len(self.shape) == 1:
            return self.nodes.T[:, None, :].copy(), np.empty((0, 1, 1))
        grid = self.nodes.reshape(self.shape + (4,))
        return (np.moveaxis(grid[:, :, 0, :2], 2, 0).copy(),
                np.moveaxis(grid[:, 0, :, 2:], 2, 0).copy())


def sphere_rule(n: int, resolution, latitude: str = "gauss") -> SphereRule:
    """Quadrature rule on S^{2n-1}, normalized to total mass 1.

    n=1: uniform angular grid on the circle (exact on trigonometric
    polynomials of degree < resolution).  n=2: Hopf-coordinate product rule
    on S^3; resolution is either one count per factor or a
    (latitude, angle, angle) triple for anisotropic integrands.  The
    latitude parameter carries a uniform measure, so latitude="gauss"
    (best for smooth integrands) and latitude="uniform" (even spacing,
    best for thin indicator caps) are both consistent.  Spheres of higher
    dimension have no rule.
    """
    if n not in (1, 2):
        raise DomainError(f"sphere rules exist for n = 1, 2, not n={n}")
    if n == 2 and not np.isscalar(resolution):
        cu, ca, cb = (int(c) for c in resolution)
    else:
        cu = ca = cb = int(resolution)
    if min(cu, ca, cb) < 4:
        raise DomainError("resolution must be at least 4")
    if n == 1:
        ang = 2 * np.pi * np.arange(cu) / cu
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(cu, 1.0 / cu)
        return SphereRule(nodes, weights, (cu,))
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
    blk = ca * cb
    nodes = np.empty((cu * blk, 4))
    weights = np.empty(cu * blk)
    k = 0
    for iu in range(cu):
        n0 = np.empty((blk, 4))
        n0[:, 0] = np.repeat(r0[iu] * np.cos(ang_a), cb)
        n0[:, 1] = np.repeat(r0[iu] * np.sin(ang_a), cb)
        n0[:, 2] = np.tile(r1[iu] * np.cos(ang_b), ca)
        n0[:, 3] = np.tile(r1[iu] * np.sin(ang_b), ca)
        nodes[k:k + blk] = n0
        weights[k:k + blk] = wu[iu] / blk
        k += blk
    weights /= weights.sum()
    return SphereRule(nodes, weights, (cu, ca, cb))


@dataclass(frozen=True)
class ScalarField:
    """Pointwise-evaluable function with a declared bounding box.

    evaluator takes a batch array of shape (count, d) and returns (count,)
    values; it must vanish outside the support box [support_lo,
    support_hi].  spherical_average_batch relies on this: it skips every
    sphere node whose image has a horizontal coordinate outside the box,
    counting f as 0 there without evaluating it.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_lo: np.ndarray
    support_hi: np.ndarray
    description: str = ""

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
    coordinates leave f's support box, and assembles images only for the
    product of the two masks.  f is evaluated on those images and counts
    as 0 on all others, which lie outside its box; the center coordinates
    are not box-tested, since f vanishes where they leave the box.  A
    chunk covers at most chunk (point, node) pairs, and each point's
    values are summed in node order, so results do not depend on the
    chunk size.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
    if pts.shape[1] != s.d:
        raise DimensionMismatch("point dimension does not match structure")
    two_n = 2 * s.n
    if rule.nodes.shape[1] != two_n:
        raise DimensionMismatch("sphere rule does not match structure")
    lo, hi = f.support_lo, f.support_hi
    a_nodes, b_nodes = rule.factors()
    a_count, b_count = a_nodes.shape[2], b_nodes.shape[2]
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
            ubar[:, :2], tc, C[:, :, :2], a_nodes, lo[:2], hi[:2])
        in_b, coords_b, terms_b = _factor_tables(
            ubar[:, 2:], tc, C[:, :, 2:], b_nodes, lo[2:two_n], hi[2:two_n])
        flat = np.flatnonzero(in_a[:, :, :, None] & in_b[:, :, None, :])
        # floor division by a scalar is fast in numpy, the remainder is not
        row_a = flat // b_count                   # row_a indexes (P, L, A)
        row_b = row_a // a_count * b_count + (flat - row_a * b_count)
        p = flat // count
        node = flat - p * count
        center = bar[p].T - terms_a[:, row_a] - terms_b[:, row_b]   # (m, K)
        images = np.stack([x[row_a] for x in coords_a]
                          + [x[row_b] for x in coords_b]
                          + list(center), axis=1)
        vals = f(images) * rule.weights[node]
        # bincount adds each point's values one by one in node order
        out[sl] = np.bincount(p, weights=vals, minlength=len(tc))
    return out
