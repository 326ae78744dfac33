"""Sphere quadrature and batched spherical averages.

The averaging operator acts on scalar fields over the group: the value at x
is the mean of f over the t-dilated tilted sphere through x.  Quadrature
rules carry normalized weights so the constant field averages to itself.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import DimensionMismatch, DomainError, MetivierStructure


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes on S^{2n-1} with positive weights summing to 1."""

    nodes: np.ndarray    # (count, 2n), unit rows
    weights: np.ndarray  # (count,), positive, sum 1

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.shape != (nodes.shape[0],):
            raise DimensionMismatch("nodes/weights shape mismatch")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        norms = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise DomainError("nodes must lie on the unit sphere")
        object.__setattr__(self, "nodes", nodes)
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
        return SphereRule(nodes, weights)
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
    nrm = np.linalg.norm(nodes, axis=1)
    nodes /= nrm[:, None]
    weights /= weights.sum()
    return SphereRule(nodes, weights)


@dataclass(frozen=True)
class ScalarField:
    """Pointwise-evaluable function with a declared bounding box.

    evaluator takes a batch array of shape (count, d) and returns (count,)
    values; it must vanish outside support_box (lo/hi arrays of length d).
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


def _sphere_images(s: MetivierStructure, pts: np.ndarray, t: np.ndarray,
                   rule: SphereRule) -> np.ndarray:
    """All translated sphere points for a batch.

    pts has shape (P, d), t shape (P,).  Returns (P, W, d) where W is the
    node count: row (p, j) is (ubar x - t w_j, bar x - t^2 Lambda w_j
    - t (ubar x^T J_i w_j)_i).
    """
    two_n = 2 * s.n
    ubar = pts[:, :two_n]
    bar = pts[:, two_n:]
    om = rule.nodes                                    # (W, 2n)
    t = t[:, None]
    out_u = ubar[:, None, :] - t[:, :, None] * om[None, :, :]
    twist = np.einsum("pj,ijk,wk->pwi", ubar, s.J, om)  # (P, W, m)
    lam = om @ s.Lambda.T                               # (W, m)
    out_b = (bar[:, None, :] - (t * t)[:, :, None] * lam[None, :, :]
             - t[:, :, None] * twist)
    return np.concatenate([out_u, out_b], axis=2)


def spherical_average_batch(s: MetivierStructure, f: ScalarField,
                            t: np.ndarray, pts: np.ndarray,
                            rule: SphereRule,
                            chunk: int = 200000) -> np.ndarray:
    """Averages f over the t(p)-sphere at each point of a batch.

    Evaluation is chunked so pts_count * node_count sphere images never
    materialize at once; the reduction order is fixed, so results do not
    depend on the chunk size.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
    if pts.shape[1] != s.d:
        raise DimensionMismatch("point dimension does not match structure")
    W = len(rule.weights)
    rows_per_chunk = max(1, chunk // W)
    out = np.empty(len(pts))
    for start in range(0, len(pts), rows_per_chunk):
        sl = slice(start, min(start + rows_per_chunk, len(pts)))
        images = _sphere_images(s, pts[sl], t[sl], rule)
        vals = f(images.reshape(-1, s.d)).reshape(len(pts[sl]), W)
        # per-row pairwise sum: the reduction order depends only on the
        # node count, never on the batch shape
        out[sl] = np.sum(vals * rule.weights[None, :], axis=1)
    return out
