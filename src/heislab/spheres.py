"""Sphere quadrature, spherical averages, and maximal values.

The averaging operator acts on scalar fields over the group: the value at x
is the mean of f over the t-dilated tilted sphere through x.  Quadrature
rules carry normalized weights so the constant field averages to itself.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .groups import DimensionMismatch, DomainError, GroupPoint, MetivierStructure


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes on S^{2n-1} with positive weights summing to 1."""

    nodes: np.ndarray    # (count, 2n), unit rows
    weights: np.ndarray  # (count,), positive, sum 1
    monte_carlo: bool = False

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


def sphere_rule(n: int, resolution, seed: int = 0,
                latitude: str = "gauss") -> SphereRule:
    """Quadrature rule on S^{2n-1}, normalized to total mass 1.

    n=1: uniform angular grid on the circle (exact on trigonometric
    polynomials of degree < resolution).  n=2: Hopf-coordinate product rule
    on S^3; resolution is either one count per factor or a
    (latitude, angle, angle) triple for anisotropic integrands.  The
    latitude parameter carries a uniform measure, so latitude="gauss"
    (best for smooth integrands) and latitude="uniform" (even spacing,
    best for thin indicator caps) are both consistent.  n>=3: seeded
    Monte Carlo fallback, flagged and warned about.
    """
    if n == 2 and not np.isscalar(resolution):
        cu, ca, cb = (int(c) for c in resolution)
    else:
        cu = ca = cb = int(resolution)
    if min(cu, ca, cb) < 4:
        raise DomainError("resolution must be at least 4")
    resolution = cu
    if n == 1:
        ang = 2 * np.pi * np.arange(resolution) / resolution
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(resolution, 1.0 / resolution)
        return SphereRule(nodes, weights)
    if n == 2:
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
    # Monte Carlo fallback for high-dimensional spheres.
    warnings.warn(f"sphere_rule falls back to Monte Carlo for n={n}",
                  RuntimeWarning, stacklevel=2)
    rng = np.random.default_rng(seed)
    count = max(resolution ** 2, 4096)
    raw = rng.standard_normal((count, 2 * n))
    nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.full(count, 1.0 / count)
    return SphereRule(nodes, weights, monte_carlo=True)


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


@dataclass(frozen=True)
class TimeSelector:
    """Time choice for the maximal operator over t in [1,2].

    kind="grid": uniform grid of count points on [1,2]; the maximal value
    is the max over the grid.  kind="map": an explicit selector x -> t(x),
    clamped to [1,2]; the maximal value is the single average at t(x),
    which lower-bounds the supremum.
    """

    kind: str
    count: int = 0
    mapper: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind == "grid":
            if self.count < 2:
                raise DomainError("grid selector needs count >= 2")
        elif self.kind == "map":
            if self.mapper is None:
                raise DomainError("map selector needs a mapper")
        else:
            raise DomainError(f"unknown selector kind {self.kind!r}")

    def times(self, pts: np.ndarray) -> np.ndarray:
        """Selector times for a batch of points, shape (count,) for kind=map."""
        if self.kind != "map":
            raise DomainError("times() applies to map selectors")
        t = np.asarray(self.mapper(np.atleast_2d(pts)), dtype=float)
        return np.clip(t, 1.0, 2.0)

    def grid(self) -> np.ndarray:
        if self.kind != "grid":
            raise DomainError("grid() applies to grid selectors")
        return np.linspace(1.0, 2.0, self.count)


def fixed_time_selector(t: float) -> TimeSelector:
    t = float(t)
    return TimeSelector(kind="map", mapper=lambda pts: np.full(len(pts), t))


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


def spherical_average(s: MetivierStructure, f: ScalarField, t: float,
                      x: GroupPoint, rule: SphereRule) -> float:
    """Mean of f over the t-dilated tilted sphere translated to x."""
    pt = x.as_array()[None, :]
    return float(spherical_average_batch(s, f, np.array([float(t)]), pt, rule)[0])


def maximal_value_batch(s: MetivierStructure, f: ScalarField,
                        pts: np.ndarray, sel: TimeSelector,
                        rule: SphereRule) -> np.ndarray:
    """|average| maximized over the selector's times, for a batch of points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if sel.kind == "map":
        t = sel.times(pts)
        return np.abs(spherical_average_batch(s, f, t, pts, rule))
    best = np.zeros(len(pts))
    for t in sel.grid():
        vals = np.abs(spherical_average_batch(s, f, t, pts, rule))
        best = np.maximum(best, vals)
    return best


def maximal_value(s: MetivierStructure, f: ScalarField, x: GroupPoint,
                  sel: TimeSelector, rule: SphereRule) -> float:
    return float(maximal_value_batch(s, f, x.as_array()[None, :], sel, rule)[0])
