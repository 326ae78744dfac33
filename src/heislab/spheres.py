"""Sphere quadrature and batched spherical averages.

The averaging operator acts on scalar fields over the group: the value at x
is the mean of f over the t-dilated tilted sphere through x.  Quadrature
rules carry normalized weights so the constant field averages to itself.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .groups import DimensionMismatch, DomainError, MetivierStructure

# Most nodes a sphere rule may have: 256^3, the rule of the ball family on
# H^2 at delta = 2^-7.  Its weights alone take 128 MiB.  sphere_rule
# compares the counts as given, floats and the inf of a subnormal delta
# too, with this limit before it converts them to int.
MAX_RULE_NODES = 256 ** 3

# Largest offset of a factor node from its place on a uniform angular grid.
GRID_TOL = 1e-12

# A chunk of points whose window work exceeds this fraction of the work of
# the product of the full factor masks takes that product instead.  With
# most nodes in a window the window bookkeeping costs more than the nodes
# it skips.  Time in spherical_average_batch per rung (2-core Xeon, median
# of 7 interleaved runs; product masks forced, this threshold, windows
# forced): the n=1 scaling rungs, every node a hit, 15, 15 and 24 ms; ball
# on H^2 at delta = 2^-3, windows 0.91 of the work, 134, 151 and 163 ms; at
# 2^-4, windows 0.19 of the work, 241, 257 and 249 ms; at 2^-5 (p = q = 2),
# windows 0.02 of the work, 551, 232 and 265 ms; knapp on H^2 at 2^-3,
# windows 0.88, 520, 511 and 661 ms; at 2^-4, windows 0.25, 630, 661 and
# 655 ms.  On the four H^2 rungs at 2^-3 and 2^-4 the runs overlap.
WIDE_WINDOW_FRACTION = 0.4

# Most work per chunk of points in spherical_average_batch (see _chunks).
# At twice this, one chunk's temporaries can outgrow glibc's heap trim
# threshold and fault in afresh for each chunk; by heap layout the n=1
# ladders then took 1e3 or 2.7e4 page faults per pass (2-core Xeon), and
# at this size 1e3 to 4e3 in every layout tried.
CHUNK_WORK = 50000


@dataclass(frozen=True)
class SphereRule:
    """Product quadrature rule on S^{2n-1}, n = 1 or 2.

    Node (l, i, j) has coordinates 0, 1 equal to a[:, l, i] and
    coordinates 2 .. 2n-1 equal to b[:, l, j]: a has shape (2, L, A) and b
    shape (2n - 2, L, B) over L latitudes, which is (0, 1, 1) on the
    circle.  weights holds one positive weight per node in node order
    (l, i, j), summing to 1.

    Each latitude of a factor must be a uniform angular grid: node i sits
    at radius r_l and angle phase_l + 2 pi i / A, within GRID_TOL in each
    coordinate.  grids holds (r, phase) per latitude for each factor, and
    None for the b factor of the circle; spherical_average_batch cuts its
    angle windows from them.
    """

    a: np.ndarray        # (2, L, A)
    b: np.ndarray        # (2n - 2, L, B)
    weights: np.ndarray  # (L * A * B,), positive, sum 1
    grids: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "grids", (_angle_grid(a), _angle_grid(b)))


def _angle_grid(nodes: np.ndarray):
    """(radius, phase) per latitude of a (2, L, A) rule factor, or None
    for a factor without coordinates; refuses a factor whose latitudes are
    not uniform angular grids."""
    if not len(nodes):
        return None
    radius = np.hypot(nodes[0, :, 0], nodes[1, :, 0])
    phase = np.arctan2(nodes[1, :, 0], nodes[0, :, 0])
    count = nodes.shape[2]
    ang = phase[:, None] + 2 * np.pi * np.arange(count) / count
    grid = radius[:, None] * np.stack([np.cos(ang), np.sin(ang)])
    if np.max(np.abs(nodes - grid)) > GRID_TOL:
        raise DomainError("each latitude of a rule factor must be a uniform "
                          "angular grid")
    return radius, phase


def sphere_rule(n: int, resolution, latitude: str = "gauss") -> SphereRule:
    """Quadrature rule on S^{2n-1}, normalized to total mass 1.

    n=1: uniform angular grid on the circle (exact on trigonometric
    polynomials of degree < resolution).  n=2: Hopf-coordinate product rule
    on S^3; resolution is either one count per factor or a
    (latitude, angle, angle) triple for anisotropic integrands.  The
    latitude parameter carries a uniform measure, so latitude="gauss"
    (best for smooth integrands) and latitude="uniform" (even spacing,
    best for thin indicator caps) are both consistent.  Spheres of higher
    dimension have no rule.  Counts may be ints or floats, inf included;
    a rule of more than MAX_RULE_NODES nodes is refused before any count
    is converted to int and before anything is allocated.
    """
    if n not in (1, 2):
        raise DomainError(f"sphere rules exist for n = 1, 2, not n={n}")
    if n == 2 and not np.isscalar(resolution):
        cu, ca, cb = resolution
    else:
        cu = ca = cb = resolution
    if min(cu, ca, cb) < 4:
        raise DomainError("resolution must be at least 4")
    # divide, not multiply: a product of numpy counts could overflow
    if cu > (MAX_RULE_NODES if n == 1 else MAX_RULE_NODES / ca / cb):
        raise DomainError(f"a sphere rule of more than {MAX_RULE_NODES} "
                          "nodes is refused; use a coarser delta")
    cu, ca, cb = int(cu), int(ca), int(cb)
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
    and give the same values for a row-major batch, which is only slower.
    The fields and time maps of heislab.families give the same bits for
    any memory layout of a batch and any split of it.
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
        if not (np.isfinite(self.support_lo).all()
                and np.isfinite(self.support_hi).all()):
            raise DomainError("support box must be finite")
        if np.any(self.support_hi < self.support_lo):
            raise DomainError("support box is inverted")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.evaluator(pts), dtype=float)


def _windows(ubar: np.ndarray, t: np.ndarray, grid, count: int,
             lo: np.ndarray, hi: np.ndarray):
    """Angle windows of one rule factor: (start, width), each (P, L).

    ubar (P, k) holds the points' coordinates of the factor and lo, hi
    the support box's; grid is the factor's (radius, phase) per latitude,
    and count its angles.  The image ubar - t w of node i of latitude l
    lies on the circle of radius t radius[l] about ubar, in the direction
    phase[l] + 2 pi i / count + pi.  So it can pass the box test only if
    that circle meets the box, and only at a direction inside the box's
    angular hull seen from ubar.  The window is the run of indices start,
    start + 1, ... (mod count) of those directions, widened by one index
    on each side; it is every index when the box holds ubar and none when
    the circle misses the box.  The box is first widened by a margin that
    covers the nodes' GRID_TOL offsets and the rounding of the images, so
    the window holds every node whose image passes the box test.  A
    factor without coordinates (the b factor on the circle) has one
    index, always in its window.
    """
    if grid is None:
        return np.zeros((len(t), 1), np.int32), np.ones((len(t), 1), np.int32)
    radius, phase = grid
    margin = 8 * GRID_TOL * (1.0 + t + np.abs(ubar).max(axis=1))
    lo = lo - margin[:, None]
    hi = hi + margin[:, None]
    near = np.clip(ubar, lo, hi) - ubar
    far = np.maximum(ubar - lo, hi - ubar)
    # the hull's edges, as angles from the direction of the box's center
    c = 0.5 * (lo + hi) - ubar
    edge = [np.arctan2(c[:, 0] * y - c[:, 1] * x, c[:, 0] * x + c[:, 1] * y)
            for x in (lo[:, 0] - ubar[:, 0], hi[:, 0] - ubar[:, 0])
            for y in (lo[:, 1] - ubar[:, 1], hi[:, 1] - ubar[:, 1])]
    # the node at angle a has its image in the direction a + pi
    mid = np.arctan2(c[:, 1], c[:, 0]) - np.pi
    # per latitude, in place: the (P, L) arrays are the bulk of the work
    first = np.subtract.outer(mid + np.min(edge, axis=0), phase)
    first *= count / (2 * np.pi)
    np.floor(first, out=first)
    first -= 1
    width = np.subtract.outer(mid + np.max(edge, axis=0), phase)
    width *= count / (2 * np.pi)
    np.ceil(width, out=width)
    width += 2
    width -= first
    rho = np.multiply.outer(t, radius)
    miss = rho < np.hypot(*near.T)[:, None]
    miss |= rho > np.hypot(*far.T)[:, None]
    full = width >= count
    full |= ~near.any(axis=1)[:, None]
    np.mod(first, count, out=first)
    first[full | miss] = 0
    width[full] = count
    width[miss] = 0
    # int32 halves what the windows of all points hold through the chunks
    return first.astype(np.int32), width.astype(np.int32)


def _chunks(work: np.ndarray, full: int):
    """Slices of consecutive points, each flagged wide or narrow.

    work holds each point's window work: its window nodes, box-tested one
    factor at a time, plus its candidate pairs.  full is that work with
    every node in a window, which the product of the factor masks spends
    on every point.  A slice holds at most CHUNK_WORK work, or one point.
    It is wide when its work exceeds WIDE_WINDOW_FRACTION of its full work,
    so a wide slice spends at most CHUNK_WORK / WIDE_WINDOW_FRACTION on
    the product of the masks.
    """
    bounds, total = [0], 0
    for p, w in enumerate(work.tolist()):
        if total + w > CHUNK_WORK and p > bounds[-1]:
            bounds.append(p)
            total = 0
        total += w
    bounds.append(len(work))
    return [(slice(a, b),
             work[a:b].sum() > WIDE_WINDOW_FRACTION * (b - a) * full)
            for a, b in zip(bounds, bounds[1:]) if b > a]


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


def _window_hits(ubar: np.ndarray, t: np.ndarray, C: np.ndarray,
                 nodes: np.ndarray, start: np.ndarray, width: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray):
    """The window nodes of one factor whose image passes the box test.

    start and width (P, L) are the factor's windows for the chunk.  Each
    node's image coordinates and center terms take the float operations
    of _factor_tables.  Returns, over the window nodes whose image has its
    k coordinates inside [lo, hi], in order of (point, latitude, angle):
    the row point * L + latitude, the angle index, the k coordinates and
    the m center terms.
    """
    lat, count = nodes.shape[1:]
    rows = width.size
    width = width.ravel()
    # a window is the index runs [0, wrap) and [start, start + width - wrap);
    # flat = latitude * count + index numbers the factor's nodes
    wrap = np.maximum(start.ravel() + width - count, 0)
    runs = np.stack([wrap, width - wrap], axis=1).ravel()
    first = np.stack([np.zeros_like(wrap), start.ravel()], axis=1).ravel()
    first += np.repeat(np.arange(rows) % lat * count, 2)
    ends = np.cumsum(runs)
    flat = np.repeat(first - ends + runs, runs)
    flat += np.arange(len(flat))
    per_point = width.reshape(len(t), lat).sum(axis=1)
    tt = np.repeat(t, per_point)
    inside = np.ones(len(flat), dtype=bool)
    coords = []
    nodes = nodes.reshape(len(nodes), lat * count)
    for k, w in enumerate(nodes):
        x = np.repeat(ubar[:, k], per_point)
        x -= tt * w[flat]
        inside &= x >= lo[k]
        inside &= x <= hi[k]
        coords.append(x)
    hit = np.flatnonzero(inside)
    coords = [x[hit] for x in coords]
    flat = flat[hit]
    row = np.repeat(np.arange(rows), width)[hit]
    point = row // lat
    terms = np.zeros((C.shape[1], len(hit)))
    for k, w in enumerate(nodes):
        terms += C[point, :, k].T * w[flat]
    index = flat - (row - point * lat) * count
    return row, index, coords, terms


def _pairs(row_a: np.ndarray, row_b: np.ndarray, rows: int):
    """Indices (ia, ib) of every pair of an a hit and a b hit on one row,
    in order of the a hit, then the b hit; both hit lists are sorted by
    row."""
    nb = np.bincount(row_b, minlength=rows)
    reps = nb[row_a]
    ends = np.cumsum(reps)
    ia = np.repeat(np.arange(len(row_a)), reps)
    ib = np.arange(int(reps.sum())) + np.repeat(
        (np.cumsum(nb) - nb)[row_a] - ends + reps, reps)
    return ia, ib


def spherical_average_batch(s: MetivierStructure, f: ScalarField,
                            t: np.ndarray, pts: np.ndarray,
                            rule: SphereRule) -> np.ndarray:
    """Averages f over the t(p)-sphere at each point of a batch.

    The image of the node w is (ubar - t w, bar - t^2 Lambda w - t (ubar^T
    J_i w)_i).  Its coordinates 0, 1 depend only on the (latitude, a)
    factor of w and 2, 3 only on the (latitude, b) factor, and its center
    coordinates are a sum of one term per factor.  f is evaluated only on
    the images whose horizontal coordinates lie in its support box, and
    counts as 0 on all others; the center coordinates are not box-tested,
    since f vanishes where they leave the box.

    Per (point, latitude) and factor, the angle window (_windows) holds
    every angle whose image can pass the box test, in O(1) from the
    factor's grid; one pass computes them all, in O(P L).  The work of a
    point is then its window nodes, box-tested one factor at a time, plus
    the pairs of an a window node and a b window node, and the points are
    cut into chunks of at most CHUNK_WORK work (_chunks).  A narrow chunk
    box-tests only its window nodes and pairs each (point, latitude)'s a
    hits with its b hits, so it costs O(P L + window work).  A wide chunk,
    whose work exceeds WIDE_WINDOW_FRACTION of the work with every node in
    a window, masks every node of each factor and takes the product of
    the masks.  Both paths pass f the same images in node order and sum
    each point's values in that order, with the same float operations, so
    results do not depend on the path or the chunk size.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
    if pts.shape[1] != s.d:
        raise DimensionMismatch("point dimension does not match structure")
    two_n = 2 * s.n
    if len(rule.a) + len(rule.b) != two_n:
        raise DimensionMismatch("sphere rule does not match structure")
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    if not (np.isfinite(t).all() and np.all(t >= 0)):
        raise DomainError("times must be finite and >= 0")
    lo, hi = f.support_lo, f.support_hi
    (_, lat, a_count), b_count = rule.a.shape, rule.b.shape[2]
    count = len(rule.weights)
    factors = [(rule.a, slice(0, 2)), (rule.b, slice(2, two_n))]
    (start_a, width_a), (start_b, width_b) = (
        _windows(pts[:, cols], t, grid, nodes.shape[2], lo[cols], hi[cols])
        for (nodes, cols), grid in zip(factors, rule.grids))
    # a node is a candidate only when both of its factors are in window
    width_a[width_b == 0] = 0
    width_b[width_a == 0] = 0
    windows = [(start_a, width_a), (start_b, width_b)]
    work = np.sum(width_a + width_b + width_a * width_b, axis=1)
    full = lat * (a_count + b_count + a_count * b_count)
    out = np.empty(len(pts))
    for sl, wide in _chunks(work, full):
        ubar, bar, tc = pts[sl, :two_n], pts[sl, two_n:], t[sl]
        # center = bar - sum_l C_il w_l,
        # C_il = t^2 Lambda_il + t (J_i^T ubar)_l
        C = (tc * tc)[:, None, None] * s.Lambda + tc[:, None, None] * np.sum(
            ubar[:, None, :, None] * s.J[None, :, :, :], axis=2)
        if wide:
            (in_a, *part_a), (in_b, *part_b) = (
                _factor_tables(ubar[:, cols], tc, C[:, :, cols], nodes,
                               lo[cols], hi[cols]) for nodes, cols in factors)
            flat = np.flatnonzero(in_a[:, :, :, None] & in_b[:, :, None, :])
            # floor division by a scalar is fast in numpy, the remainder
            # is not
            ia = flat // b_count                  # ia indexes (P, L, A)
            ib = ia // a_count * b_count + (flat - ia * b_count)
            p = flat // count
            node = flat - p * count
        else:
            (row_a, i_a, *part_a), (row_b, i_b, *part_b) = (
                _window_hits(ubar[:, cols], tc, C[:, :, cols], nodes,
                             start[sl], width[sl], lo[cols], hi[cols])
                for (nodes, cols), (start, width) in zip(factors, windows))
            ia, ib = _pairs(row_a, row_b, len(tc) * lat)
            point = row_a // lat
            p = point[ia]
            node = (((row_a - point * lat) * a_count + i_a) * b_count)[ia] \
                + i_b[ib]
        # the images, gathered row by row into one (d, K) array (take's
        # mode="clip" writes there unbuffered; the indices are in range)
        (coords_a, terms_a), (coords_b, terms_b) = part_a, part_b
        images = np.empty((s.d, len(p)))
        for k, x in enumerate(coords_a + coords_b):
            np.take(x, ia if k < 2 else ib, out=images[k], mode="clip")
        np.subtract(bar.T[:, p], terms_a[:, ia], out=images[two_n:])
        images[two_n:] -= terms_b[:, ib]
        vals = f(images.T) * rule.weights[node]
        # bincount adds each point's values one by one in node order
        out[sl] = np.bincount(p, weights=vals, minlength=len(tc))
    return out
