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
# H^2 at delta = 2^-7.  Its weights alone take 128 MiB.  sphere_rule
# compares the counts as given, floats and the inf of a subnormal delta
# too, with this limit before it converts them to int.
MAX_RULE_NODES = 256 ** 3

# Largest offset of a factor node from its place on the grid that
# sphere_rule records for it: the rounding of cos and sin.
GRID_TOL = 1e-12

# A chunk of points whose window nodes exceed this fraction of all its
# nodes box-tests every node of each factor (_mask_hits) instead of only
# its window nodes: with most nodes in a window, the window bookkeeping
# costs more than the nodes it skips.  Both paths feed one pair stage.
# Time in spherical_average_batch per rung (2-core Xeon, medians of 7
# interleaved runs, two runs; every node tested / this threshold / window
# nodes only): the n=1 scaling rungs, every node a hit, 9-12 / 9-13 /
# 11-14 ms; on H^2, ball at delta = 2^-3 (window nodes 0.94 of all) 87, 94
# / 88, 92 / 119, 112 ms; at 2^-4 (0.39) 127, 141 / 118, 130 / 135, 143
# ms; at 2^-5 (0.09) 294, 330 / 106, 104 / 96, 126 ms; knapp at 2^-3
# (0.94) 243, 331 / 253, 261 / 248, 243 ms; at 2^-4 (0.45) 290, 324 /
# 283, 333 / 292, 375 ms; all these rungs 1.11, 1.31 / 0.90, 1.01 / 1.02,
# 1.13 s.  Where the threshold takes the same path as forced masks (every
# chunk of the scaling and 0.94 rungs is wide), the medians still differ
# by up to 27%.
WIDE_WINDOW_FRACTION = 0.4

# Most window nodes per chunk of points in spherical_average_batch, and
# most hit pairs per block of a chunk (see _blocks).  Larger blocks make
# fewer numpy calls but hold more memory, and in a process that rates
# ladder rungs the blocks of one average set the peak RSS.  Per size
# (2-core Xeon, Python 3.11.7, numpy 2.4.6): the bench workers' wall_s
# and peak RSS, medians of 6 runs of bench/worker.py --seconds 8 with the
# sizes alternating; minor faults per pass of the worker and its forked
# ladder children, set-up subtracted; and the peak that tracemalloc
# traces in one average, the largest of the four h2-thin rungs (ball and
# knapp on H^2 at delta = 2^-3, 2^-4) and the ball rung on H^1 at 2^-7:
#
#   CHUNK_WORK               20000  16000  14000  12500  12000  10000   8000
#   h2-thin wall_s (ms)        656    710    749    677    733    632    678
#   h2-thin peak RSS (MiB)    38.6   37.9   37.7   37.1   36.7   36.6   36.1
#   h2-thin faults / pass    45.4k  39.2k  25.7k  22.2k  22.1k  20.9k  14.5k
#   h1-ladders wall_s (ms)     113    138    128    119    121    122    149
#   h1-ladders RSS (MiB)      36.7   36.1   35.8   35.7   35.5   35.1   34.8
#   h1-ladders faults / pass 14.2k  15.9k  14.1k  15.5k  14.1k  13.6k  11.8k
#   traced, H^2 (MiB)         4.13   3.36   3.08   2.86   2.79   2.53   2.43
#   traced, H^1 (MiB)         2.70   2.17   1.90   1.70   1.64   1.37   1.11
#
# The wall times swing by up to 30% between runs, with the host's speed,
# so they do not rank the sizes.  From 20000 to 12000, twenty alternating
# pairs of the 30 s bench moved the wall_s medians by -5% to +3% on
# h2-thin and +4% to +8% on h1-ladders, and an in-process serial pass of
# the 15 h1-ladders rungs fell from 118 to 108 ms (lower in 17 of 20).
# Below 12000 the H^2 peak falls little more: at 8000 it is the (P, L)
# window arrays of _windows, 2.4 MiB on the ball rung at 2^-4.
CHUNK_WORK = 12000


@dataclass(frozen=True)
class SphereRule:
    """Product quadrature rule on S^{2n-1}, n = 1 or 2, as sphere_rule
    builds it.

    Node (l, i, j) has coordinates 0, 1 equal to a[:, l, i] and
    coordinates 2 .. 2n-1 equal to b[:, l, j]: a has shape (2, L, A) and b
    shape (2n - 2, L, B) over L latitudes, which is (0, 1, 1) on the
    circle.  weights holds one positive weight per node in node order
    (l, i, j), summing to 1.

    Each latitude of a factor is a uniform angular grid: node i sits at
    radius r_l and angle phase_l + 2 pi i / A.  grids holds (r, phase) per
    latitude for each factor, and None for the b factor of the circle;
    spherical_average_batch cuts its angle windows from them.
    """

    a: np.ndarray        # (2, L, A)
    b: np.ndarray        # (2n - 2, L, B)
    weights: np.ndarray  # (L * A * B,), positive, sum 1
    grids: tuple         # ((r, phase) of a, (r, phase) of b or None)


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
                          np.empty((0, 1, 1)), np.full(cu, 1.0 / cu),
                          ((np.ones(1), np.zeros(1)), None))
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
    # half-step offsets keep grid lines off the coordinate circles: node i
    # sits at angle pi / A + 2 pi i / A
    ang_a = 2 * np.pi * (np.arange(ca) + 0.5) / ca
    ang_b = 2 * np.pi * (np.arange(cb) + 0.5) / cb
    r0 = np.sqrt(1.0 - u)
    r1 = np.sqrt(u)
    a = np.stack([r0[:, None] * np.cos(ang_a), r0[:, None] * np.sin(ang_a)])
    b = np.stack([r1[:, None] * np.cos(ang_b), r1[:, None] * np.sin(ang_b)])
    weights = np.repeat(wu / (ca * cb), ca * cb)
    weights /= weights.sum()
    return SphereRule(a, b, weights, ((r0, np.full(cu, np.pi / ca)),
                                      (r1, np.full(cu, np.pi / cb))))


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


def _blocks(work: np.ndarray):
    """Slices of consecutive points, each holding at most CHUNK_WORK work,
    or one point.

    spherical_average_batch cuts the points into chunks by their window
    nodes, and each chunk into blocks by its hit pairs.  Whether a chunk
    box-tests every node (wide) or its window nodes (narrow) is decided
    there, from WIDE_WINDOW_FRACTION.
    """
    bounds, total = [0], 0
    for p, w in enumerate(work.tolist()):
        if total + w > CHUNK_WORK and p > bounds[-1]:
            bounds.append(p)
            total = 0
        total += w
    bounds.append(len(work))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _mask_hits(ubar: np.ndarray, t: np.ndarray, C: np.ndarray,
               nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The nodes of one factor whose image passes the box test, for a chunk
    that box-tests every node.

    nodes holds the factor's k coordinates, shape (k, L, A); ubar, C, lo
    and hi are the matching columns of the points, of the center
    coefficients C_il and of the support box.  The image coordinates and
    the m center terms sum_l C_il w_l, added from zero one factor
    coordinate at a time, are computed over the whole (point, latitude,
    angle) table.  Returns the hits as lists in order of (point,
    latitude, angle): (row, flat, coords, terms), where row is point * L +
    latitude, flat is latitude * A + angle, coords holds the image's k
    coordinates and terms, of shape (m, hits), the center terms.
    """
    lat, count = nodes.shape[1:]
    inside = np.ones((len(t), lat, count), dtype=bool)
    coords = []
    terms = np.zeros((C.shape[1], len(t), lat, count))
    for k, w in enumerate(nodes):
        x = ubar[:, k, None, None] - t[:, None, None] * w
        inside &= x >= lo[k]
        inside &= x <= hi[k]
        coords.append(x.ravel())
        terms += C[:, :, k].T[:, :, None, None] * w
    hit = np.flatnonzero(inside)
    row = hit // count
    return (row, hit - row // lat * (lat * count),
            [np.take(x, hit) for x in coords],
            np.take(terms.reshape(len(terms), -1), hit, axis=1))


def _window_hits(ubar: np.ndarray, t: np.ndarray, C: np.ndarray,
                 nodes: np.ndarray, start: np.ndarray, width: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray):
    """The window nodes of one factor whose image passes the box test.

    start and width (P, L) are the factor's windows for the chunk; the
    other arguments and the returned hit lists are those of _mask_hits,
    and each hit's image coordinates and center terms take the same float
    operations.  Only the (point, latitude) rows with a non-empty window
    enter the run arrays.
    """
    lat, count = nodes.shape[1:]
    per_point = width.sum(axis=1)
    width = width.ravel()
    rows = np.flatnonzero(width)
    width = width[rows]
    start = start.ravel()[rows]
    # a window is the index runs [0, wrap) and [start, start + width - wrap);
    # flat = latitude * count + index numbers the factor's nodes
    wrap = np.maximum(start + width - count, 0)
    runs = np.stack([wrap, width - wrap], axis=1).ravel()
    first = np.stack([np.zeros_like(wrap), start], axis=1).ravel()
    first += np.repeat(rows % lat * count, 2)
    ends = np.cumsum(runs)
    flat = np.repeat(first - ends + runs, runs)
    flat += np.arange(len(flat))
    tt = np.repeat(t, per_point)
    inside = np.ones(len(flat), dtype=bool)
    coords = []
    nodes = nodes.reshape(len(nodes), lat * count)
    for k, w in enumerate(nodes):
        x = np.repeat(ubar[:, k], per_point)
        x -= tt * np.take(w, flat)
        inside &= x >= lo[k]
        inside &= x <= hi[k]
        coords.append(x)
    hit = np.flatnonzero(inside)
    coords = [np.take(x, hit) for x in coords]
    flat = np.take(flat, hit)
    row = np.take(np.repeat(rows, width), hit)
    point = row // lat
    terms = np.zeros((C.shape[1], len(hit)))
    for k, w in enumerate(nodes):
        w = np.take(w, flat)
        for c, term in enumerate(terms):
            term += np.take(C[:, c, k], point) * w
    return row, flat, coords, terms


def _pairs(row_a: np.ndarray, nb: np.ndarray, first_b: np.ndarray):
    """Indices (ia, ib) of every pair of an a hit and a b hit on one row,
    in order of the a hit, then the b hit.  row_a lists the rows of
    consecutive a hits; nb counts the b hits of each row and first_b
    holds the index of each row's first b hit in the row-sorted b list."""
    reps = nb[row_a]
    ends = np.cumsum(reps)
    ia = np.repeat(np.arange(len(row_a)), reps)
    ib = np.arange(int(reps.sum())) + np.repeat(
        first_b[row_a] - ends + reps, reps)
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
    since f vanishes where they leave the box.  rule is a rule of
    sphere_rule on S^{2n-1}; a rule of another sphere, a point that is
    not finite and a time that is not finite or is negative are refused.

    Per (point, latitude) and factor, the angle window (_windows) holds
    every angle whose image can pass the box test, in O(1) from the grid
    that sphere_rule recorded for the factor; one pass computes them all,
    in O(P L).  The points are cut into chunks of at most CHUNK_WORK
    window nodes (_blocks), and a chunk lists each factor's hits: the
    nodes whose image passes the box test in that factor's coordinates.
    A wide chunk, whose window nodes exceed WIDE_WINDOW_FRACTION of all
    its nodes, box-tests every node of the factor (_mask_hits), a narrow
    one only its window nodes (_window_hits).  Both paths feed one pair
    stage.  It forms the center's a part bar - terms_a once per a hit,
    cuts the chunk into blocks of at most CHUNK_WORK pairs, pairs each
    (point, latitude)'s a hits with its b hits (_pairs) and gathers the
    images with 1-D takes.
    On the circle the b factor has one node and no coordinates, so each
    a hit is its row's one pair and its own image, and the b terms it
    would subtract are zeros.  A rung costs O(P L + window nodes + hit
    pairs).  Every path passes f the same images in node order and sums
    each point's values in that order, with the same float operations,
    so results do not depend on the path or the chunk size.
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
    factors = [(rule.a, slice(0, 2)), (rule.b, slice(2, two_n))]
    windows = [
        _windows(pts[:, cols], t, grid, nodes.shape[2], lo[cols], hi[cols])
        for (nodes, cols), grid in zip(factors, rule.grids)]
    # a node is a candidate only when both of its factors are in window
    (_, width_a), (_, width_b) = windows
    width_a[width_b == 0] = 0
    width_b[width_a == 0] = 0
    # the circle's b factor has no coordinates: no hits to list
    if not len(rule.b):
        factors, windows = factors[:1], windows[:1]
    work = sum(width for _, width in windows).sum(axis=1)
    full = lat * sum(nodes.shape[2] for nodes, _ in factors)
    out = np.empty(len(pts))
    for sl in _blocks(work):
        wide = work[sl].sum() > WIDE_WINDOW_FRACTION * full * len(work[sl])
        ubar, bar, tc = pts[sl, :two_n], pts[sl, two_n:], t[sl]
        # center = bar - sum_l C_il w_l,
        # C_il = t^2 Lambda_il + t (J_i^T ubar)_l
        C = (tc * tc)[:, None, None] * s.Lambda + tc[:, None, None] * np.sum(
            ubar[:, None, :, None] * s.J[None, :, :, :], axis=2)
        (row_a, flat_a, coords_a, terms_a), *b_hits = (
            _mask_hits(ubar[:, cols], tc, C[:, :, cols], nodes, lo[cols],
                       hi[cols]) if wide else
            _window_hits(ubar[:, cols], tc, C[:, :, cols], nodes, start[sl],
                         width[sl], lo[cols], hi[cols])
            for (nodes, cols), (start, width) in zip(factors, windows))
        point = row_a // lat
        # the a part of the center, once per a hit
        center = [np.take(bar[:, c], point) - term
                  for c, term in enumerate(terms_a)]
        if not b_hits:
            # node (l, i, 0) is number l * A + i
            vals = f(np.stack(coords_a + center).T) * np.take(rule.weights,
                                                             flat_a)
            out[sl] = np.bincount(point, weights=vals, minlength=len(tc))
            continue
        (row_b, flat_b, coords_b, terms_b), = b_hits
        # node (l, i, j) is number (l * A + i) * B + j
        node_a = flat_a * b_count
        node_b = flat_b - row_b % lat * b_count
        nb = np.bincount(row_b, minlength=len(tc) * lat)
        first_b = np.cumsum(nb) - nb
        first_a = np.searchsorted(point, np.arange(len(tc) + 1))
        sums = out[sl]
        for q in _blocks(np.bincount(point, weights=nb[row_a],
                                     minlength=len(tc))):
            a = slice(first_a[q.start], first_a[q.stop])
            ia, ib = _pairs(row_a[a], nb, first_b)
            # the images, gathered row by row into one (d, K) array (take's
            # mode="clip" writes there unbuffered; the indices are in range)
            images = np.empty((s.d, len(ia)))
            parts = ([(x[a], ia) for x in coords_a]
                     + [(x, ib) for x in coords_b]
                     + [(x[a], ia) for x in center])
            for k, (x, index) in enumerate(parts):
                np.take(x, index, out=images[k], mode="clip")
            for c, term in enumerate(terms_b):
                images[two_n + c] -= np.take(term, ib)
            node = np.take(node_a[a], ia)
            node += np.take(node_b, ib)
            vals = f(images.T) * np.take(rule.weights, node)
            # bincount adds each point's values one by one in node order
            sums[q] = np.bincount(np.take(point[a] - q.start, ia),
                                  weights=vals, minlength=q.stop - q.start)
    return out
