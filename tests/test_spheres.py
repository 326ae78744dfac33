"""Sphere quadrature and batched spherical averages."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import families, spheres
from heislab.groups import (DimensionMismatch, DomainError, MetivierStructure,
                            normalized_heisenberg, quaternionic_htype,
                            standard_heisenberg)
from heislab.spheres import (GRID_TOL, MAX_RULE_NODES, ScalarField,
                             SphereRule, spherical_average_batch, sphere_rule)
from oracles import node_order_average

# WIDE_WINDOW_FRACTION values that send every chunk down one path: the
# product of the full factor masks, or the angle windows
PATHS = {"dense": -1.0, "windows": 2.0}


def box_indicator(lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def ev(pts):
        return np.all((pts >= lo) & (pts <= hi), axis=1).astype(float)

    return ScalarField(ev, lo, hi)


def thin_bump(lo, hi):
    """Positive, non-constant values on the box [lo, hi], zero outside.

    The phase is summed one coordinate at a time, so an image gets the
    same bits in any batch; a matrix product may round a row differently
    by its place in the batch.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def ev(pts):
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        phase = sum(pts[:, k] * (k + 1.0) for k in range(pts.shape[1]))
        return inside * (2.0 + np.cos(phase))

    return ScalarField(ev, lo, hi)


def dense_nodes(rule):
    """The rule's (count, 2n) node array, rows in node order (l, i, j)."""
    (_, lat, a_count), b_count = rule.a.shape, rule.b.shape[2]
    grid = (lat, a_count, b_count)
    a = np.broadcast_to(rule.a[:, :, :, None], (2,) + grid)
    b = np.broadcast_to(rule.b[:, :, None, :], (len(rule.b),) + grid)
    return np.concatenate([a, b]).reshape(2 + len(rule.b), -1).T


def factored_rule(nodes):
    """Equal-weight rule with one latitude per node: factors (k, count, 1).

    Each latitude is a grid of one node, at its own radius and phase.
    """
    nodes = np.asarray(nodes, dtype=float)
    count = len(nodes)
    a, b = nodes[:, :2].T[:, :, None], nodes[:, 2:].T[:, :, None]
    grids = tuple((np.hypot(x[0, :, 0], x[1, :, 0]),
                   np.arctan2(x[1, :, 0], x[0, :, 0])) if len(x) else None
                  for x in (a, b))
    return SphereRule(a, b, np.full(count, 1.0 / count), grids)


def reweighted(rule, seed):
    """rule with random positive weights in place of its own."""
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, len(rule.weights))
    return dataclasses.replace(rule, weights=weights / weights.sum())


def dense_average(s, f, t, pts, rule):
    """Oracle: every sphere image assembled and f evaluated on all of them."""
    two_n = 2 * s.n
    ubar, bar = pts[:, :two_n], pts[:, two_n:]
    om = dense_nodes(rule)
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))[:, None]
    out_u = ubar[:, None, :] - t[:, :, None] * om[None, :, :]
    twist = np.einsum("pj,ijk,wk->pwi", ubar, s.J, om)
    lam = om @ s.Lambda.T
    out_b = (bar[:, None, :] - (t * t)[:, :, None] * lam[None, :, :]
             - t[:, :, None] * twist)
    images = np.concatenate([out_u, out_b], axis=2).reshape(-1, s.d)
    vals = f(images).reshape(len(pts), len(rule.weights))
    return np.sum(vals * rule.weights[None, :], axis=1), images


def near_sphere_points(s, count, rng, spread=0.15):
    """Points whose t-sphere passes through the origin's neighbourhood."""
    two_n = 2 * s.n
    t = rng.uniform(1.0, 2.0, count)
    dirs = rng.standard_normal((count, two_n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = t + rng.uniform(-spread, spread, count)
    bar = rng.uniform(-spread, spread, (count, s.m))
    return np.concatenate([r[:, None] * dirs, bar], axis=1), t


# --- quadrature rules ----------------------------------------------------

def assert_grid_rule(rule):
    """Each factor node lies on the grid the rule records (within GRID_TOL),
    and the rule has one positive weight per node, of sum 1, on unit
    nodes."""
    for nodes, grid in zip((rule.a, rule.b), rule.grids):
        if grid is None:
            assert nodes.shape == (0, 1, 1)
            continue
        radius, phase = grid
        count = nodes.shape[2]
        ang = phase[:, None] + 2 * np.pi * np.arange(count) / count
        on_grid = radius[:, None] * np.stack([np.cos(ang), np.sin(ang)])
        assert np.max(np.abs(nodes - on_grid)) <= GRID_TOL
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-12
    nodes = dense_nodes(rule)
    assert nodes.shape == (len(rule.weights), 2 + len(rule.b))
    assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) <= 1e-12


def test_rule_weights_and_nodes():
    for rule in (sphere_rule(1, 64), sphere_rule(2, 12),
                 sphere_rule(2, (8, 12, 16)),
                 sphere_rule(2, 12, latitude="uniform")):
        assert_grid_rule(rule)


def ladder_instances():
    """(id, make) of each rung of the bench ladders and of criterion 7:
    ball, scaling and moment on H^1 at delta = 2^-3 .. 2^-7, ball on H^2
    and knapp on normalized H^2 at 2^-3 .. 2^-5; make() builds the
    rung's instance."""
    s1, s2 = standard_heisenberg(1), standard_heisenberg(2)
    s2n = normalized_heisenberg(2)
    cases = []
    for k in range(3, 8):
        d = 2.0 ** -k
        cases += [(f"ball-H1-2^-{k}", lambda d=d: families.ball_example(s1, d)),
                  (f"scaling-H1-2^-{k}",
                   lambda d=d: families.scaling_example(s1, d)),
                  (f"moment-2^-{k}", lambda d=d: families.moment_example(d))]
    for k in range(3, 6):
        d = 2.0 ** -k
        cases += [(f"ball-H2-2^-{k}", lambda d=d: families.ball_example(s2, d)),
                  (f"knapp-H2-2^-{k}",
                   lambda d=d: families.knapp_example(s2n, d))]
    return cases


@pytest.mark.parametrize("make", [pytest.param(make, id=name)
                                  for name, make in ladder_instances()])
def test_family_rules_are_grid_rules(make):
    assert_grid_rule(make().rule)


def test_circle_second_moment():
    rule = sphere_rule(1, 128)
    m = float(np.sum(dense_nodes(rule)[:, 0] ** 2 * rule.weights))
    assert abs(m - 0.5) <= 1e-12


def test_s3_second_moment():
    for latitude in ("gauss", "uniform"):
        rule = sphere_rule(2, 24, latitude=latitude)
        nodes = dense_nodes(rule)
        for j in range(4):
            m = float(np.sum(nodes[:, j] ** 2 * rule.weights))
            assert abs(m - 0.25) <= 1e-10


def test_rule_validation():
    with pytest.raises(DomainError):
        sphere_rule(1, 3)
    with pytest.raises(DomainError):
        sphere_rule(2, (12, 3, 12))
    with pytest.raises(DomainError):
        sphere_rule(2, 12, latitude="chebyshev")


def test_rule_factors_are_uniform_angular_grids():
    rule = sphere_rule(2, (4, 6, 8))
    u = 0.5 * (np.polynomial.legendre.leggauss(4)[0] + 1.0)
    for name, radius_of_u, count in (("a", np.sqrt(1.0 - u), 6),
                                     ("b", np.sqrt(u), 8)):
        radius, phase = rule.grids[name == "b"]
        np.testing.assert_allclose(radius, radius_of_u, rtol=1e-14)
        np.testing.assert_allclose(phase, np.pi / count, rtol=1e-14)
    assert sphere_rule(1, 16).grids[1] is None
    np.testing.assert_allclose(sphere_rule(1, 16).grids[0], [[1.0], [0.0]],
                               rtol=0.0, atol=1e-15)


def test_rule_check_memory_is_bounded():
    # 256^3 nodes: 128 MiB of weights, and no (L, A, B) temporaries
    tracemalloc.start()
    try:
        sphere_rule(2, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20


def test_rule_size_limit():
    # one node past MAX_RULE_NODES, the 2^-1000 rung of the ball family on
    # H^2, and the float counts of a subnormal delta (inf), refused as they
    # come: each is refused before its arrays are allocated
    tracemalloc.start()
    try:
        for n, resolution in [(2, 257), (2, (256, 256, 257)),
                              (1, MAX_RULE_NODES + 1), (2, 2 ** 1001),
                              (1, np.inf), (2, (np.inf, 24, 24)),
                              (2, np.float64(257.0))]:
            with pytest.raises(DomainError, match="more than 16777216"):
                sphere_rule(n, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_rule_float_counts_match_int_counts():
    # families pass their counts as floats; the rule is built from ints
    for float_rule, int_rule in [
            (sphere_rule(2, (48.0, 40.0, 40.0), latitude="uniform"),
             sphere_rule(2, (48, 40, 40), latitude="uniform")),
            (sphere_rule(1, 512.0), sphere_rule(1, 512))]:
        for name in ("a", "b", "weights"):
            got, want = getattr(float_rule, name), getattr(int_rule, name)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_rule_rejects_n_above_two():
    for n in (0, 3):
        with pytest.raises(DomainError):
            sphere_rule(n, 16)


def test_rule_product_shape():
    rule = sphere_rule(1, 64)
    assert (rule.a.shape, rule.b.shape) == ((2, 1, 64), (0, 1, 1))
    rule = sphere_rule(2, 12)
    assert (rule.a.shape, rule.b.shape) == ((2, 12, 12), (2, 12, 12))
    rule = sphere_rule(2, (8, 12, 16), latitude="uniform")
    assert (rule.a.shape, rule.b.shape) == ((2, 8, 12), (2, 8, 16))
    # node (l, i, j) is the Hopf point at latitude u_l and angles a_i, b_j
    u = (np.arange(8) + 0.5) / 8
    ang_a = 2 * np.pi * (np.arange(12) + 0.5) / 12
    ang_b = 2 * np.pi * (np.arange(16) + 0.5) / 16
    l, i, j = (g.ravel() for g in np.meshgrid(np.arange(8), np.arange(12),
                                               np.arange(16), indexing="ij"))
    hopf = np.stack([np.sqrt(1 - u[l]) * np.cos(ang_a[i]),
                     np.sqrt(1 - u[l]) * np.sin(ang_a[i]),
                     np.sqrt(u[l]) * np.cos(ang_b[j]),
                     np.sqrt(u[l]) * np.sin(ang_b[j])], axis=1)
    assert np.max(np.abs(dense_nodes(rule) - hopf)) <= 1e-15
    # Gauss latitudes carry their weights to every node of the latitude
    rule = sphere_rule(2, (8, 12, 16))
    _, gl_w = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(rule.weights.reshape(8, -1),
                               np.repeat(gl_w[:, None] / 384.0, 192, axis=1),
                               rtol=1e-14, atol=0.0)


# --- averages ------------------------------------------------------------

def average_at(s, f, t, ubar, bar, rule):
    """Average at the single point (ubar, bar) through the batched path."""
    pt = np.concatenate([ubar, bar])[None, :]
    return float(spherical_average_batch(s, f, t, pt, rule)[0])


def test_constant_field_averages_to_one():
    s = standard_heisenberg(1)
    big = 100.0 * np.ones(3)
    f = ScalarField(lambda pts: np.ones(len(pts)), -big, big)
    rule = sphere_rule(1, 64)
    got = average_at(s, f, 1.5, [0.3, -0.2], [0.1], rule)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_disjoint_support_is_exact_zero():
    s = standard_heisenberg(1)
    f = box_indicator([5.0, 5.0, 5.0], [6.0, 6.0, 6.0])
    rule = sphere_rule(1, 64)
    assert average_at(s, f, 1.0, np.zeros(2), np.zeros(1), rule) == 0.0


def test_circle_average_matches_closed_form():
    # f depending only on the first horizontal coordinate: the average at
    # the origin is the circle mean of f(-t cos a), computable directly.
    s = standard_heisenberg(1)
    big = 10.0 * np.ones(3)
    f = ScalarField(lambda pts: pts[:, 0] ** 2, -big, big)
    rule = sphere_rule(1, 512)
    t = 1.7
    got = average_at(s, f, t, np.zeros(2), np.zeros(1), rule)
    assert got == pytest.approx(t ** 2 / 2.0, abs=1e-10)


def test_average_rotation_covariance():
    # Rotations by grid angles commute with the standard twist when Lambda=0.
    s = standard_heisenberg(1)
    rng = np.random.default_rng(9)
    res = 64
    rule = sphere_rule(1, res)
    k = 5
    ang = 2 * np.pi * k / res
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])

    def ev(pts):
        return np.exp(-np.sum(pts ** 2, axis=1))

    big = 50.0 * np.ones(3)
    f = ScalarField(ev, -big, big)

    def ev_rot(pts):
        rot = pts.copy()
        rot[:, :2] = pts[:, :2] @ R  # apply R^T to the horizontal block
        return ev(rot)

    f_rot = ScalarField(ev_rot, -big, big)
    for _ in range(10):
        ub = rng.uniform(-1, 1, 2)
        bar = rng.uniform(-1, 1, 1)
        t = float(rng.uniform(1.0, 2.0))
        a = average_at(s, f, t, ub, bar, rule)
        b = average_at(s, f_rot, t, R @ ub, bar, rule)
        assert abs(a - b) <= 1e-10


def test_average_batch_chunk_invariance(monkeypatch):
    s = standard_heisenberg(2)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, (37, 5))
    t = rng.uniform(1.0, 2.0, 37)
    rule = sphere_rule(2, 8)
    big = 50.0 * np.ones(5)
    f = ScalarField(lambda p: np.cos(p @ np.arange(1.0, 6.0)), -big, big)
    monkeypatch.setattr(spheres, "CHUNK_WORK", 200000)
    a = spherical_average_batch(s, f, t, pts, rule)
    monkeypatch.setattr(spheres, "CHUNK_WORK", 7)
    b = spherical_average_batch(s, f, t, pts, rule)
    assert np.array_equal(a, b)


def test_average_batch_chunk_invariance_thin_support(monkeypatch):
    # a thin box culls most nodes, and the chunks then hold different
    # numbers of candidates
    s = standard_heisenberg(2)
    rng = np.random.default_rng(13)
    pts, t = near_sphere_points(s, 37, rng)
    rule = sphere_rule(2, (12, 10, 14))
    f = thin_bump(-0.3 * np.ones(5), 0.3 * np.ones(5))
    _, images = dense_average(s, f, t, pts, rule)
    inside = np.all(np.abs(images) <= 0.3, axis=1)
    assert 0.0 < inside.mean() < 0.1
    a = spherical_average_batch(s, f, t, pts, rule)
    assert np.count_nonzero(a) > 10
    for chunk in (1, 7, len(rule.weights) + 1, 5 * len(rule.weights)):
        monkeypatch.setattr(spheres, "CHUNK_WORK", chunk)
        b = spherical_average_batch(s, f, t, pts, rule)
        assert np.array_equal(a, b)


THIN_CASES = [
    # (structure, rule): the circle rule, the Gauss n=2 rule, the
    # anisotropic uniform-latitude rule of the knapp family, a tilted
    # structure, a two-dimensional center, and the circle rule with
    # unequal weights, which each a hit must carry as its own image
    (standard_heisenberg(1), sphere_rule(1, 512)),
    (standard_heisenberg(2), sphere_rule(2, 24)),
    (normalized_heisenberg(2), sphere_rule(2, (40, 24, 24), latitude="uniform")),
    (MetivierStructure(2, 1, normalized_heisenberg(2).J,
                       np.array([[0.3, -0.2, 0.1, 0.05]])), sphere_rule(2, 16)),
    (quaternionic_htype(1, 2), sphere_rule(2, (16, 20, 12))),
    (standard_heisenberg(1), reweighted(sphere_rule(1, 512), 34)),
]


def thin_fields(s):
    """A thin bump and a thin box indicator about the origin."""
    return (thin_bump(-0.25 * np.ones(s.d), 0.25 * np.ones(s.d)),
            box_indicator(np.r_[-0.3 * np.ones(2 * s.n), -0.1 * np.ones(s.m)],
                          np.r_[0.3 * np.ones(2 * s.n), 0.1 * np.ones(s.m)]))


@pytest.mark.parametrize("s,rule", THIN_CASES)
def test_culled_average_matches_dense(s, rule):
    rng = np.random.default_rng(31)
    pts, t = near_sphere_points(s, 40, rng)
    for field in thin_fields(s):
        want, images = dense_average(s, field, t, pts, rule)
        box = np.all((images >= field.support_lo)
                     & (images <= field.support_hi), axis=1)
        assert box.mean() < 0.1
        assert np.count_nonzero(want) >= 10
        got = spherical_average_batch(s, field, t, pts, rule)
        assert np.array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.array_equal(got, node_order_average(s, field, t, pts, rule))


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("s,rule", THIN_CASES)
def test_forced_paths_match_node_order_oracle(s, rule, path, monkeypatch):
    # the thin fields, and a bump whose box holds every sphere image
    monkeypatch.setattr(spheres, "WIDE_WINDOW_FRACTION", PATHS[path])
    monkeypatch.setattr(spheres, "CHUNK_WORK", 20000)
    pts, t = near_sphere_points(s, 40, np.random.default_rng(31))
    wide = thin_bump(-9.0 * np.ones(s.d), 9.0 * np.ones(s.d))
    for field in (*thin_fields(s), wide):
        got = spherical_average_batch(s, field, t, pts, rule)
        assert np.count_nonzero(got) >= 10
        assert np.array_equal(got, node_order_average(s, field, t, pts, rule))


def test_culled_average_random_node_rule():
    # random nodes, one latitude each: the (3000, 1, 1) product culls
    # node by node
    s = normalized_heisenberg(2)
    rng = np.random.default_rng(32)
    nodes = rng.standard_normal((3000, 4))
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    rule = factored_rule(nodes)
    assert rule.a.shape == (2, 3000, 1)
    pts, t = near_sphere_points(s, 25, rng)
    f = thin_bump(-0.3 * np.ones(5), 0.3 * np.ones(5))
    want, _ = dense_average(s, f, t, pts, rule)
    got = spherical_average_batch(s, f, t, pts, rule)
    assert np.count_nonzero(want) >= 5
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.array_equal(got, node_order_average(s, f, t, pts, rule))


STRUCTURES = [standard_heisenberg(1), standard_heisenberg(2),
              normalized_heisenberg(2),
              MetivierStructure(1, 1, standard_heisenberg(1).J,
                                np.array([[0.4, -0.3]]))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_culled_average_matches_dense_property(data):
    s = data.draw(st.sampled_from(STRUCTURES))
    if s.n == 1:
        rule = sphere_rule(1, data.draw(st.integers(4, 64)))
    else:
        counts = data.draw(st.tuples(*[st.integers(4, 8)] * 3))
        latitude = data.draw(st.sampled_from(["gauss", "uniform"]))
        rule = sphere_rule(2, counts, latitude=latitude)

    def vec(size, lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size,
                                           max_size=size)))

    center, half = vec(s.d, -2.0, 2.0), vec(s.d, 0.02, 1.0)
    f = thin_bump(center - half, center + half)
    # each point's sphere passes through a point y of the box at the
    # direction w, so the averages are not all zero
    count = data.draw(st.integers(1, 6))
    t = vec(count, 0.5, 2.5)
    pts = np.empty((count, s.d))
    for k in range(count):
        y = center + half * vec(s.d, -1.0, 1.0)
        w = vec(2 * s.n, -1.0, 1.0) + 1e-3
        w /= np.linalg.norm(w)
        ubar = y[:2 * s.n] + t[k] * w
        pts[k] = np.r_[ubar, y[2 * s.n:] + t[k] ** 2 * (s.Lambda @ w)
                       + t[k] * np.einsum("j,ijk,k->i", ubar, s.J, w)]
    want, _ = dense_average(s, f, t, pts, rule)
    # either path, or the one the work picks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spheres, "WIDE_WINDOW_FRACTION",
                   data.draw(st.sampled_from([spheres.WIDE_WINDOW_FRACTION,
                                              *PATHS.values()])))
        mp.setattr(spheres, "CHUNK_WORK", data.draw(st.integers(1, 2000)))
        got = spherical_average_batch(s, f, t, pts, rule)
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.array_equal(got, node_order_average(s, f, t, pts, rule))


def windows_of(s, f, t, pts, rule):
    """The (start, width) angle windows of the a factor."""
    return spheres._windows(pts[:, :2], np.broadcast_to(t, len(pts)),
                            rule.grids[0], rule.a.shape[2],
                            f.support_lo[:2], f.support_hi[:2])


def test_window_edge_cases():
    # each average is bitwise equal to the node-order oracle
    s = standard_heisenberg(1)
    rule = sphere_rule(1, 64)               # phase 0: node 0 at angle 0
    f = thin_bump([-0.3, -0.3, -5.0], [0.3, 0.3, 5.0])

    def check(t, pts, nonzero):
        pts = np.array(pts, dtype=float)
        got = spherical_average_batch(s, f, t, pts, rule)
        assert np.array_equal(got, node_order_average(s, f, t, pts, rule))
        assert np.array_equal(got != 0.0, nonzero)
        return windows_of(s, f, t, pts, rule)

    # the box lies at angle 0 seen from the center of each point's circle,
    # where the image of node 0 falls: the window wraps past 63 to 0
    start, width = check(1.0, [[1.0, 0.0, 0.0], [1.1, 0.05, 0.0]],
                         [True, True])
    assert np.all((start + width > 64) & (width < 64))
    # the box holds the circle's center: every node is in the window
    _, width = check(0.2, [[0.05, 0.0, 0.0]], [True])
    assert np.all(width == 64)
    # the circle misses the box, outside it or around it: no node
    _, width = check(1.0, [[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [False, False])
    assert np.all(width == 0)
    # t r_l below 1e-8, the center just inside and just outside the box
    start, width = check(5e-9, [[0.3 - 1e-9, 0.0, 0.0],
                                [0.3 + 1e-9, 0.0, 0.0]], [True, True])
    assert width[0] == 64 and 0 < width[1] < 64


def test_window_wraps_on_half_step_rule():
    # the half-step n=2 rule has nodes at pi/8 and -pi/8 next to the seam
    s = standard_heisenberg(2)
    rule = sphere_rule(2, (6, 8, 10))
    t = 1.0 / rule.grids[0][0][0]           # t r_0 = 1 on latitude 0
    f = thin_bump([-0.45, -0.45, -3.0, -3.0, -5.0],
                  [0.45, 0.45, 3.0, 3.0, 5.0])
    pts = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.02, 0.1, 0.0, 0.0]])
    start, width = windows_of(s, f, t, pts, rule)
    assert np.any((start + width > 8) & (width < 8))
    got = spherical_average_batch(s, f, t, pts, rule)
    assert np.all(got > 0.0)
    assert np.array_equal(got, node_order_average(s, f, t, pts, rule))


def test_average_rejects_bad_times_and_points():
    s = standard_heisenberg(1)
    rule = sphere_rule(1, 16)
    f = box_indicator(-np.ones(3), np.ones(3))
    pts = np.array([[0.2, 0.1, 0.0], [3.0, 0.0, 0.0]])
    for t in (np.nan, np.inf, -1.0, [1.0, np.nan]):
        with pytest.raises(DomainError, match="times"):
            spherical_average_batch(s, f, t, pts, rule)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="points"):
            spherical_average_batch(s, f, 1.0, np.array([[0.2, bad, 0.0]]),
                                    rule)
    # t = 0 is valid: every image is the point itself
    assert list(spherical_average_batch(s, f, 0.0, pts, rule)) == [1.0, 0.0]


def test_dimension_mismatch_raises():
    s = standard_heisenberg(2)
    rule = sphere_rule(2, 8)
    big = np.ones(5)
    f = ScalarField(lambda p: np.zeros(len(p)), -big, big)
    with pytest.raises(DimensionMismatch, match="point dimension"):
        spherical_average_batch(s, f, np.array([1.0]), np.zeros((1, 4)), rule)
    # a rule of the other sphere
    with pytest.raises(DimensionMismatch, match="sphere rule"):
        spherical_average_batch(s, f, 1.0, np.zeros((1, 5)), sphere_rule(1, 8))
    s1 = standard_heisenberg(1)
    with pytest.raises(DimensionMismatch, match="sphere rule"):
        spherical_average_batch(s1, box_indicator(-np.ones(3), np.ones(3)),
                                1.0, np.zeros((1, 3)), rule)


# --- maximal values ------------------------------------------------------

def test_maximal_constant_is_one():
    # every average of the constant field is one, whatever time each
    # point picks in [1, 2]
    s = standard_heisenberg(1)
    big = 100.0 * np.ones(3)
    f = ScalarField(lambda pts: np.ones(len(pts)), -big, big)
    rule = sphere_rule(1, 64)
    t = np.linspace(1.0, 2.0, 9)
    vals = spherical_average_batch(s, f, t, np.zeros((9, 3)), rule)
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_maximal_batch_matches_scalar():
    # per-point times in one batch give each point's single-row average
    s = standard_heisenberg(1)
    f = box_indicator(-0.5 * np.ones(3), 0.5 * np.ones(3))
    rule = sphere_rule(1, 64)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, (6, 3))
    t = rng.uniform(1.0, 2.0, 6)
    batch = spherical_average_batch(s, f, t, pts, rule)
    for i in range(6):
        assert batch[i] == average_at(s, f, t[i], pts[i, :2], pts[i, 2:],
                                      rule)


# --- scalar fields -------------------------------------------------------

def test_scalar_field_validation():
    with pytest.raises(DomainError):
        ScalarField(lambda p: np.zeros(len(p)), np.ones(2), -np.ones(2))
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError, match="finite"):
            ScalarField(lambda p: np.zeros(len(p)), -np.ones(2),
                        np.array([1.0, bad]))

