"""Phase gradients, rank certificates, curvature, and fold structure."""

import numpy as np
import pytest

from heislab.groups import (DomainError, MetivierStructure,
                            quaternionic_htype, standard_heisenberg)
from heislab.phase import (C_SLACK, ChartError, CurvatureReport, _rank,
                           c_lower_bound, c_value, certify_point,
                           curvature_matrix, sample_chart_point,
                           sigma_value, xi_y, y2n_on_fold)
from oracles import (curvature_block_form, defining_functions,
                     det_identity_rhs, fold_cone_block_form,
                     fold_cone_curvature, fold_point, fold_transversality,
                     normal_vector, phi, xi)


# --- defining functions and phase ----------------------------------------

def test_defining_functions_at_chart_center():
    s = standard_heisenberg(2)
    x = np.zeros(5)
    x[3] = 0.7      # x_{2n} slot
    yp = np.zeros(3)
    S2n, Sbar = defining_functions(s, x, 1.0, yp)
    # w = 0, g = 1: S^{2n} = x_{2n} - t
    assert S2n == pytest.approx(0.7 - 1.0, abs=1e-14)
    assert Sbar.shape == (1,)


def test_defining_functions_graph_height():
    # S^{2n} is the height defect over the hemisphere graph: x_{2n} minus
    # t g((x'-y')/t), computed here from scratch.
    s = standard_heisenberg(2)
    rng = np.random.default_rng(77)
    for _ in range(50):
        x, t, y = sample_chart_point(s, rng)
        yp = y[:3]
        w = (x[:3] - yp) / t
        g = float(np.sqrt(1.0 - w @ w))
        S2n, Sbar = defining_functions(s, x, t, yp)
        assert S2n == pytest.approx(x[3] - t * g, abs=1e-12)
        assert Sbar.shape == (1,)
        dS = (defining_functions(s, x, t + 1e-7, yp)[0]
              - defining_functions(s, x, t - 1e-7, yp)[0]) / 2e-7
        # d S^{2n} / d x_{2n} = 1 exactly; d/dt follows the chain rule
        xb = np.array(x); xb[3] += 0.3
        assert defining_functions(s, xb, t, yp)[0] == pytest.approx(
            S2n + 0.3, abs=1e-13)
        assert dS == pytest.approx(-g - (w @ w) / g, abs=1e-5)


def test_defining_functions_center_vanishing_twist():
    # With ubar x = 0 and Lambda = 0 the twist term drops and Sbar equals
    # the center coordinates of x.
    s = standard_heisenberg(2)
    rng = np.random.default_rng(78)
    for _ in range(20):
        x = np.zeros(5)
        x[4] = rng.uniform(-1, 1)
        yp = 0.05 * rng.standard_normal(3)
        _, Sbar = defining_functions(s, x, 1.5, yp)
        assert Sbar[0] == pytest.approx(x[4], abs=1e-14)


def test_phase_linear_in_fiber():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(4)
    x, t, y = sample_chart_point(s, rng)
    y2 = np.array(y)
    y2[3:] *= 2.0   # double (y_{2n}, ybar), keep y'
    assert phi(s, x, t, y2) == pytest.approx(2.0 * phi(s, x, t, y),
                                              rel=1e-12)


def test_chart_error_outside_hemisphere():
    # |x' - y'| >= t leaves the chart, on the boundary sphere included
    s = standard_heisenberg(2)
    y = np.array([0.0, 0.0, 0.0, 0.3, 1.0])
    for xprime, t in (([2.0, 0.0, 0.0], 1.0), ([0.0, 1.5, 0.0], 1.5)):
        x = np.zeros(5)
        x[:3] = xprime
        with pytest.raises(ChartError):
            defining_functions(s, x, t, y[:3])
        for quantity in (xi, xi_y, det_identity_rhs, certify_point):
            with pytest.raises(ChartError):
                quantity(s, x, t, y)


# --- gradients against finite differences --------------------------------

def test_xi_matches_finite_differences():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(100):
        x, t, y = sample_chart_point(s, rng)
        grad = xi(s, x, t, y)
        for j in range(s.d):
            xp = np.array(x); xp[j] += h
            xm = np.array(x); xm[j] -= h
            fd = (phi(s, xp, t, y) - phi(s, xm, t, y)) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6
        fd_t = (phi(s, x, t + h, y) - phi(s, x, t - h, y)) / (2 * h)
        assert abs(grad[s.d] - fd_t) <= 1e-6


def test_xi_y_matches_jacobian_of_xi():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(25):
        x, t, y = sample_chart_point(s, rng)
        cols = xi_y(s, x, t, y)
        for j in range(s.d):
            yp = np.array(y); yp[j] += h
            ym = np.array(y); ym[j] -= h
            fd = (xi(s, x, t, yp) - xi(s, x, t, ym)) / (2 * h)
            assert np.max(np.abs(cols[:, j] - fd)) <= 1e-5


# --- sigma and the fold locus --------------------------------------------

def test_sigma_reduces_to_y2n_at_special_point():
    s = standard_heisenberg(2)
    x = np.zeros(5)
    x[3] = 1.0      # ubar x = e_{2n}; e^T J e = 0 by skew-symmetry
    y = np.array([0.0, 0.0, 0.0, 0.37, 1.2])
    assert sigma_value(s, x, 1.3, y) == pytest.approx(0.37, abs=1e-14)


def test_sigma_linearity_in_fiber():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(6)
    x, t, y = sample_chart_point(s, rng)
    ya = np.array(y); yb = np.array(y)
    ya[3:] *= 2.0
    yb[3:] *= 3.0
    sa, sb, s1 = (sigma_value(s, x, t, z) for z in (ya, yb, y))
    assert sa == pytest.approx(2.0 * s1, rel=1e-12)
    assert sb == pytest.approx(3.0 * s1, rel=1e-12)


def test_y2n_on_fold_solves_sigma():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(13)
    for _ in range(30):
        x, t, y = sample_chart_point(s, rng, on_fold=True)
        assert abs(sigma_value(s, x, t, y)) <= 1e-12


def test_fold_draw_matches_xprime():
    # a fold point is the generic draw of the same seed with x' set to y'
    # and y_2n solved from sigma = 0: the same random numbers, bitwise
    for s in (standard_heisenberg(1), standard_heisenberg(2),
              quaternionic_htype(1, 3)):
        k = 2 * s.n - 1
        for seed in range(20):
            x, t, y = sample_chart_point(s, np.random.default_rng(seed),
                                         on_fold=True)
            xg, tg, yg = sample_chart_point(s, np.random.default_rng(seed))
            assert x[:k].tobytes() == y[:k].tobytes()
            assert t == tg
            assert x[k:].tobytes() == xg[k:].tobytes()
            assert y[:k].tobytes() == yg[:k].tobytes()
            assert y[k + 1:].tobytes() == yg[k + 1:].tobytes()
            assert y[k] == y2n_on_fold(s, x, t, y[k + 1:])


# --- rank certificates ---------------------------------------------------

def test_full_rank_away_from_fold():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(29)
    count = 0
    while count < 100:
        x, t, y = sample_chart_point(s, rng)
        if abs(sigma_value(s, x, t, y)) <= 0.1:
            continue
        count += 1
        rep = certify_point(s, x, t, y)
        assert rep.rank_xi == s.d
        assert rep.rank_spatial == s.d
        assert not rep.deviates


def test_rank_drop_on_fold():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(37)
    for _ in range(50):
        x, t, y = sample_chart_point(s, rng, on_fold=True)
        rep = certify_point(s, x, t, y, on_fold=True)
        assert rep.rank_xi == s.d
        assert rep.rank_spatial == s.d - 1
        assert rep.rank_curv == s.d - 1
        assert not rep.deviates


def test_generic_point_certified_as_fold_deviates():
    # off the fold the spatial block keeps rank d, which a fold point
    # must not
    s = standard_heisenberg(2)
    rng = np.random.default_rng(41)
    x, t, y = sample_chart_point(s, rng)
    y[3] += 0.5 if sigma_value(s, x, t, y) >= 0 else -0.5
    rep = certify_point(s, x, t, y, on_fold=True)
    assert rep.rank_xi == s.d and rep.rank_spatial == s.d
    assert rep.deviates
    assert not certify_point(s, x, t, y).deviates


FOLD_REPORT = dict(x=np.zeros(5), t=1.0, y=np.zeros(5), sigma=0.0,
                   on_fold=True, rank_xi=5, rank_spatial=4, rank_curv=4,
                   c_value=-0.5, c_bound=0.5)


@pytest.mark.parametrize("changes, deviates", [
    ({}, False),
    ({"rank_xi": 4, "rank_curv": None, "c_value": None, "c_bound": None},
     True),
    ({"on_fold": False, "rank_xi": 4, "rank_curv": None, "c_value": None,
      "c_bound": None}, True),
    ({"on_fold": False, "rank_spatial": 5, "rank_curv": None,
      "c_value": None, "c_bound": None}, False),
    ({"rank_spatial": 5}, True),
    ({"rank_curv": 3}, True),
    ({"c_bound": 0.5 + 2 * C_SLACK}, True),
    ({"c_bound": 0.5 + C_SLACK / 2}, False),
], ids=["fold-point", "rank_xi", "generic-rank_xi", "generic-point",
        "rank_spatial", "rank_curv", "c-below-floor", "c-inside-slack"])
def test_report_deviates(changes, deviates):
    # the one verdict rule that the geometry command counts
    assert CurvatureReport(**{**FOLD_REPORT, **changes}).deviates is deviates


def test_det_identity():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(43)
    for _ in range(50):
        x, t, y = sample_chart_point(s, rng)
        lhs = float(np.linalg.det(xi_y(s, x, t, y)[:-1]))
        rhs = det_identity_rhs(s, x, t, y)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale <= 1e-8
    for _ in range(50):
        x, t, y = sample_chart_point(s, rng, on_fold=True)
        lhs = float(np.linalg.det(xi_y(s, x, t, y)[:-1]))
        assert abs(lhs) <= 1e-10
        assert abs(det_identity_rhs(s, x, t, y)) <= 1e-10


def test_rank_thresholds():
    sv = np.linalg.svd(np.diag([1.0, 1e-3, 1e-12]), compute_uv=False)
    assert sv[0] == 1.0
    assert _rank(sv) == 2
    # the one cutoff is 1e-7 relative to the largest singular value
    assert _rank(np.array([4.0, 4.1e-7, 3.9e-7])) == 2
    assert _rank(np.zeros(3)) == 0


# --- normal and curvature ------------------------------------------------

def test_normal_is_orthogonal_unit():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(47)
    for _ in range(30):
        x, t, y = sample_chart_point(s, rng)
        N = normal_vector(s, x, t, y)
        assert np.linalg.norm(N) == pytest.approx(1.0, abs=1e-12)
        res = N @ xi_y(s, x, t, y)
        assert np.max(np.abs(res)) <= 1e-10
        assert N[3] >= 0.0


def test_curvature_matches_block_form_at_matched_points():
    # the differences of the analytic xi_y are exact to rounding (at most
    # 1.1e-12 off here; the fiber slots' unit differences are exact).  The
    # tilt has a nonzero e_{2n} entry, which enters c and the rows of A.
    h2 = standard_heisenberg(2)
    tilted = MetivierStructure(2, 1, h2.J, np.array([[0.1, 0.05, 0.0, 0.2]]))
    for s in (h2, quaternionic_htype(1, 3), tilted):
        rng = np.random.default_rng(53)
        for _ in range(15):
            x, t, y = sample_chart_point(s, rng, on_fold=True)
            N = normal_vector(s, x, t, y)
            C_fd, rank = curvature_matrix(s, x, t, y, N)
            C_an = curvature_block_form(s, x, t, y, N)
            assert np.max(np.abs(C_fd - C_an)) <= 1e-9
            assert rank == s.d - 1


def test_xi_y_is_affine_in_the_fiber_slots():
    # curvature_matrix differences the slots (y_2n, ybar) once with a unit
    # step, which is exact because Xi_y is affine in them; along a chart
    # slot y' the same check fails, so it can tell affine from curved
    h2 = standard_heisenberg(2)
    tilted = MetivierStructure(2, 1, h2.J, np.array([[0.1, 0.05, 0.0, 0.2]]))

    def defect(s, x, t, y, l, a, step):
        base = xi_y(s, x, t, y)
        e = np.zeros(s.d)
        e[l] = step
        dev = xi_y(s, x, t, y + a * e) - base - a * (xi_y(s, x, t, y + e)
                                                     - base)
        return np.max(np.abs(dev)) / np.max(np.abs(base))

    for s in (h2, quaternionic_htype(1, 3), tilted):
        rng = np.random.default_rng(53)
        k = 2 * s.n - 1
        for _ in range(15):
            x, t, y = sample_chart_point(s, rng, on_fold=True)
            for a in (-2.0, 0.5):
                for l in range(k, s.d):
                    assert defect(s, x, t, y, l, a, 1.0) <= 1e-12
            for l in range(k):
                assert max(defect(s, x, t, y, l, a, 0.01)
                           for a in (-2.0, 0.5)) >= 1e-6


def test_c_value_lower_bound_matched_frame():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(59)
    for on_fold in (False, True):
        for _ in range(40):
            x, t, y = sample_chart_point(s, rng, on_fold=on_fold)
            x[:3] = y[:3]       # the matched frame x' = y'
            N = normal_vector(s, x, t, y)
            c = c_value(s, x, t, y, N)
            bound = c_lower_bound(s, t, y, N)
            assert bound >= 0.0
            assert abs(c) >= bound - C_SLACK


def test_c_bound_uses_margin():
    # for the h-type structure the margin is 1, so the floor is visibly
    # larger than the standard one at comparable normals
    s = quaternionic_htype(1, 3)
    rng = np.random.default_rng(61)
    x, t, y = sample_chart_point(s, rng)
    two_n = 2 * s.n
    x[: two_n - 1] = y[: two_n - 1]     # the matched frame x' = y'
    N = normal_vector(s, x, t, y)
    bound = c_lower_bound(s, t, y, N)
    r = np.linalg.norm(y[two_n:])
    expected = np.linalg.norm(N[:two_n]) * r * 1.0 / t
    assert bound == pytest.approx(expected, rel=1e-10)


# --- fold cone -----------------------------------------------------------

def test_fold_cone_rank_and_block_form():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(67)
    for _ in range(15):
        x, t, y = sample_chart_point(s, rng, on_fold=True)
        yp, ybar = y[:3], y[4:]
        rank, sv, nu = fold_cone_curvature(s, x, t, yp, ybar)
        assert rank == s.d - 2
        # radial flatness: the smallest singular value sits at noise level
        assert sv[-1] <= 1e-5 * sv[0]
        C_an, gamma = fold_cone_block_form(s, x, t, y, nu)
        assert abs(gamma) > 1e-6


def test_fold_transversality_two_sided():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(71)
    for _ in range(50):
        x, t, y = sample_chart_point(s, rng, on_fold=True)
        left, right, b, a = fold_transversality(s, x, t, y)
        assert abs(left) > 1e-6
        assert abs(right) > 1e-6
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_fold_transversality_rejects_generic_point():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(73)
    x, t, y = sample_chart_point(s, rng)
    if abs(sigma_value(s, x, t, y)) < 0.1:
        y[3] += 0.5
    with pytest.raises(DomainError):
        fold_transversality(s, x, t, y)


def test_fold_point_assembly():
    s = standard_heisenberg(2)
    rng = np.random.default_rng(79)
    x, t, _ = sample_chart_point(s, rng)
    yp = np.array([0.01, -0.02, 0.03])
    ybar = np.array([0.8])
    y = fold_point(s, x, t, yp, ybar)
    assert np.array_equal(y[:3], yp)
    assert np.array_equal(y[4:], ybar)
    assert y[3] == y2n_on_fold(s, x, t, ybar)

