"""Exact rational regions, hulls, membership, and serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heislab.groups import DomainError
from heislab.regions import (RatPoint, Region, averaging_region,
                             bourgain_vertex, contains, convex_hull,
                             export_region, maximal_region)
from oracles import is_member, parse_region_csv

F = Fraction


# --- hull and region basics ----------------------------------------------

def test_convex_hull_square_ccw():
    pts = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)),
           (F(1, 2), F(1, 2))]
    hull = convex_hull(pts)
    assert hull == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]


def test_convex_hull_drops_collinear_and_duplicates():
    pts = [(F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1)), (F(1), F(0)),
           (F(0), F(0))]
    hull = convex_hull(pts)
    assert hull == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1))]


def test_ratpoint_validation():
    with pytest.raises(DomainError):
        RatPoint(F(3, 2), F(0))
    with pytest.raises(DomainError):
        RatPoint(F(0), F(-1, 2))


def test_region_requires_strict_convexity():
    sq = tuple(RatPoint(*p) for p in
               [(0, 0), (1, 0), (F(1, 2), F(1, 2)), (1, 1)])
    with pytest.raises(DomainError):
        Region(sq, ("a", "b", "c", "d"))
    with pytest.raises(DomainError):
        Region((RatPoint(0, 0),), ("a", "b"))


# --- maximal region ------------------------------------------------------

def test_maximal_region_h2_vertices():
    reg = maximal_region(2, 1)
    got = {lab: (v.ip, v.iq) for lab, v in zip(reg.labels, reg.vertices)}
    assert got == {
        "Q1": (F(0), F(0)),
        "Q2": (F(3, 4), F(3, 4)),
        "Q3": (F(2, 3), F(1, 3)),
        "Q4": (F(5, 8), F(1, 4)),
    }
    # counterclockwise order starting from the origin
    assert reg.labels == ("Q1", "Q4", "Q3", "Q2")
    assert reg.excluded["strong"] == frozenset({"Q2", "Q3", "Q4"})
    assert reg.excluded["rwt"] == frozenset()
    assert reg.flags == ()


def heisenberg_vertices(n):
    """Vertex formulas written directly in n for the m=1 case."""
    return {
        "Q1": (F(0), F(0)),
        "Q2": (F(2 * n - 1, 2 * n), F(2 * n - 1, 2 * n)),
        "Q3": (F(n, n + 1), F(1, n + 1)),
        "Q4": (F(2 * n * n + n, 2 * n * n + 3 * n + 2),
               F(2 * n, 2 * n * n + 3 * n + 2)),
    }


def test_maximal_region_dimensional_form_matches_n_form():
    # the general (d, m) vertex formulas must reduce to the n-only ones
    # when m = 1 and d = 2n + 1
    for n in range(2, 7):
        reg = maximal_region(n, 1)
        got = {lab: (v.ip, v.iq) for lab, v in zip(reg.labels, reg.vertices)}
        assert got == heisenberg_vertices(n)


def test_maximal_region_n1_degenerates():
    reg = maximal_region(1, 1)
    assert "outside-theorem-scope-n1" in reg.flags
    # Q2 = Q3 = (1/2, 1/2): the hull keeps three distinct corners
    assert len(reg.vertices) == 3
    pairs = {v.as_pair() for v in reg.vertices}
    assert (F(1, 2), F(1, 2)) in pairs


def test_maximal_region_membership_modes():
    reg = maximal_region(2, 1)
    q1 = RatPoint(F(0), F(0))
    q2 = RatPoint(F(3, 4), F(3, 4))
    assert contains(reg, q1) == "vertex-Q1"
    assert contains(reg, q2) == "vertex-Q2-excluded"
    assert contains(reg, q2, mode="rwt") == "vertex-Q2"
    assert is_member(reg, q2, mode="rwt")
    assert not is_member(reg, q2, mode="strong")
    # midpoint of Q1 Q3 is interior
    mid = RatPoint(F(1, 3), F(1, 6))
    assert contains(reg, mid) == "interior"
    assert contains(reg, RatPoint(F(9, 10), F(1, 10))) == "outside"
    # edge interior on the diagonal Q1 Q2 is included in both modes
    edge = RatPoint(F(1, 2), F(1, 2))
    assert contains(reg, edge) == "boundary-closed"
    assert is_member(reg, edge, mode="strong")
    with pytest.raises(DomainError):
        contains(reg, q1, mode="weak")


# --- averaging region ----------------------------------------------------

def test_averaging_region_trapezoid():
    reg = averaging_region(1, 1)
    pairs = {v.as_pair() for v in reg.vertices}
    assert pairs == {(F(0), F(0)), (F(1), F(1)),
                     (F(2, 3), F(1, 2)), (F(1, 2), F(1, 3))}
    assert len(reg.vertices) == 4
    assert reg.flags == ()
    assert reg.excluded["strong"] == frozenset()


def test_averaging_region_triangle_and_open_corner():
    reg = averaging_region(3, 2)     # m < 2n - 2: closed triangle
    assert len(reg.vertices) == 3
    p3 = RatPoint(F(8, 11), F(3, 11))
    assert contains(reg, p3).startswith("vertex-P3")
    assert is_member(reg, p3)
    reg2 = averaging_region(2, 2)    # m = 2n - 2: corner excluded
    assert "open-question-at-P3" in reg2.flags
    p3b = RatPoint(F(6, 9), F(3, 9))
    assert contains(reg2, p3b) == "vertex-P3-excluded"
    assert not is_member(reg2, p3b)


def test_averaging_region_pentagon_flag():
    reg = averaging_region(2, 3)     # m = 2n - 1
    assert "sharpness-unknown" in reg.flags
    assert len(reg.vertices) >= 4
    for v in reg.vertices:
        assert 0 <= v.ip <= 1 and 0 <= v.iq <= 1


def test_averaging_region_validation():
    with pytest.raises(DomainError):
        averaging_region(1, 2)


# --- bourgain vertex -----------------------------------------------------

def test_bourgain_equal_rates_midpoint():
    pt = bourgain_vertex(F(0), F(0), 1, F(1), F(1), 1)
    assert pt.as_pair() == (F(1, 2), F(1, 2))


def test_bourgain_reproduces_q4():
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            d = 2 * n + m
            D = d * (d - 1) + (d + 1) * (m + 1)
            reg = maximal_region(n, m)
            q4 = dict(zip(reg.labels, reg.vertices))["Q4"]
            assert q4.as_pair() == (F(d * (d - 1), D),
                                    F((m + 1) * (d - 1), D))
            got = bourgain_vertex(
                F(1), F(0), m + 1,
                F(1, 2), F(d - 1, 2 * (d + 1)),
                F(d * (d - 1), 2 * (d + 1)) - F(m + 1, 2))
            assert got.as_pair() == q4.as_pair()


def test_bourgain_reproduces_q2():
    for n in (2, 3, 4):
        for m in (1, 2):
            d = 2 * n + m
            reg = maximal_region(n, m)
            q2 = dict(zip(reg.labels, reg.vertices))["Q2"]
            got = bourgain_vertex(F(1), F(1), 1,
                                  F(1, 2), F(1, 2), F(d - m - 2, 2))
            assert got.as_pair() == q2.as_pair()


def test_bourgain_validation():
    with pytest.raises(DomainError):
        bourgain_vertex(F(0), F(0), 1, F(1), F(1), -1)
    with pytest.raises(DomainError):
        bourgain_vertex(F(0), F(0), 0, F(1), F(1), 0)


# --- serialization -------------------------------------------------------

def all_regions():
    """maximal_region and averaging_region for n <= 4, m <= 3, where defined."""
    regions = []
    for n in range(1, 5):
        for m in range(1, 4):
            regions.append(maximal_region(n, m))
            if m <= 2 * n - 1:
                regions.append(averaging_region(n, m))
    return regions


def test_csv_round_trip():
    regions = all_regions()
    assert len(regions) == 22
    for reg in regions:
        data = export_region(reg, "csv")
        back = parse_region_csv(data)
        assert back == reg


def test_csv_rationals_and_flags():
    data = export_region(maximal_region(2, 1), "csv").decode()
    lines = data.strip().split("\n")
    assert lines[0] == "# schema=1"
    assert "label,ip,iq,excluded_strong,excluded_rwt" in lines
    assert "Q2,3/4,3/4,1,0" in lines
    assert "Q4,5/8,1/4,1,0" in lines
    flagged = export_region(maximal_region(1, 1), "csv").decode()
    assert "# flag=outside-theorem-scope-n1" in flagged


def test_svg_export_well_formed():
    svg = export_region(maximal_region(2, 1), "svg").decode()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 4
    assert "Q3 (2/3,1/3)" in svg
    # degenerate hull still yields a simple polygon
    svg1 = export_region(maximal_region(1, 1), "svg").decode()
    assert svg1.count("<circle") == 3


def test_export_unknown_format():
    with pytest.raises(DomainError):
        export_region(maximal_region(2, 1), "png")


# --- exact membership against a float polygon test ------------------------

def _float_inside(pairs, x, y):
    """Crossing-number point-in-polygon test in floating point."""
    inside = False
    k = len(pairs)
    for i in range(k):
        (ax, ay), (bx, by) = pairs[i], pairs[(i + 1) % k]
        if (ay > y) != (by > y):
            if x < ax + (y - ay) * (bx - ax) / (by - ay):
                inside = not inside
    return inside


def _edge_distance(pairs, x, y):
    dist = float("inf")
    k = len(pairs)
    for i in range(k):
        (ax, ay), (bx, by) = pairs[i], pairs[(i + 1) % k]
        ex, ey = bx - ax, by - ay
        lam = min(1.0, max(0.0, ((x - ax) * ex + (y - ay) * ey)
                           / (ex * ex + ey * ey)))
        dist = min(dist, math.hypot(x - ax - lam * ex, y - ay - lam * ey))
    return dist


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(all_regions()), UNIT, UNIT,
       st.sampled_from(["strong", "rwt"]))
def test_is_member_matches_float_polygon(reg, ip, iq, mode):
    pairs = [(float(v.ip), float(v.iq)) for v in reg.vertices]
    x, y = float(ip), float(iq)
    assume(_edge_distance(pairs, x, y) >= 1e-9)
    assert is_member(reg, RatPoint(ip, iq), mode) == _float_inside(pairs, x, y)
