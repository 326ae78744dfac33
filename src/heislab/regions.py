"""Exact rational boundedness regions in the (1/p, 1/q) square.

Vertices are Fractions throughout; no floating point enters membership
decisions.  Regions carry per-mode vertex exclusions because strong-type
and restricted-weak-type conclusions differ exactly at corners.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Tuple

from .groups import DomainError


@dataclass(frozen=True)
class RatPoint:
    """Exact point (1/p, 1/q) in the unit square."""

    ip: Fraction
    iq: Fraction

    def __post_init__(self):
        ip = Fraction(self.ip)
        iq = Fraction(self.iq)
        if not (0 <= ip <= 1 and 0 <= iq <= 1):
            raise DomainError(f"point ({ip}, {iq}) outside the unit square")
        object.__setattr__(self, "ip", ip)
        object.__setattr__(self, "iq", iq)

    def as_pair(self):
        return (self.ip, self.iq)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Counterclockwise convex hull of exact rational pairs.

    Collinear points interior to an edge are dropped, so degenerate vertex
    lists (repeated or aligned corners) reduce to a simple polygon.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _labelled_hull(named):
    """Hull vertices of (label, RatPoint) pairs, and the label of each."""
    verts, labels = [], []
    for pair in convex_hull([p.as_pair() for _, p in named]):
        verts.append(RatPoint(*pair))
        labels.append(next(lab for lab, q in named if q.as_pair() == pair))
    return tuple(verts), tuple(labels)


@dataclass(frozen=True)
class Region:
    """Convex polygon with labeled vertices and per-mode corner exclusions.

    vertices are counterclockwise RatPoints.  excluded holds, per mode
    ("strong" or "rwt"), the labels of vertices that do not belong to the
    region in that mode; edge interiors are always included.
    """

    vertices: Tuple[RatPoint, ...]
    labels: Tuple[str, ...]
    excluded: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    flags: Tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.vertices) != len(self.labels):
            raise DomainError("one label per vertex required")
        k = len(self.vertices)
        if k >= 3:
            pairs = [v.as_pair() for v in self.vertices]
            for i in range(k):
                c = _cross(pairs[i], pairs[(i + 1) % k], pairs[(i + 2) % k])
                if c <= 0:
                    raise DomainError("vertices must be strictly convex ccw")
        for mode in self.excluded:
            if mode not in ("strong", "rwt"):
                raise DomainError(f"unknown closure mode {mode!r}")

    def vertex_label(self, pt: RatPoint):
        for v, lab in zip(self.vertices, self.labels):
            if v == pt:
                return lab
        return None


def contains(region: Region, pt: RatPoint, mode: str = "strong") -> str:
    """Exact membership classification.

    Returns one of "interior", "outside", "boundary-closed" (an edge
    interior, in either mode), "vertex-<label>", "vertex-<label>-excluded".
    """
    if mode not in ("strong", "rwt"):
        raise DomainError(f"unknown closure mode {mode!r}")
    p = pt.as_pair()
    pairs = [v.as_pair() for v in region.vertices]
    k = len(pairs)
    lab = region.vertex_label(pt)
    if lab is not None:
        if lab in region.excluded.get(mode, frozenset()):
            return f"vertex-{lab}-excluded"
        return f"vertex-{lab}"
    on_edge = False
    for i in range(k):
        a, b = pairs[i], pairs[(i + 1) % k]
        c = _cross(a, b, p)
        if c < 0:
            return "outside"
        if c == 0:
            within = (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                      and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
            if within:
                on_edge = True
            else:
                return "outside"
    if on_edge:
        # Edge interiors are included in every mode; only corners differ.
        return "boundary-closed"
    return "interior"


def maximal_region(n: int, m: int) -> Region:
    """Sharp local maximal-operator region: the quadrilateral Q1 Q4 Q3 Q2.

    Strong-type bounds hold on the interior, on all edge interiors, and at
    the corner Q1 only; the corners Q2, Q3, Q4 carry restricted weak type.
    For n = 1 the quadrilateral degenerates (Q2 = Q3) and the hull drops
    the repeated corner.
    """
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    d = 2 * n + m
    D = d * (d - 1) + (d + 1) * (m + 1)
    named = [
        ("Q1", RatPoint(Fraction(0), Fraction(0))),
        ("Q2", RatPoint(Fraction(d - m - 1, d - m), Fraction(d - m - 1, d - m))),
        ("Q3", RatPoint(Fraction(d - 1, d + m), Fraction(m + 1, d + m))),
        ("Q4", RatPoint(Fraction(d * (d - 1), D), Fraction((m + 1) * (d - 1), D))),
    ]
    verts, labels = _labelled_hull(named)
    flags = () if n >= 2 else ("outside-theorem-scope-n1",)
    excluded = {
        "strong": frozenset(lab for lab in labels if lab != "Q1"),
        "rwt": frozenset(),
    }
    return Region(verts, labels, excluded, flags)


def averaging_region(n: int, m: int) -> Region:
    """Sharp fixed-time averaging region.

    Triangle (0,0), (1,1), P3 for m < 2n-2; the same triangle with the
    corner P3 excluded and flagged when m = 2n-2; for m = 2n-1 the
    five-point hull, which collapses to a trapezoid when m = 1.
    """
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    if m > 2 * n - 1:
        raise DomainError("center dimension too large for the sphere codimension")
    P1 = ("P1", RatPoint(Fraction(0), Fraction(0)))
    P2 = ("P2", RatPoint(Fraction(1), Fraction(1)))
    if m <= 2 * n - 2:
        P3 = ("P3", RatPoint(Fraction(2 * n + m, 2 * n + 2 * m + 1),
                             Fraction(m + 1, 2 * n + 2 * m + 1)))
        named = [P1, P3, P2]
        flags = ()
        excl = frozenset()
        if m == 2 * n - 2:
            flags = ("open-question-at-P3",)
            excl = frozenset({"P3"})
        verts = tuple(p for _, p in named)
        labels = tuple(lab for lab, _ in named)
        return Region(verts, labels, {"strong": excl, "rwt": excl}, flags)
    # m = 2n - 1: five candidate corners, hull drops any collinear middle.
    named = [
        P1, P2,
        ("P3", RatPoint(Fraction(4 * m * m + 3 * m + 1, 6 * m * m + 5 * m + 1),
                        Fraction(m + 1, 3 * m + 1))),
        ("P4", RatPoint(Fraction(6 * m + 1, 9 * m + 3),
                        Fraction(3 * m + 2, 9 * m + 3))),
        ("P5", RatPoint(Fraction(2 * m, 3 * m + 1),
                        Fraction(2 * m * m + 2 * m, 6 * m * m + 5 * m + 1))),
    ]
    verts, labels = _labelled_hull(named)
    flags = () if m == 1 else ("sharpness-unknown",)
    return Region(verts, labels,
                  {"strong": frozenset(), "rwt": frozenset()}, flags)


def bourgain_vertex(ip0, iq0, a0, ip1, iq1, a1) -> RatPoint:
    """Crossover point of two exponent branches with rates a0, a1 > 0.

    Returns (1-theta)(ip0, iq0) + theta(ip1, iq1) with
    theta = a0/(a0+a1), all exact.
    """
    a0, a1 = Fraction(a0), Fraction(a1)
    if a0 + a1 == 0:
        raise DomainError("rates must not cancel")
    if a0 <= 0 or a1 <= 0:
        raise DomainError("rates must be positive")
    th = a0 / (a0 + a1)
    ip = (1 - th) * Fraction(ip0) + th * Fraction(ip1)
    iq = (1 - th) * Fraction(iq0) + th * Fraction(iq1)
    return RatPoint(ip, iq)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def export_region(region: Region, fmt: str = "csv") -> bytes:
    """Serialize a region to CSV (exact rationals) or SVG (unit square)."""
    if fmt == "csv":
        lines = ["# schema=1"]
        for f in region.flags:
            lines.append(f"# flag={f}")
        lines.append("label,ip,iq,excluded_strong,excluded_rwt")
        for v, lab in zip(region.vertices, region.labels):
            es = int(lab in region.excluded.get("strong", frozenset()))
            er = int(lab in region.excluded.get("rwt", frozenset()))
            lines.append(f"{lab},{_frac_str(v.ip)},{_frac_str(v.iq)},{es},{er}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "svg":
        size = 400
        margin = 40
        scale = size - 2 * margin

        def sx(x):
            return margin + float(x) * scale

        def sy(y):
            return size - margin - float(y) * scale

        pts = " ".join(f"{sx(v.ip):.3f},{sy(v.iq):.3f}" for v in region.vertices)
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
            f'<rect x="{margin}" y="{margin}" width="{scale}" height="{scale}" '
            'fill="none" stroke="black" stroke-width="1"/>',
            f'<polygon points="{pts}" fill="lightsteelblue" stroke="navy" '
            'stroke-width="1.5"/>',
        ]
        for v, lab in zip(region.vertices, region.labels):
            parts.append(f'<circle cx="{sx(v.ip):.3f}" cy="{sy(v.iq):.3f}" r="3"/>')
            parts.append(f'<text x="{sx(v.ip)+6:.3f}" y="{sy(v.iq)-6:.3f}" '
                         f'font-size="12">{lab} ({_frac_str(v.ip)},'
                         f'{_frac_str(v.iq)})</text>')
        parts.append('<text x="200" y="395" font-size="12">1/p</text>')
        parts.append('<text x="8" y="200" font-size="12">1/q</text>')
        parts.append("</svg>")
        return "\n".join(parts).encode()
    raise DomainError(f"unknown export format {fmt!r}")

