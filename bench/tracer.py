"""Spans around calls into heislab, for the traced run only.

The tracer replaces module and class attributes of heislab with wrappers
that record a span per call: name, label, parent span, start, end and a few
counts.  Spans stay in memory until the worker writes them out.  A hooked
name that no longer exists is recorded as absent, so later refactors that
delete or rename a function do not break the traced run.
"""

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Span:
    name: str
    label: str
    parent: int                 # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    child_s: float = 0.0        # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _images(args, kwargs, result):
    # spherical_average_batch(s, f, t, pts, rule): one image per point and node
    pts, rule = args[3], args[4]
    return {"images": len(pts) * len(rule.weights)}


def _field(args, kwargs, result):
    return {"points": len(result), "hits": int((result != 0).sum())}


def _region(args, kwargs, result):
    return {"points": len(result[0])}


def _bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _role(region, values_fn, *rest, **kwargs):
    # ParamRegion.lq_norm integrates the input field for the denominator and
    # the maximal function (a plain callable) for the numerator
    return "field" if type(values_fn).__name__ == "ScalarField" else "test"


def _rung(s, inst, *rest, **kwargs):
    return f"{inst.family} delta={inst.delta!r}"


def _command(argv, *rest, **kwargs):
    return argv[0]


# (module[:class], attribute, span name, label function, count function)
HOOKS = [
    ("heislab.spheres", "spherical_average_batch", "spheres.average", None, _images),
    ("heislab.spheres:ScalarField", "__call__", "spheres.field", None, _field),
    ("heislab.families", "sphere_rule", "spheres.rule", None, None),
    ("heislab.spheres", "lp_norm", "spheres.lp_norm", None, None),
    ("heislab.families:ParamRegion", "lq_norm", "families.lq_norm", _role, None),
    ("heislab.families:ParamRegion", "points_and_weights", "families.region",
     None, _region),
    ("heislab.spheres:TimeSelector", "times", "families.selector", None, None),
    ("heislab.families", "fit_exponent", "families.fit", None, None),
    ("heislab.families", "operator_ratio", "families.rung", _rung, None),
    ("heislab.families", "ball_example", "families.instance", None, None),
    ("heislab.families", "scaling_example", "families.instance", None, None),
    ("heislab.families", "knapp_example", "families.instance", None, None),
    ("heislab.families", "moment_example", "families.instance", None, None),
    ("heislab.phase", "certify_point", "phase.certify", None, None),
    ("heislab.phase", "sample_chart_point", "phase.sample", None, None),
    ("heislab.phase", "curvature_matrix", "phase.curvature", None, None),
    ("heislab.groups", "group_multiply", "groups.multiply", None, None),
    ("heislab.groups", "smallness_margin", "groups.margin", None, None),
    ("heislab.regions", "maximal_region", "regions.build", None, None),
    ("heislab.regions", "averaging_region", "regions.build", None, None),
    ("heislab.regions", "export_region", "regions.export", None, _bytes),
    ("heislab.cli", "main", "cli.command", _command, None),
]


def _owner(target):
    module, _, cls = target.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._installed = []

    def install(self):
        for target, attr, name, label, count in HOOKS:
            owner = _owner(target)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{target}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, label, count))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, original, name, label, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, label(*args, **kwargs) if label else "",
                        stack[-1] if stack else -1, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            if count:
                span.counts = count(args, kwargs, result)
            return result
        return wrapper


# Per-layer metric -> the span names it reads.  A metric whose spans all
# come from absent hooks is reported as absent.
METRIC_SPANS = {
    "spheres.average_s": ("spheres.average",),
    "spheres.field_s": ("spheres.field",),
    "spheres.images": ("spheres.average",),
    "spheres.field_points": ("spheres.field",),
    "spheres.hit_fraction": ("spheres.field",),
    "spheres.rule_s": ("spheres.rule",),
    "spheres.denominator_s": ("spheres.lp_norm", "families.lq_norm"),
    "spheres.denominator_points": ("spheres.lp_norm", "families.lq_norm"),
    "families.instance_s": ("families.instance",),
    "families.region_s": ("families.region",),
    "families.selector_s": ("families.selector",),
    "families.fit_s": ("families.fit",),
    "families.test_points": ("families.region",),
    "families.rung_s": ("families.rung",),
    "phase.certify_s": ("phase.certify",),
    "phase.certify_ms.p50": ("phase.certify",),
    "phase.certify_ms.p99": ("phase.certify",),
    "phase.sample_s": ("phase.sample",),
    "phase.curvature_s": ("phase.curvature",),
    "phase.points": ("phase.certify",),
    "groups.multiply_calls": ("groups.multiply",),
    "groups.multiply_s": ("groups.multiply",),
    "groups.margin_s": ("groups.margin",),
    "regions.build_s": ("regions.build",),
    "regions.export_bytes": ("regions.export",),
    "cli.self_s": ("cli.command",),
}


def layer_metrics(tracer: Tracer):
    """(metrics, absent metric names, per-rung seconds keyed by label)."""
    spans = tracer.spans
    by_name: Dict[str, List[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def named(name):
        return by_name.get(name, [])

    def total(name, attr="duration"):
        return sum(getattr(sp, attr) for sp in named(name))

    def is_denominator(sp):
        return (sp.name == "spheres.lp_norm"
                or (sp.name == "families.lq_norm" and sp.label == "field"))

    def parent(sp):
        return spans[sp.parent] if sp.parent >= 0 else None

    numer_fields = [sp for sp in named("spheres.field")
                    if parent(sp) is not None
                    and parent(sp).name == "spheres.average"]
    denom_fields = [sp for sp in named("spheres.field")
                    if parent(sp) is not None and is_denominator(parent(sp))]
    field_points = sum(sp.counts["points"] for sp in numer_fields)
    hits = sum(sp.counts["hits"] for sp in numer_fields)
    test_regions = [sp for sp in named("families.region")
                    if parent(sp) is not None
                    and parent(sp).name == "families.lq_norm"
                    and parent(sp).label == "test"]
    certify_ms = [1e3 * sp.duration for sp in named("phase.certify")]
    if len(certify_ms) >= 2:
        cuts = statistics.quantiles(certify_ms, n=100, method="inclusive")
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = certify_ms[0] if certify_ms else 0.0

    metrics = {
        "spheres.average_s": total("spheres.average", "self_s"),
        "spheres.field_s": sum(sp.duration for sp in numer_fields),
        "spheres.images": sum(sp.counts["images"]
                              for sp in named("spheres.average")),
        "spheres.field_points": field_points,
        "spheres.hit_fraction": hits / field_points if field_points else 0.0,
        "spheres.rule_s": total("spheres.rule"),
        "spheres.denominator_s": sum(sp.duration for sp in spans
                                     if is_denominator(sp)),
        "spheres.denominator_points": sum(sp.counts["points"]
                                          for sp in denom_fields),
        "families.instance_s": total("families.instance", "self_s"),
        "families.region_s": total("families.region"),
        "families.selector_s": total("families.selector"),
        "families.fit_s": total("families.fit"),
        "families.test_points": sum(sp.counts["points"] for sp in test_regions),
        "families.rung_s": total("families.rung"),
        "phase.certify_s": total("phase.certify"),
        "phase.certify_ms.p50": p50,
        "phase.certify_ms.p99": p99,
        "phase.sample_s": total("phase.sample"),
        "phase.curvature_s": total("phase.curvature"),
        "phase.points": len(certify_ms),
        "groups.multiply_calls": len(named("groups.multiply")),
        "groups.multiply_s": total("groups.multiply"),
        "groups.margin_s": total("groups.margin"),
        "regions.build_s": total("regions.build"),
        "regions.export_bytes": sum(sp.counts["bytes"]
                                    for sp in named("regions.export")),
        "cli.self_s": total("cli.command", "self_s"),
    }
    present = {h[2] for h in HOOKS if f"{h[0]}.{h[1]}" not in tracer.absent}
    absent = sorted(m for m, names in METRIC_SPANS.items()
                    if not present.intersection(names))
    rungs = {sp.label: sp.duration for sp in named("families.rung")}
    return metrics, absent, rungs
