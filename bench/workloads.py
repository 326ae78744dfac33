"""The three benchmark workloads and the checks on their outputs.

A workload object has a ``setup()`` that builds the group structures and a
``run()`` that makes one pass and returns a :class:`Pass`.  Every call into
heislab goes through a module attribute (``families.run_ladder``,
``cli.main``, ...), so the traced run can wrap it from outside.

Each pass is a list of checked operations.  An operation fails when its
result leaves the recorded reference (``reference.json``) or its verdict is
not a pass; the worker also fails an operation whose output differs from
the first pass of the same process.
"""

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Largest relative move of a rung ratio from its reference value.  Changing
# the summation order moves a ratio by about 1e-15; a sphere node or test
# point that flips in or out of the support moves it by far more than this.
RATIO_REL_BOUND = 1e-9
# Criterion-7 verdict rule for a fitted ladder.
SLOPE_TOL = 0.15
R2_MIN = 0.98


@dataclass
class Op:
    name: str
    output: str                 # compared byte for byte across passes
    section: str                # reference.json section: rungs, fits, commands
    recorded: object            # what --record-reference stores for it
    failures: List[str] = field(default_factory=list)


@dataclass
class Pass:
    ops: List[Op]
    images: int = 0             # nominal sphere images, P * W per rung
    slope_err: Optional[float] = None
    counts: Dict[str, float] = field(default_factory=dict)


def _ladder(families, family, make, p, q, deltas, ref):
    """One delta ladder: (rung ops, nominal images, (delta, ratio) rows)."""
    images = 0

    def counted(delta):
        nonlocal images
        inst = make(delta)
        images += math.prod(inst.test_region.counts) * len(inst.rule.weights)
        return inst

    rows = families.run_ladder(counted, deltas, p, q)
    ops = []
    for delta, ratio in rows:
        name = f"{family} delta=2^{round(math.log2(delta))}"
        op = Op(name, repr(ratio), "rungs", repr(ratio))
        want = ref.get("rungs", {}).get(name)
        if want is None:
            op.failures.append("no reference ratio")
        elif abs(ratio / float(want) - 1.0) > RATIO_REL_BOUND:
            op.failures.append(f"ratio {ratio!r} differs from reference {want}")
        ops.append(op)
    return ops, images, rows


class H2Thin:
    """Ball on standard H^2 and knapp on normalized H^2, p=2, q=4."""

    deltas = [2.0 ** -3, 2.0 ** -4]

    def __init__(self, hl, seed):
        self.hl = hl

    def setup(self):
        g = self.hl.groups
        self.s2 = g.standard_heisenberg(2)
        self.s2n = g.normalized_heisenberg(2)

    def run(self, ref):
        fam = self.hl.families
        ladders = [("ball", lambda d: fam.ball_example(self.s2, d), 2.0, 4.0),
                   ("knapp", lambda d: fam.knapp_example(self.s2n, d), 2.0, 4.0)]
        ops, images = [], 0
        for ladder in ladders:
            rung_ops, n, _ = _ladder(fam, *ladder, self.deltas, ref)
            ops += rung_ops
            images += n
        return Pass(ops, images=images)


class H1Ladders:
    """The three n=1 ladders of criterion 7, each fitted and judged."""

    deltas = [2.0 ** -k for k in range(3, 8)]
    predicted = {"ball": -2.0, "scaling": 0.5, "moment": 1.0}

    def __init__(self, hl, seed):
        self.hl = hl

    def setup(self):
        self.s1 = self.hl.groups.standard_heisenberg(1)

    def run(self, ref):
        fam = self.hl.families
        ladders = [("ball", lambda d: fam.ball_example(self.s1, d), 1.0, math.inf),
                   ("scaling", lambda d: fam.scaling_example(self.s1, d), 2.0, 2.0),
                   ("moment", lambda d: fam.moment_example(d), 2.0, 2.0)]
        ops, images = [], 0
        slope_err = 0.0
        for ladder in ladders:
            family = ladder[0]
            rung_ops, n, rows = _ladder(fam, *ladder, self.deltas, ref)
            ops += rung_ops
            images += n
            fit = fam.fit_exponent(rows)
            err = abs(fit.slope - self.predicted[family])
            slope_err = max(slope_err, err)
            text = f"slope={fit.slope!r} r_squared={fit.r_squared!r}"
            op = Op(f"{family} fit", text, "fits", text)
            if err > SLOPE_TOL or fit.r_squared < R2_MIN:
                op.failures.append(f"verdict FAIL: {op.output}, predicted "
                                   f"{self.predicted[family]}")
            ops.append(op)
        return Pass(ops, images=images, slope_err=slope_err)


def _verdict(argv, out: str) -> str:
    """The line of a CLI output that states its result."""
    lines = out.splitlines()
    command = argv[0]
    if command == "geometry":
        return next((l for l in reversed(lines) if l.startswith("# status=")),
                    "no status line")
    if command in ("group-check", "lemma-check"):
        rows = [l for l in lines if l and not l.startswith("#")]
        if not rows or "status" not in rows[0].split(","):
            return "no status column"
        col = rows[0].split(",").index("status")
        counts = {}
        for row in rows[1:]:
            status = row.split(",")[col]
            counts[status] = counts.get(status, 0) + 1
        return " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    if "svg" in argv:
        return next((l for l in lines if l.startswith("<polygon")),
                    "no polygon")
    return ";".join(l for l in lines if not l.startswith("#"))


class Certify:
    """Rank and curvature certificates, group and lemma checks, regions."""

    commands = {
        "geometry H2": ["geometry", "--set", "n=2", "--set", "points=1000",
                        "--set", "fold_points=500"],
        "geometry quaternionic": ["geometry", "--set", "kind=quaternionic",
                                  "--set", "points=200",
                                  "--set", "fold_points=100"],
        "group-check quaternionic": ["group-check", "--set", "kind=quaternionic",
                                     "--set", "samples=2000"],
        "lemma-check": ["lemma-check", "--set", "samples=2000"],
        "region maximal n=2": ["region", "--set", "region=maximal",
                               "--set", "n=2"],
        "region averaging n=1": ["region", "--set", "region=averaging",
                                 "--set", "n=1", "--format", "svg"],
    }

    def __init__(self, hl, seed):
        self.hl = hl
        self.seed = seed

    def setup(self):
        pass

    def run(self, ref):
        ops = []
        output_bytes = deviations = 0
        for name, argv in self.commands.items():
            argv = argv + ["--seed", str(self.seed)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.hl.cli.main(argv)
            out = buf.getvalue()
            output_bytes += len(out.encode())
            verdict = _verdict(argv, out)
            op = Op(name, f"{out}# exit={code}\n", "commands",
                    {"exit": code, "verdict": verdict})
            want = ref.get("commands", {}).get(name)
            if code != 0:
                op.failures.append(f"exit code {code}")
            if argv[0] == "geometry":
                found = re.findall(r"deviations=(\d+)", verdict)
                deviations += int(found[0]) if found else 0
                if verdict != "# status=certified deviations=0":
                    op.failures.append(verdict)
            if want is None:
                op.failures.append("no reference verdict")
            elif (code, verdict) != (want["exit"], want["verdict"]):
                op.failures.append(f"verdict {verdict!r} exit {code}, "
                                   f"reference {want}")
            ops.append(op)
        return Pass(ops, counts={"cli.output_bytes": output_bytes,
                                 "phase.rank_deviations": deviations})


WORKLOADS = {"h2-thin": H2Thin, "h1-ladders": H1Ladders, "certify": Certify}
