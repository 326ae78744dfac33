"""One benchmark workload in a fresh process; started by run.py.

The worker imports heislab from the checkout's ``src/``, builds the
workload's structures and prints ``ready``.  It then makes the number of
passes whose total comes closest to ``--seconds`` (one at least), checks
each pass against ``reference.json`` and against the first pass, and
prints one JSON line.  With ``--trace 1`` one more pass runs with every
hook installed and the JSON carries the per-layer metrics; the spans go to
``bench/results/``.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A pass is not started after this many seconds, so that a slow machine
# still ends well inside the three minutes a run may take.
START_LIMIT_S = 100.0


def _blas():
    """(name and version, thread count) of the BLAS numpy loaded."""
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return name, int(getattr(handle, symbol)())
    return name, None


def _pass(workload, reference, first):
    """Runs one pass; returns (seconds, Pass) with failures filled in."""
    t0 = time.perf_counter()
    result = workload.run(reference)
    seconds = time.perf_counter() - t0
    if first is not None:
        for op, op0 in zip(result.ops, first.ops):
            if op.output != op0.output:
                op.failures.append("output differs from the first pass")
    return seconds, result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="print the outputs of one pass as reference data")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heislab" / "__init__.py").is_file():
        print(f"no heislab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import heislab.cli
    import heislab.families
    import heislab.groups
    from workloads import WORKLOADS

    hl = SimpleNamespace(cli=heislab.cli, families=heislab.families,
                         groups=heislab.groups)
    workload = WORKLOADS[args.workload](hl, args.seed)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.record:
        result = workload.run({})
        sections = {}
        for op in result.ops:
            sections.setdefault(op.section, {})[op.name] = op.recorded
        print(json.dumps(sections))
        return 0

    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference["workloads"][args.workload]
    start = time.perf_counter()
    times, passes = [], []
    while True:
        seconds, result = _pass(workload, reference,
                                passes[0] if passes else None)
        times.append(seconds)
        passes.append(result)
        elapsed = time.perf_counter() - start
        # stop at the pass count whose total comes closest to --seconds
        if (elapsed + seconds / 2 >= args.seconds
                or elapsed + seconds > START_LIMIT_S):
            break

    out = {"passes": len(passes), "pass_s": times,
           "wall_s": statistics.median(times),
           "images": passes[0].images, "slope_err": passes[0].slope_err}
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, result = _pass(workload, reference, passes[0])
        finally:
            tracer.uninstall()
        passes.append(result)
        metrics, absent, rungs = layer_metrics(tracer)
        # counts read from the CLI outputs, 0 where no command ran
        metrics.update({"cli.output_bytes": 0, "phase.rank_deviations": 0,
                        **result.counts})
        metrics["trace.overhead_s"] = traced_s - out["wall_s"]
        out.update(layer=metrics, absent=absent, absent_hooks=tracer.absent,
                   rung_s=rungs, traced_s=traced_s)
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        spans = results / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans.open("w") as fh:
            for i, sp in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "id": i, "parent": sp.parent, "name": sp.name,
                    "label": sp.label, "start": sp.start, "end": sp.end,
                    "self_s": sp.self_s, **sp.counts}) + "\n")
        out["spans_file"] = str(spans.relative_to(ROOT))

    failures = [(i, op.name, msg) for i, p in enumerate(passes)
                for op in p.ops for msg in op.failures]
    import numpy as np
    blas, blas_threads = _blas()
    out.update(
        attempted=sum(len(p.ops) for p in passes),
        failed=sum(1 for p in passes for op in p.ops if op.failures),
        failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=sys.version.split()[0], numpy=np.__version__,
        blas=blas, blas_threads=blas_threads)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
