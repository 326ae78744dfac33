"""heislab benchmark: runs each workload in a fresh process and reports it.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]
    python3 bench/run.py --record-reference

Workloads are h2-thin, h1-ladders and certify (see bench/README.md).  Each
runs in its own child process, one at a time, so that peak RSS is the
workload's own.  With --trace 0 the run reports the end-to-end metrics,
with --trace 1 the per-layer ones, both as listed in BENCHMARK.json.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The run record (machine, versions, src/ line count,
seed) goes into bench/results/ with each result.

The seed only reaches certify, as --seed of each CLI command; h2-thin and
h1-ladders are deterministic and do not depend on it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("h2-thin", "h1-ladders", "certify")
SETUP_PROBES = 8        # extra processes that only set up, for setup_s
RUN_LIMIT_S = 170.0     # whole run, probes included


class BenchError(RuntimeError):
    pass


def _spawn(workload, seed, *extra):
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(proc, timeout):
    """Waits for a child; returns its stdout.  Kills it on timeout."""
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return out


def _start(workload, seed, *extra):
    """Starts a child and waits for it to finish setting up.

    Returns (process, seconds from process start to its "ready" line).
    """
    t0 = time.perf_counter()
    proc = _spawn(workload, seed, *extra)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, 30.0)
        raise BenchError(f"workload process failed to set up: {line!r}")
    return proc, ready


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in a fresh child; returns the raw result dict."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []

    def probe():
        # half the probes before the measuring process and half after, so
        # that they sample the machine at both ends of the run
        for _ in range(0 if trace else SETUP_PROBES // 2):
            proc, ready = _start(workload, seed, "--setup-only")
            _finish(proc, 30.0)
            setups.append(ready)

    probe()
    proc, ready = _start(workload, seed, "--seconds", str(seconds),
                         "--trace", str(trace))
    setups.append(ready)
    out = _finish(proc, deadline - time.perf_counter() - 10.0)
    probe()
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    if result["images"]:
        result["images_per_s"] = result["images"] / result["wall_s"]
    return result


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def report(workload, seed, trace, result, specs):
    """Prints the human-readable report; returns the contract JSON object."""
    source = result if not trace else result["layer"]
    metrics = {}
    for spec in specs:
        if spec["name"] not in source:
            raise BenchError(f"{workload} did not measure {spec['name']}")
        metrics[spec["name"]] = {"value": source[spec["name"]],
                                 "unit": spec["unit"]}
    print(f"workload {workload} seed={seed} trace={trace} "
          f"passes={result['passes']} ops={result['attempted']} "
          f"failed_ops={result['failed']}")
    for name, m in metrics.items():
        mark = " (absent)" if name in result.get("absent", ()) else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{mark}")
    if not trace:
        # not gated: images_per_s is images / wall_s with a constant image
        # count, and slope_err is judged by the verdict rule of each ladder
        if "images_per_s" in result:
            print(f"  {'images_per_s':28s} {result['images_per_s']:.6g} 1/s"
                  f"  ({result['images']} nominal images)")
        if result.get("slope_err") is not None:
            print(f"  {'slope_err':28s} {result['slope_err']:.6g} 1")
    else:
        print(f"  phase.certify_ms over {result['layer']['phase.points']} "
              f"points; traced pass {result['traced_s']:.4g} s; spans in "
              f"{result['spans_file']}")
        for label, sec in result["rung_s"].items():
            print(f"  families.rung_s[{label}] {sec:.6g} s")
        if result["absent_hooks"]:
            print("  absent: " + ", ".join(result["absent_hooks"]))
    for i, name, msg in result["failures"]:
        print(f"  FAILED pass {i} {name}: {msg}")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def record_reference():
    workloads = {}
    for workload in WORKLOADS:
        proc, _ = _start(workload, 0, "--record")
        out = _finish(proc, RUN_LIMIT_S)
        workloads[workload] = json.loads(out.strip().splitlines()[-1])
    path = BENCH / "reference.json"
    path.write_text(json.dumps({"workloads": workloads}, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite bench/reference.json from this checkout")
    args = ap.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        end_to_end, per_layer = _metric_specs()
        specs = per_layer if args.trace else end_to_end
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in chosen:
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace)
            result["record"] = {
                "workload": workload, "seed": args.seed,
                "seed_dependent": workload == "certify",
                "seconds": args.seconds, "trace": args.trace,
                "nproc": os.cpu_count(), "cpu": _cpu_model(),
                "python": result["python"], "numpy": result["numpy"],
                "blas": result["blas"], "blas_threads": result["blas_threads"],
                "src_lines": _src_lines()}
            results[workload] = (result, report(workload, args.seed,
                                                args.trace, result, specs))
            print("record: " + json.dumps(result["record"]))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    for workload, (result, summary) in results.items():
        path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({**summary, "raw": result}, indent=1))
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))[1]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for _, s in results.values()),
            "attempted": sum(s["attempted"] for _, s in results.values()),
            "failed": sum(s["failed"] for _, s in results.values()),
            "metrics": {f"{w}.{k}": v for w, (_, s) in results.items()
                        for k, v in s["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
