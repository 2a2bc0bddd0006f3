"""Benchmark for padictiles: times calls into its public API from outside the library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's src/ directory and nowhere else.
Passes over the workload's inputs repeat while the next one is expected to end
within --seconds (at least one pass), and every output is checked.  Times are
scaled to reference speed, as reference.py explains; the info line printed
before the result also gives the wall times, the machine and fail_frac.  The
last line of standard output is the JSON result with the metrics that
BENCHMARK.json names: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1.  A traced run makes its untraced passes first, then one pass
with every layer wrapped by tracing.py, and writes the span tree to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from reference import REF_S, Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_library():
    """Import padictiles and its CLI from the checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import padictiles
        import padictiles.cli
    except ImportError as exc:
        raise BenchError(f"cannot import padictiles from {SRC}: {exc}") from exc
    if Path(padictiles.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"padictiles was imported from {padictiles.__file__}, not from {SRC}")
    return padictiles


def spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import the library, build the
    inputs and stop where the first timed set would start, at reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    ref = Reference()
    times = []
    for _ in range(SETUP_REPEATS):
        ref.sample()
        start = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up process failed: {done.stderr.strip()}")
    ref.sample()
    # each child between the samples taken just before and just after it
    scaled = [t * 2 * REF_S / (a + b) for t, a, b in zip(times, ref.samples, ref.samples[1:])]
    return statistics.median(scaled)


def timed_pass(work, tracer=None):
    """One pass; returns its time and per-set latencies at reference speed,
    the outputs, the pass's mean scale and its unscaled time."""
    ref = Reference(tracer)
    ref.sample()
    before = ref.spent
    start = time.perf_counter()
    latencies, outputs = work.run(ref.tick)
    wall = time.perf_counter() - start - (ref.spent - before)
    ref.sample()
    scaled = [x * f for x, f in zip(latencies, ref.mark_scales())]
    pass_s = sum(scaled) + (wall - sum(latencies)) * ref.scale()
    return pass_s, scaled, outputs, ref.scale(), wall


def measure(work, seconds: float):
    """Untraced passes while the next is expected to end within `seconds`."""
    passes, latencies, walls, attempted, failed = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pass_s, lat, outputs, _, wall = timed_pass(work)
        took = time.perf_counter() - t0
        passes.append(pass_s)
        walls.append(wall)
        latencies += lat
        attempted += work.sets
        failed += work.check(outputs)
        if time.perf_counter() - start + took > seconds:
            return passes, walls, latencies, attempted, failed


def traced_pass(work, path: Path):
    """One pass with every layer traced; returns its scaled time, failures and
    the per-layer metrics, with self times at reference speed."""
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        pass_s, _, outputs, scale, _ = timed_pass(work, tracer)
    finally:
        tracing.restore(patches)
    tracer.counters["cli.main.bytes_out"] = getattr(work, "bytes_out", 0)
    tracer.write(path)
    layers = tracing.layer_metrics(tracer)
    for name in layers:
        if name.endswith(".self_s"):
            layers[name] *= scale
    return pass_s, work.check(outputs), layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    bench = spec()
    lib = load_library()
    WORKDIR.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](lib, args.seed, str(WORKDIR))
    if args.setup_only:
        return 0

    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
    passes, walls, latencies, attempted, failed = measure(work, args.seconds)
    pass_s = statistics.median(passes)
    if args.trace:
        path = WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
        traced_s, traced_failed, layers = traced_pass(work, path)
        attempted += work.sets
        failed += traced_failed
        metrics.update(layers)
        metrics["trace.overhead_frac"] = traced_s / pass_s - 1
        wanted = bench["per_layer"]
    else:
        metrics["pass_s"] = pass_s
        metrics["set_p50_ms"] = 1000 * statistics.median(latencies)
        metrics["set_p95_ms"] = 1000 * statistics.quantiles(latencies, n=20)[18]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = bench["end_to_end"]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine(),
        "pass_s_at_reference_speed": passes,
        "pass_s_wall": walls,
        "sets_per_pass": work.sets,
        "fail_frac": failed / attempted,
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
