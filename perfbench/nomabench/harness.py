"""Closed-loop timing harness: one process, one workload, one op at a time.

A run sets up (several times, reporting the median), then calls ops back
to back for the requested seconds, ending on a round boundary, then runs
the untimed correctness gate.  Set-up and op times are reported on the
reference clock (see clock.py), which takes the host's speed swings out;
the wall-clock figures are printed beside them.  With tracing on, the same
ops are replayed once more with spans recorded, and the per-layer metrics
replace the end-to-end ones in the result line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
import scipy

from . import tracing
from .clock import REF_KERNEL_S, ReferenceClock
from .workloads import WORKLOADS

SETUP_REPEATS = 3
IMPORT_REPEATS = 3

# name, unit; every one is printed on every workload.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class OpRecord:
    spec: object
    latency_s: float
    values: dict
    state: object
    error: str | None
    start: float = 0.0
    end: float = 0.0


def run_op(workload, ctx, spec, clock: ReferenceClock | None = None
           ) -> OpRecord:
    """Time one op; an exception or a non-finite value marks it failed.
    The time the clock's handler took during the op is not counted."""
    spent = clock.spent if clock else 0.0
    start = time.perf_counter()
    try:
        values, state = workload.run(ctx, spec)
        error = None
    except Exception as exc:  # a failing op is counted, the run goes on
        values, state, error = {}, None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    latency = end - start - ((clock.spent - spent) if clock else 0.0)
    if error is None:
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            error = f"non-finite output: {', '.join(bad)}"
    return OpRecord(spec, latency, values, state, error, start, end)


def timed_loop(workload, ctx, specs, seconds: float,
               clock: ReferenceClock | None = None):
    """Call ops until `seconds` have passed, at least `min_ops` ran and the
    current round is complete; returns (records, elapsed seconds)."""
    records = []
    start = time.perf_counter()
    for spec in specs:
        records.append(run_op(workload, ctx, spec, clock))
        n = len(records)
        if (n % workload.round_size == 0 and n >= workload.min_ops
                and time.perf_counter() - start >= seconds):
            break
    return records, time.perf_counter() - start


def failed_indices(records, gate: dict) -> list[int]:
    """Ops that raised, returned a non-finite value or failed the gate."""
    return [i for i, r in enumerate(records) if r.error or i in gate]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(latencies_s, setup_s: float, peak_rss_mb: float,
               tail_percentile: float) -> dict:
    """The metrics from per-op latencies; throughput is ops per second of
    back-to-back op time."""
    lat_ms = [t * 1e3 for t in latencies_s]
    values = {
        "ops_per_s": len(lat_ms) / sum(latencies_s),
        "op_p50_ms": percentile(lat_ms, 50.0),
        "op_tail_ms": percentile(lat_ms, tail_percentile),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def import_s(src: Path) -> float:
    """Median time for a fresh interpreter to import the library.  The
    benchmark's own imports run once, so they are timed again here to
    have a median."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nomacell"], env=env,
                       check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "git_revision": _git_revision(root),
        "src_sha256": _source_digest(root / "src" / "nomacell"),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="nomacell benchmark (one workload "
                                            "per process)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, root: Path, started: float) -> int:
    """Run one workload; `started` is the perf_counter value at the top of
    the entry script, before numpy and the library were imported."""
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    own_import_s = time.perf_counter() - started
    print(f"# nomacell benchmark workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(root, args.seed), sort_keys=True))

    imports = import_s(root / "src")
    clock = ReferenceClock()
    clock.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t, spent = time.perf_counter(), clock.spent
            ctx = workload.setup(args.seed)
            workload.warmup(ctx)
            setups.append(time.perf_counter() - t - (clock.spent - spent))
        records, elapsed = timed_loop(workload, ctx,
                                      workload.inputs(args.seed), args.seconds,
                                      clock)
    finally:
        clock.stop()
    rss = peak_rss_mb()
    setup_wall_s = imports + statistics.median(setups)
    wall = end_to_end([r.latency_s for r in records], setup_wall_s, rss,
                      workload.tail_percentile)
    reference = [r.latency_s * clock.scale(r.start, r.end) for r in records]
    # The imports ran before the clock started, so set-up takes the speed
    # of the whole run.
    setup_s = setup_wall_s * clock.scale(-math.inf, math.inf)

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            replay = [run_op(workload, ctx, spec) for spec in
                      islice(workload.inputs(args.seed), len(records))]
        untraced_s = sum(r.latency_s for r in records)
        traced_s = sum(r.latency_s for r in replay)
        metrics = tracing.layer_metrics(tracer.spans, len(records), untraced_s,
                                        traced_s)
        out_dir = root / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"# spans: {len(tracer.spans)} written to "
              f"{span_file.relative_to(root)}")
        print(f"# tracing overhead: untraced {untraced_s:.3f} s, traced "
              f"{traced_s:.3f} s over the same {len(records)} ops")
        print("# self time by span (share of traced wall time):")
        for name, s, share in tracing.self_time_shares(tracer.spans, traced_s):
            print(f"#   {name:45s} {s:9.3f} s {100 * share:6.1f} %")
    else:
        metrics = end_to_end(reference, setup_s, rss, workload.tail_percentile)

    gate = workload.check(ctx, records, np.random.default_rng(args.seed))
    failed = failed_indices(records, gate)
    for i in failed[:10]:
        print(f"# FAILED op {i} {records[i].spec}: "
              f"{records[i].error or gate[i]}")

    n = len(records)
    print(f"# ops {n} in {elapsed:.3f} s; set-up median of {SETUP_REPEATS}: "
          + ", ".join(f"{s:.3f}" for s in setups)
          + f" s plus import median of {IMPORT_REPEATS} {imports:.3f} s "
          f"(in this process {own_import_s:.3f} s)")
    print(f"# op_tail_ms is p{workload.tail_percentile:g} "
          f"({n - math.ceil(n * workload.tail_percentile / 100)} ops beyond)")
    print(f"# reference clock: {len(clock.durations)} kernel samples, median "
          f"{1e3 * statistics.median(clock.durations):.3f} ms against "
          f"{1e3 * REF_KERNEL_S:g} ms; wall-clock figures: "
          + ", ".join(f"{k} {v:.6g}" for k, (v, _) in wall.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {len(failed) / n:.6g} 1 ({len(failed)}/{n})")
    print(json.dumps({
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
