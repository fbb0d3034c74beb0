"""Benchmark of record for the M2G4RTP serving and training stacks.

Run from the repository root::

    python3 perfbench/run.py --workload poll --seed 0 --seconds 20 --trace 0

Workloads (see :mod:`workloads`): ``poll`` (single courier queries
through the deployment controller), ``wave`` (8-courier re-plan waves
through a process-mode shard worker) and ``train`` (optimizer steps).
Inputs come from ``--seed`` (see :mod:`streams`).

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``p50_ms``,
``p90_ms``, ``throughput_per_s`` and ``peak_rss_mb``.  ``--trace 1``
prints the per-layer metrics, each per operation, from alternating
traced and untraced blocks, plus the tracing overhead.  Every run
prints a run record (host, seed, input fingerprint, generator
lateness, operation counts) and ends with one JSON line.  The exit
code is 1 when an output check or the input fingerprint fails and 2
when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKDIR = pathlib.Path(__file__).resolve().parent / ".work"
WORKLOADS = ("poll", "wave", "train")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

#: Workloads whose processes sleep between operations (see busy_cores).
BUSY_CORE_WORKLOADS = ("wave",)
#: Busy loop pinned to one core at idle priority; ends with its parent.
SPINNER = """
import os, sys
parent = os.getppid()
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    pass
"""

#: Per-layer metrics that are not span self times.
SETUP_LAYERS = ("deploy.init_ms", "deploy.load_ms", "serving_shard.spawn_ms")
SHARD_LAYERS = ("service.cache_hit_ratio", "serving_shard.batch_size")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def host_record() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    threads = " ".join(f"{var}={os.environ.get(var, '-')}"
                       for var in BLAS_THREAD_VARS)
    return (f"host: cpus={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas_text} {threads}")


def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q)) if len(values) else 0.0


def busy_seconds(ops) -> float:
    """Length of the union of the operations' [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for op in sorted(ops, key=lambda op: op.start):
        start = max(op.start, reach)
        if op.end > start:
            total += op.end - start
        reach = max(reach, op.end)
    return total


def end_to_end_metrics(outcome):
    ops = [op for op in outcome.ops if not op.traced]
    latencies = [value for op in ops for value in op.latencies_ms]
    busy = busy_seconds(ops)
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "p50_ms": (percentile(latencies, 50), "ms"),
        "p90_ms": (percentile(latencies, 90), "ms"),
        "throughput_per_s": (sum(op.units for op in ops) / busy
                             if busy else 0.0, "1/s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def per_layer_metrics(outcome):
    import layers
    traced = [op for op in outcome.ops if op.traced]
    plain = [op for op in outcome.ops if not op.traced]
    count = max(len(traced), 1)
    totals = layers.self_times(op.span for op in traced)
    metrics = {name: (value / count, "ms") for name, value in totals.items()}
    metrics["trace.op_ms"] = (
        sum(op.span.duration_ms for op in traced) / count, "ms")
    metrics["trace.overhead_ms"] = (
        percentile([v for op in traced for v in op.latencies_ms], 50)
        - percentile([v for op in plain for v in op.latencies_ms], 50), "ms")
    for name in SETUP_LAYERS:
        values = outcome.setup_parts.get(name)
        metrics[name] = (statistics.median(values) if values else 0.0, "ms")
    ratio, batch = (outcome.shard_stats.get(name, 0.0)
                    for name in SHARD_LAYERS)
    metrics["service.cache_hit_ratio"] = (ratio, "ratio")
    metrics["serving_shard.batch_size"] = (batch, "count")
    return metrics


@contextlib.contextmanager
def busy_cores(enabled: bool):
    """Keep every core out of halt, at idle priority, while measuring.

    Between waves the generator and the shard worker both sleep, and the
    time a virtual machine takes to wake a halted core varies with the
    host's other tenants; on a 2-core host it moved ``wave`` latency by
    a third from run to run.  A spinner runs under ``SCHED_IDLE``, so
    any other task preempts it at once.  Spinners start before the heavy
    imports, while this process is small, so that their pre-exec copies
    never count as the largest child in ``peak_rss_mb``.
    """
    spinners = []
    if enabled:
        spinners = [subprocess.Popen([sys.executable, "-c", SPINNER, str(cpu)])
                    for cpu in sorted(os.sched_getaffinity(0))]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller chose otherwise: the requests'
    # matrices are tiny, and on a small host idle BLAS threads compete
    # with the shard worker for cores.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    with busy_cores(args.workload in BUSY_CORE_WORKLOADS):
        return measure(args)


def measure(args) -> int:
    import repro
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2
    import streams
    import workloads

    print(host_record())
    print(f"run: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} idle spinners="
          f"{'on' if args.workload in BUSY_CORE_WORKLOADS else 'off'}")
    fingerprint_ok, detail = streams.check_recorded(args.workload)
    print(f"inputs: recorded stream {'ok' if fingerprint_ok else 'MISMATCH'}"
          f" ({detail})")
    stream = streams.make_stream(args.workload, args.seed, args.seconds)
    print(f"inputs: fingerprint={streams.fingerprint(stream)}")

    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.RUNNERS[args.workload](
            stream, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    attempted = sum(op.attempted for op in outcome.ops)
    failed = sum(op.failed for op in outcome.ops)
    lateness = [op.lateness_ms for op in outcome.ops]
    print("setup_s: " + " ".join(f"{s:.4f}" for s in outcome.setup_s))
    print(f"generator lateness ms: p50={percentile(lateness, 50):.3f} "
          f"p99={percentile(lateness, 99):.3f} max={max(lateness):.3f}")
    print(f"operations: attempted={attempted} "
          f"succeeded={attempted - failed} failed={failed} "
          f"traced={sum(op.traced for op in outcome.ops)}")
    for name, value in outcome.shard_stats.items():
        print(f"{name}: {value:.4f}")
    for message in outcome.failures:
        print(f"failed: {message}")
    for message in outcome.check_errors[:20]:
        print(f"output check: {message}")
    print(f"output check: {len(outcome.check_errors)} mismatches")

    metrics = (per_layer_metrics(outcome) if args.trace
               else end_to_end_metrics(outcome))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    correct = fingerprint_ok and not outcome.check_errors and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
