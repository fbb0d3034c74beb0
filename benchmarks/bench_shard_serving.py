"""Wall-clock soak of the sharded serving tier vs a single process.

Drives open-loop arrivals (wrk2-style: request *i* is due at
``start + i/rate``, latency measured from the intended arrival) through
a process-mode :class:`~repro.serving_shard.ShardRouter` at several
shard counts and reports goodput, open-loop p99, shed counts and the
per-shard breakdown.  A separate segment kills a shard mid-soak and
reports the respawn + recovery tail.

Service time is modeled: ``ShardConfig.sleep_latency_ms`` makes every
worker wrap its engine in a :class:`~repro.deploy.ModeledLatencyService`
whose sleeper is ``time.sleep`` (a seeded lognormal *sleep* around the
real forward — the same latency model the virtual-clock scenarios
charge to their timeline), because real serving cost is
dominated by I/O-shaped time that overlaps across processes — which is
exactly the concurrency win this tier exists for.  On a small CI host
the tiny model's CPU-bound forward alone would never scale across
processes, so ``--real`` (no sleep shim) reports numbers without
asserting speedup.  ``max_batch_size`` is pinned to 1: per-request
I/O does not amortise under batching, and batch amortisation is
``bench_batching.py``'s subject, not this bench's.

Gates (modeled mode): the 2-shard soak must beat the single-process
goodput by >= {MIN_SPEEDUP}x, stay shed-free and hold the {SLO_P99_MS:.0f} ms
open-loop p99 SLO; the kill segment must respawn the victim and
resolve every submitted request (nothing dropped).
"""

from __future__ import annotations

import argparse
import pathlib
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data import GeneratorConfig, SyntheticWorld
from repro.load.scenarios import small_model
from repro.load.stream import RequestStream, build_instance_pool
from repro.serving_shard import ShardConfig, ShardRouter

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Modeled per-request service sleep (lognormal around this base).
BASE_MS = 25.0
#: Open-loop arrival rate for the modeled soak.  Single-process
#: capacity is ~1000/(BASE_MS + forward) ~ 35 rps, so this overloads
#: one process while the hot shard of two stays comfortably below 1.0
#: utilisation (consistent hashing splits the 14-courier pool 8/6).
RATE_RPS = 45.0
SLO_P99_MS = 250.0
MIN_SPEEDUP = 1.15
NUM_COURIERS = 14
POOL_SIZE = 28


def build_requests(seed: int = 0) -> List:
    """A deterministic, courier-balanced request pool."""
    world = SyntheticWorld(GeneratorConfig(
        num_aois=40, num_couriers=NUM_COURIERS, num_days=2,
        instances_per_courier_day=2, seed=seed))
    pool = build_instance_pool(world, POOL_SIZE, seed=seed + 1)
    stream = RequestStream(pool, seed=seed + 2)
    return [stream.next() for _ in range(POOL_SIZE)]


def drive(router: ShardRouter, requests: List, rate: float,
          duration_s: float, kill_at: Optional[int] = None,
          kill_victim: int = 0) -> Dict[str, object]:
    """Open-loop soak: submit on schedule, resolve concurrently.

    A waiter thread resolves tickets FIFO while the arrival loop keeps
    submitting — that is what triggers the router's lazy respawn while
    load is still arriving in the kill segment.  Latency is taken from
    ``ticket.done_at`` (stamped by the collector), so waiter position
    never distorts the measurement.
    """
    total = int(rate * duration_s)
    tickets: List[Tuple[float, object]] = []
    submitting = threading.Event()

    def waiter() -> None:
        index = 0
        while True:
            if index < len(tickets):
                router.wait_all([tickets[index][1]])
                index += 1
            elif submitting.is_set():
                break
            else:
                time.sleep(0.002)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    start = time.perf_counter()
    for i in range(total):
        scheduled = start + i / rate
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if kill_at is not None and i == kill_at:
            router.kill_shard(kill_victim)
        tickets.append((scheduled, router.submit(requests[i % len(requests)])))
    submitting.set()
    thread.join(timeout=120.0)

    latencies: List[float] = []
    tail: List[float] = []
    shed = 0
    unresolved = 0
    last_done = start
    tail_from = total * 3 // 4
    for i, (scheduled, ticket) in enumerate(tickets):
        if not ticket.done or ticket.done_at is None:
            unresolved += 1
            continue
        last_done = max(last_done, ticket.done_at)
        response = ticket.response
        if getattr(response, "degraded_reason", "") == "shed":
            shed += 1
            continue
        latency_ms = (ticket.done_at - scheduled) * 1000.0
        latencies.append(latency_ms)
        if i >= tail_from:
            tail.append(latency_ms)
    elapsed = max(last_done - start, 1e-9)
    arr = np.asarray(latencies, dtype=float)
    return {
        "total": total,
        "completed": len(latencies),
        "shed": shed,
        "unresolved": unresolved,
        "goodput_rps": len(latencies) / elapsed,
        "p50_ms": float(np.percentile(arr, 50)) if len(arr) else float("nan"),
        "p99_ms": float(np.percentile(arr, 99)) if len(arr) else float("nan"),
        "tail_p99_ms": (float(np.percentile(tail, 99))
                        if tail else float("nan")),
        "shards": router.shard_stats(),
    }


def run_soak(requests: List, num_shards: int, duration_s: float,
             sleep_ms: float = BASE_MS, rate: float = RATE_RPS,
             kill: bool = False) -> Dict[str, object]:
    model = small_model(seed=7, hidden_dim=16)
    router = ShardRouter(model, version="v001", config=ShardConfig(
        num_shards=num_shards, max_batch_size=1,
        sleep_latency_ms=sleep_ms))
    try:
        kill_at = None
        victim = 0
        if kill:
            kill_at = int(rate * duration_s * 2) // 5
            counts = [0] * num_shards
            for request in requests:
                counts[router.place(request)] += 1
            victim = int(np.argmax(counts))   # hit the hot shard
        result = drive(router, requests, rate, duration_s,
                       kill_at=kill_at, kill_victim=victim)
        result["victim"] = victim
        return result
    finally:
        router.shutdown()


def shard_table(shards: List[Dict[str, object]]) -> List[str]:
    lines = [f"      {'shard':>5s} {'req':>5s} {'shed':>5s} "
             f"{'respawn':>7s} {'peak':>5s} {'p99ms':>8s}"]
    for s in shards:
        lines.append(
            f"      {s['shard']:>5d} {s['requests']:>5d} {s['shed']:>5d} "
            f"{s['respawns']:>7d} {s['queue_peak']:>5d} "
            f"{s['p99_ms']:>8.1f}")
    return lines


def run(smoke: bool = False, real: bool = False) -> str:
    duration = 4.0 if smoke else 10.0
    shard_counts = [1, 2] if smoke else [1, 2, 4]
    requests = build_requests()
    lines = [
        "Sharded serving soak" + (" (smoke)" if smoke else ""),
        f"  open-loop {RATE_RPS:.0f} rps for {duration:.0f} s per run, "
        f"modeled service {BASE_MS:.0f} ms "
        f"(lognormal sleep per request), max_batch_size=1",
        "",
        f"  {'shards':>6s} {'total':>6s} {'good':>6s} {'shed':>5s} "
        f"{'goodput':>8s} {'p50ms':>7s} {'p99ms':>8s} {'slo':>5s}",
    ]
    goodput: Dict[int, float] = {}
    results: Dict[int, Dict[str, object]] = {}
    for n in shard_counts:
        result = run_soak(requests, n, duration)
        results[n] = result
        goodput[n] = result["goodput_rps"]
        slo_ok = result["shed"] == 0 and result["p99_ms"] <= SLO_P99_MS
        lines.append(
            f"  {n:>6d} {result['total']:>6d} {result['completed']:>6d} "
            f"{result['shed']:>5d} {result['goodput_rps']:>7.1f}r "
            f"{result['p50_ms']:>7.1f} {result['p99_ms']:>8.1f} "
            f"{'PASS' if slo_ok else 'FAIL':>5s}")
        assert result["unresolved"] == 0, (
            f"{n} shards: {result['unresolved']} tickets never resolved")

    speedup = goodput[2] / goodput[1]
    two = results[2]
    lines += ["", f"  2-shard speedup over single process: {speedup:.2f}x "
              f"(gate: >= {MIN_SPEEDUP:.2f}x)"]
    lines += ["", "    per-shard breakdown (2-shard soak):"]
    lines += shard_table(two["shards"])
    assert speedup >= MIN_SPEEDUP, (
        f"2 shards must beat one process: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"({goodput[2]:.1f} vs {goodput[1]:.1f} rps)")
    assert two["shed"] == 0, (
        f"2-shard soak must be shed-free, shed {two['shed']}")
    assert two["p99_ms"] <= SLO_P99_MS, (
        f"2-shard open-loop p99 {two['p99_ms']:.1f}ms over the "
        f"{SLO_P99_MS:.0f}ms SLO")

    kill_result = run_soak(requests, 2, duration, kill=True)
    respawns = sum(s["respawns"] for s in kill_result["shards"])
    lines += [
        "",
        f"  kill segment: shard {kill_result['victim']} terminated at 40% "
        f"of arrivals",
        f"    completed {kill_result['completed']}/{kill_result['total']} "
        f"(shed {kill_result['shed']}), respawns {respawns}, "
        f"recovery-tail p99 {kill_result['tail_p99_ms']:.1f} ms",
    ]
    lines += shard_table(kill_result["shards"])
    assert respawns >= 1, "the killed shard must be respawned"
    assert kill_result["unresolved"] == 0, (
        "every request submitted across the kill must resolve")
    assert (kill_result["completed"] + kill_result["shed"]
            == kill_result["total"]), "kill segment dropped requests"

    if real:
        lines += ["", "  --real (no sleep shim; CPU-bound forward, "
                  "no speedup asserted):"]
        for n in ([1, 2] if smoke else [1, 2, 4]):
            result = run_soak(requests, n, duration_s=min(duration, 4.0),
                              sleep_ms=0.0, rate=30.0)
            lines.append(
                f"    {n} shard(s): goodput {result['goodput_rps']:.1f} rps, "
                f"p99 {result['p99_ms']:.1f} ms, shed {result['shed']}")

    lines += ["", "  (goodput = non-shed completions / time-to-last-answer; "
              "latency is open-loop,", "   measured from each request's "
              "intended arrival instant)"]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short CI-sized soak (4 s runs, 1-2 shards)")
    parser.add_argument("--real", action="store_true",
                        help="also run the real forward with no sleep shim "
                             "(reported, not gated)")
    args = parser.parse_args()
    report = run(smoke=args.smoke, real=args.real)
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    out = RESULTS_DIR / f"shard_serving{suffix}.txt"
    out.write_text(report + "\n")
    print(report)
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
