"""Sequential-vs-batched serving throughput for M²G4RTP.

Measures the same request stream through the two service paths:

* sequential — ``RTPService.handle`` once per request (the paper's
  original deployment shape; a batch of one on the batched engine);
* batched — ``RTPService.handle_batch`` over micro-batches of
  ``--batch-size`` requests (the padded/masked batched engine of
  ``repro.core.batching``).

Reports throughput (requests/s) and p50/p95 per-request latency for
both paths, verifies both against the spec ``M2G4RTP.predict`` (the
grad-enabled Tensor code, one request as a batch of one; routes exact,
ETAs within 1e-6), and writes the table to
``benchmarks/results/batched_inference.txt`` (``_smoke`` suffix in
smoke mode).

Run ``python benchmarks/bench_batched_inference.py`` for the full
measurement or ``--smoke`` for a <10 s CI-sized run.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import List

import numpy as np

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.service import RTPRequest, RTPService

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def build_requests(num_requests: int, seed: int = 2023) -> List[RTPRequest]:
    config = GeneratorConfig(num_aois=60, num_couriers=6, num_days=10,
                             instances_per_courier_day=3, seed=seed)
    dataset = RTPDataset(SyntheticWorld(config).generate())
    instances = list(dataset)
    requests = [RTPRequest.from_instance(instances[i % len(instances)])
                for i in range(num_requests)]
    return requests


def _percentiles(latencies_ms: List[float]) -> tuple:
    arr = np.asarray(latencies_ms)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 95))


def run(num_requests: int = 96, batch_size: int = 8,
        hidden_dim: int = 32, num_heads: int = 4,
        num_encoder_layers: int = 2, smoke: bool = False) -> str:
    """Execute the benchmark; returns the rendered report."""
    if smoke:
        num_requests = min(num_requests, 24)
        batch_size = min(batch_size, 4)
        hidden_dim = 16
        num_heads = 2
        num_encoder_layers = 1

    requests = build_requests(num_requests)
    model = M2G4RTP(M2G4RTPConfig(
        hidden_dim=hidden_dim, num_heads=num_heads,
        num_encoder_layers=num_encoder_layers, seed=11))
    service = RTPService(model)

    # Warm-up (BLAS threads, allocator) outside the timed region.
    service.handle(requests[0])
    service.handle_batch(requests[:batch_size])

    sequential_latencies: List[float] = []
    start = time.perf_counter()
    sequential_responses = []
    for request in requests:
        response = service.handle(request)
        sequential_latencies.append(response.latency_ms)
        sequential_responses.append(response)
    sequential_seconds = time.perf_counter() - start

    batched_latencies: List[float] = []
    batched_responses = []
    start = time.perf_counter()
    for offset in range(0, len(requests), batch_size):
        chunk = requests[offset:offset + batch_size]
        chunk_start = time.perf_counter()
        responses = service.handle_batch(chunk)
        chunk_ms = (time.perf_counter() - chunk_start) * 1000.0
        batched_latencies.extend([chunk_ms / len(chunk)] * len(chunk))
        batched_responses.extend(responses)
    batched_seconds = time.perf_counter() - start

    expected = [model.predict(service.builder.build(request))
                for request in requests]
    parity = all(
        np.array_equal(served.route, spec.route)
        and np.max(np.abs(served.eta_minutes - spec.arrival_times)) < 1e-6
        for responses in (sequential_responses, batched_responses)
        for served, spec in zip(responses, expected))

    seq_throughput = num_requests / sequential_seconds
    bat_throughput = num_requests / batched_seconds
    seq_p50, seq_p95 = _percentiles(sequential_latencies)
    bat_p50, bat_p95 = _percentiles(batched_latencies)

    lines = [
        "Batched inference engine — sequential vs batched serving",
        f"mode={'smoke' if smoke else 'full'}  requests={num_requests}  "
        f"batch_size={batch_size}  hidden_dim={hidden_dim}",
        "",
        f"{'path':<12}{'throughput req/s':>18}{'p50 ms':>10}{'p95 ms':>10}",
        f"{'sequential':<12}{seq_throughput:>18.1f}{seq_p50:>10.2f}{seq_p95:>10.2f}",
        f"{'batched':<12}{bat_throughput:>18.1f}{bat_p50:>10.2f}{bat_p95:>10.2f}",
        "",
        f"speedup: {bat_throughput / seq_throughput:.2f}x",
        f"parity with M2G4RTP.predict (exact route, 1e-6 eta): "
        f"{'OK' if parity else 'FAILED'}",
    ]
    report = "\n".join(lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    filename = ("batched_inference_smoke.txt" if smoke
                else "batched_inference.txt")
    (RESULTS_DIR / filename).write_text(report + "\n")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run that finishes in <10 s")
    parser.add_argument("--requests", type=int, default=96)
    parser.add_argument("--batch-size", type=int, default=8)
    args = parser.parse_args()
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.batch_size < 1:
        parser.error("--batch-size must be >= 1")
    report = run(num_requests=args.requests, batch_size=args.batch_size,
                 smoke=args.smoke)
    print(report)
    return 0 if "FAILED" not in report else 1


if __name__ == "__main__":
    raise SystemExit(main())
