"""Produce sample observability artifacts for CI.

Replays a handful of requests through a monitored service with tracing
enabled, then writes to ``benchmarks/results/``:

* ``sample_metrics.prom`` — the service monitor's Prometheus exposition;
* ``sample_trace.jsonl`` — the span trees of the replayed requests;
* ``sample_trace.txt`` — the same trace rendered as a text tree (the
  artifact shown in EXPERIMENTS.md).

Run ``python benchmarks/export_sample_metrics.py``; finishes in a few
seconds.
"""

from __future__ import annotations

import argparse
import pathlib

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.obs import disable_tracing, enable_tracing
from repro.service import RTPRequest, RTPService, ServiceMonitor

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def run(num_requests: int = 4, batch_size: int = 3) -> str:
    config = GeneratorConfig(num_aois=40, num_couriers=4, num_days=6,
                             instances_per_courier_day=2, seed=7)
    dataset = RTPDataset(SyntheticWorld(config).generate())
    instances = list(dataset)[: num_requests + batch_size]
    model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                  num_encoder_layers=1, seed=3))

    monitor = ServiceMonitor(RTPService(model))
    monitor.handle(RTPRequest.from_instance(instances[0]))  # warm-up

    collector = enable_tracing()
    try:
        for instance in instances[:num_requests]:
            monitor.handle(RTPRequest.from_instance(instance))
        monitor.handle_batch([RTPRequest.from_instance(i)
                              for i in instances[num_requests:]])
    finally:
        disable_tracing()

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sample_metrics.prom").write_text(
        monitor.render_metrics() + "\n")
    collector.write_jsonl(RESULTS_DIR / "sample_trace.jsonl")
    report = "\n\n".join(["Sample request traces (one per root span)",
                          collector.render()])
    (RESULTS_DIR / "sample_trace.txt").write_text(report + "\n")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=3)
    args = parser.parse_args()
    print(run(num_requests=args.requests, batch_size=args.batch_size))
    print(f"\nwrote sample_metrics.prom / sample_trace.jsonl / "
          f"sample_trace.txt to {RESULTS_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
