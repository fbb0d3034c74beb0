"""Sequential-vs-parallel training step time and scaling for M²G4RTP.

Trains the same model on the same data through the sequential
``Trainer`` and the ``DataParallelTrainer`` at 1, 2 and 4 gradient
workers, reporting per-epoch wall time, mean optimisation-step time,
speedup over sequential and scaling efficiency (speedup / workers) —
plus the final-epoch loss of every run so parity is visible in the same
table.

Speedup is bounded by the physical core count: the report records the
cores the scheduler actually grants (``os.sched_getaffinity``), and on
a single-core box every configuration necessarily lands near 1.0x —
the numbers that matter come from a multi-core runner (CI uses one).

Run ``python benchmarks/bench_parallel_training.py`` for the full
measurement or ``--smoke`` for a CI-sized run.  Results land in
``benchmarks/results/parallel_training.txt`` (``_smoke`` suffix in
smoke mode).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import time
from typing import List, Optional

import numpy as np

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.parallel import DataParallelTrainer, ParallelConfig
from repro.training import Trainer, TrainerConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def build_dataset(num_instances: int, seed: int = 2023) -> RTPDataset:
    config = GeneratorConfig(num_aois=60, num_couriers=6, num_days=10,
                             instances_per_courier_day=3, seed=seed)
    dataset = RTPDataset(SyntheticWorld(config).generate())
    return dataset.filter_paper_scope()[:num_instances]


def make_model(hidden_dim: int, num_heads: int,
               num_encoder_layers: int) -> M2G4RTP:
    return M2G4RTP(M2G4RTPConfig(
        hidden_dim=hidden_dim, num_heads=num_heads,
        num_encoder_layers=num_encoder_layers, seed=11))


def _granted_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_once(train: RTPDataset, trainer_config: TrainerConfig,
             model_kwargs: dict, workers: int) -> dict:
    """Train once; return seconds, per-step time and final loss."""
    model = make_model(**model_kwargs)
    if workers == 0:
        trainer = Trainer(model, trainer_config)
    else:
        trainer = DataParallelTrainer(
            model, trainer_config, ParallelConfig(num_workers=workers))
    start = time.perf_counter()
    history = trainer.fit(train)
    seconds = time.perf_counter() - start
    steps = trainer_config.epochs * (
        (len(train) + trainer_config.batch_size - 1)
        // trainer_config.batch_size)
    return {
        "workers": workers,
        "seconds": seconds,
        "step_ms": seconds / steps * 1000.0,
        "final_loss": history.train_loss[-1],
    }


def run(num_instances: int = 48, epochs: int = 3, batch_size: int = 8,
        hidden_dim: int = 32, num_heads: int = 4,
        num_encoder_layers: int = 2,
        worker_counts: Optional[List[int]] = None,
        smoke: bool = False) -> str:
    """Execute the benchmark; returns the rendered report."""
    if smoke:
        num_instances = min(num_instances, 16)
        epochs = min(epochs, 2)
        batch_size = min(batch_size, 4)
        hidden_dim = 16
        num_heads = 2
        num_encoder_layers = 1
    worker_counts = worker_counts or [1, 2, 4]
    model_kwargs = dict(hidden_dim=hidden_dim, num_heads=num_heads,
                        num_encoder_layers=num_encoder_layers)
    trainer_config = TrainerConfig(epochs=epochs, batch_size=batch_size,
                                   patience=epochs + 1)

    train = build_dataset(num_instances)
    # Warm-up (BLAS threads, allocator) outside the timed region.
    run_once(train[:batch_size],
             TrainerConfig(epochs=1, batch_size=batch_size,
                           patience=2),
             model_kwargs, workers=0)

    baseline = run_once(train, trainer_config, model_kwargs, workers=0)
    rows = [baseline]
    for workers in worker_counts:
        rows.append(run_once(train, trainer_config, model_kwargs,
                             workers=workers))

    parity = all(
        np.isclose(row["final_loss"], baseline["final_loss"],
                   rtol=1e-6, atol=1e-8) for row in rows[1:])

    cores = _granted_cores()
    lines = [
        "Parallel training — sequential vs data-parallel workers",
        f"mode={'smoke' if smoke else 'full'}  instances={num_instances}  "
        f"epochs={epochs}  batch_size={batch_size}  "
        f"hidden_dim={hidden_dim}",
        f"cpu cores granted: {cores}"
        + ("  (single core: speedups are bounded near 1.0x here; "
           "see a multi-core runner for scaling)" if cores == 1 else ""),
        "",
        f"{'config':<14}{'total s':>10}{'step ms':>10}"
        f"{'speedup':>10}{'efficiency':>12}{'final loss':>14}",
    ]
    for row in rows:
        label = ("sequential" if row["workers"] == 0
                 else f"{row['workers']} worker"
                 + ("s" if row["workers"] > 1 else ""))
        speedup = baseline["seconds"] / row["seconds"]
        efficiency = speedup / max(row["workers"], 1)
        lines.append(
            f"{label:<14}{row['seconds']:>10.2f}{row['step_ms']:>10.1f}"
            f"{speedup:>9.2f}x{efficiency:>11.0%}"
            f"{row['final_loss']:>14.6f}")
    lines += [
        "",
        f"loss parity vs sequential (rtol 1e-6): "
        f"{'OK' if parity else 'FAILED'}",
    ]
    report = "\n".join(lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    filename = ("parallel_training_smoke.txt" if smoke
                else "parallel_training.txt")
    (RESULTS_DIR / filename).write_text(report + "\n")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run")
    parser.add_argument("--instances", type=int, default=48)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=[1, 2, 4],
                        help="worker counts to sweep (besides sequential)")
    args = parser.parse_args()
    if args.instances < 1:
        parser.error("--instances must be >= 1")
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")
    if args.batch_size < 1:
        parser.error("--batch-size must be >= 1")
    if any(workers < 1 for workers in args.workers):
        parser.error("--workers entries must be >= 1")
    report = run(num_instances=args.instances, epochs=args.epochs,
                 batch_size=args.batch_size, worker_counts=args.workers, smoke=args.smoke)
    print(report)
    return 0 if "FAILED" not in report else 1


if __name__ == "__main__":
    raise SystemExit(main())
