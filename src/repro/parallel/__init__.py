"""Data-parallel training: gradient work sharded over worker processes.

:class:`DataParallelTrainer` is a drop-in
:class:`~repro.training.trainer.Trainer` that shards every mini-batch
across a pool of gradient worker processes
(:class:`GradientWorkerPool`) and all-reduces their gradients, so a
step computes the sequential trainer's gradient up to floating-point
summation order.  Dead or hung workers are respawned with their shard
resubmitted; a worker that raises loses its shard and the rest is
rescaled.

Configuration lives on :class:`ParallelConfig`; the CLI exposes it as
``repro-rtp train --workers N``.  Fault injection for the resilience
tests reuses :class:`~repro.deploy.faults.FaultInjector`.
"""

from .trainer import DataParallelTrainer, ParallelConfig
from .worker import GradientWorkerPool, StepResult

__all__ = [
    "DataParallelTrainer",
    "ParallelConfig",
    "GradientWorkerPool",
    "StepResult",
]
