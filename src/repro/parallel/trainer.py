"""Data-parallel training: shard the batch, all-reduce the gradients.

:class:`DataParallelTrainer` extends the sequential
:class:`~repro.training.trainer.Trainer` with a pool of gradient worker
processes.  Each optimisation step:

1. the mini-batch's instance indices are sharded round-robin across the
   workers (strided, so shard sizes differ by at most one);
2. every worker runs forward/backward over its shard one instance at a
   time, accumulating ``d(loss_i / batch)``; the sequential trainer
   gets the same sum from a few padded groups;
3. the coordinator sums the shipped gradients (an all-reduce with the
   coordinator as the reduction root), clips by global norm, and takes
   the Adam step — then lazily re-broadcasts parameters with the next
   shard a worker receives.

Because every instance contributes ``grad_i / batch`` on both paths,
the parallel step computes the *same* gradient as the sequential one up
to floating-point summation order — loss trajectories and final
parameters match within tolerance on the same seed (asserted by
``tests/test_parallel_training.py``).

Faults: a worker that dies or hangs is respawned mid-step from the
current parameters and its shard resubmitted (at most
``max_respawns`` times per fit); a worker that raises loses its shard,
and the surviving gradient sum is rescaled by ``expected/arrived``.  A
step whose every shard was lost is skipped.

Observability: the coordinator (single writer) maintains
``rtp_train_worker_*`` metrics from worker-shipped statistics and wraps
dispatch/collect/apply in ``parallel.*`` tracing spans.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

import numpy as np

from ..autodiff import Adam, clip_grad_norm
from ..core.model import M2G4RTP
from ..deploy.faults import FaultPlan
from ..graphs import GraphBuilder
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import span
from ..training.trainer import Trainer, TrainerConfig
from .worker import GradientWorkerPool

__all__ = ["ParallelConfig", "DataParallelTrainer"]


@dataclasses.dataclass
class ParallelConfig:
    """Knobs of data-parallel training."""

    num_workers: int = 2            # gradient workers (0 = sequential)
    max_respawns: int = 8           # worker-death budget for one fit
    #: Per-worker fault plans (tests): worker id -> plan.
    fault_plans: Dict[int, FaultPlan] = dataclasses.field(
        default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")


class DataParallelTrainer(Trainer):
    """A :class:`~repro.training.trainer.Trainer` whose gradient work is
    sharded across a pool of worker processes.

    Drop-in for the sequential trainer (same ``fit`` signature, history
    and telemetry); only the inner mini-batch update is distributed.
    ``parallel.num_workers == 0`` degrades to exactly the sequential
    path, which is what the CLI's default does.
    """

    def __init__(self, model: M2G4RTP,
                 config: Optional[TrainerConfig] = None,
                 parallel: Optional[ParallelConfig] = None,
                 builder: Optional[GraphBuilder] = None,
                 event_log: Optional[EventLog] = None,
                 registry: Optional[MetricsRegistry] = None):
        super().__init__(model, config, builder, event_log, registry)
        if model.config.detach_time_inputs:
            raise ValueError(
                "the two-step ablation trains per instance with two "
                "optimisers and cannot be sharded; use the sequential "
                "Trainer for detach_time_inputs=True")
        self.parallel = parallel or ParallelConfig()
        self._pool: Optional[GradientWorkerPool] = None
        self._step_id = 0
        self._param_version = 0
        self._worker_param_version: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Trainer hooks
    # ------------------------------------------------------------------
    def _on_data_ready(self, graphs, targets) -> None:
        if self.parallel.num_workers <= 0:
            return
        self._pool = GradientWorkerPool(
            self.model, graphs, targets,
            num_workers=self.parallel.num_workers,
            sample_seed=self.config.shuffle_seed + 1,
            fault_plans=self.parallel.fault_plans,
            max_respawns=self.parallel.max_respawns,
            registry=self.registry)
        self._worker_param_version = {
            worker_id: self._param_version
            for worker_id in range(self.parallel.num_workers)}

    def _teardown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # ------------------------------------------------------------------
    def _update_batch(self, chunk, graphs, targets, optimizer: Adam,
                      sample_prob: float, rng) -> float:
        if self._pool is None:
            return super()._update_batch(chunk, graphs, targets, optimizer,
                                         sample_prob, rng)
        pool = self._pool
        parameters = optimizer.parameters
        shards = self._shard(chunk, pool.num_workers)
        self._step_id += 1
        params_payload = None
        params_for: Dict[int, Optional[List[np.ndarray]]] = {}
        for worker_id in shards:
            if self._worker_param_version[worker_id] != self._param_version:
                if params_payload is None:
                    params_payload = [parameter.data.copy()
                                      for parameter in parameters]
                params_for[worker_id] = params_payload
            # Current from here on: the worker applies the payload
            # before anything that can fail, and a respawned worker
            # starts from the current parameters.
            self._worker_param_version[worker_id] = self._param_version
        step_started = time.perf_counter()
        with span("parallel.step", step=self._step_id,
                  instances=len(chunk), workers=len(shards)) as step_span:
            pool.dispatch(self._step_id, shards, 1.0 / len(chunk),
                          sample_prob, self._current_epoch, params_for)
            result = pool.collect(self._step_id, shards)
        if self.registry is not None:
            # Exemplars link a slow step straight to its trace — the
            # span has already exited, so its trace id is passed
            # explicitly rather than auto-captured.
            self.registry.histogram(
                "rtp_train_step_ms",
                "Distributed step wall time (dispatch to collect)",
                exemplars=5).observe(
                (time.perf_counter() - step_started) * 1000.0,
                trace_id=step_span.trace_id)
        self._record_step(result)
        if result.arrived == 0:
            # Every shard was lost: skip the step rather than stepping
            # Adam on a zero gradient.
            if self.registry is not None:
                self.registry.counter(
                    "rtp_train_steps_skipped_total",
                    "Optimiser steps skipped because no gradients "
                    "arrived").inc()
            return 0.0
        rescale = result.expected / result.arrived
        with span("parallel.apply"):
            for parameter, grad in zip(parameters, result.grad_sums):
                if grad is not None and rescale != 1.0:
                    grad = grad * rescale
                parameter.grad = grad
            self._epoch_grad_norms.append(
                clip_grad_norm(parameters, self.config.grad_clip))
            optimizer.step()
            self._param_version += 1
        return result.loss_sum * rescale

    # ------------------------------------------------------------------
    @staticmethod
    def _shard(chunk, num_workers: int) -> Dict[int, List[int]]:
        """Strided round-robin shards (sizes differ by at most one)."""
        shards = {worker_id: [int(i) for i in chunk[worker_id::num_workers]]
                  for worker_id in range(num_workers)}
        return {worker_id: indices
                for worker_id, indices in shards.items() if indices}

    def _record_step(self, result) -> None:
        registry = self.registry
        if registry is None:
            return
        steps = registry.counter(
            "rtp_train_worker_steps_total",
            "Shard results contributed by each gradient worker",
            labels=("worker",))
        seconds = registry.summary(
            "rtp_train_worker_step_seconds",
            "Per-shard forward/backward wall time", labels=("worker",))
        for worker_id, elapsed in result.worker_seconds.items():
            steps.labels(worker=worker_id).inc()
            seconds.labels(worker=worker_id).observe(elapsed)
        for worker_id, _ in result.errors:
            registry.counter(
                "rtp_train_worker_errors_total",
                "Shards lost to in-worker errors",
                labels=("worker",)).labels(worker=worker_id).inc()
        if self._pool is not None:
            registry.gauge(
                "rtp_train_workers_alive",
                "Live gradient worker processes"
            ).set(self._pool.alive_workers())
            ages = self._pool.heartbeat_ages()
            if ages:
                registry.gauge(
                    "rtp_train_worker_heartbeat_age_seconds",
                    "Seconds since the oldest worker heartbeat"
                ).set(max(ages.values()))
