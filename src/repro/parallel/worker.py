"""Process-boundary layer of data-parallel training: the gradient workers.

Each gradient worker (:func:`gradient_worker_main`) runs forward/backward
over a shard of a mini-batch for
:class:`~repro.parallel.trainer.DataParallelTrainer`, coordinated by
:class:`GradientWorkerPool`.

Everything that crosses a process boundary is a plain picklable tuple
(see the message glossary below), and all numpy payloads are shipped as
arrays in the model's ``parameters()`` order — which is sorted by
parameter name and therefore identical in every process.

Message glossary (coordinator → gradient worker)::

    ("step", step_id, indices, scale, sample_prob, epoch, params|None,
     trace_ctx|None)
    ("stop",)

and (gradient worker → coordinator)::

    ("heartbeat", worker_id, step_id)                    # step received
    ("result", worker_id, step_id, loss_sum, count, grads, seconds,
     spans)
    ("error", worker_id, step_id, message, seconds, spans)  # shard lost

``trace_ctx`` is the coordinator's span context in wire form
(:func:`~repro.obs.propagate.capture_context`), and ``spans`` is the
list of span records the worker opened while serving the task
(:meth:`~repro.obs.propagate.worker_span_session.export`).  Spans
opened inside a worker process land in that process's collector, which
dies with it — shipping them back with the result and stitching them
under the dispatching span on collect is the only way they survive.
Both fields are empty (``None`` / ``[]``) when tracing is off, so the
steady-state wire cost is two constant-size slots per message.

A worker applies a step's ``params`` payload before anything else that
can fail, so every worker that received a task holds the parameters it
carried — whether it then answers, raises or is respawned (a fresh
process starts from the coordinator's current parameters).

Fault injection: each worker may own a seeded
:class:`~repro.deploy.faults.FaultInjector`.  ``should_crash`` kills the
process outright (``os._exit``) to exercise dead-worker respawn;
``before_call`` raises a transient error which surfaces as an
``("error", ...)`` message and costs that worker's shard for the step
(drop-and-rescale).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batching import GraphBatch
from ..core.model import M2G4RTP, M2G4RTPConfig
from ..deploy.faults import FaultInjector, FaultPlan, TransientServiceError
from ..obs.propagate import capture_context, merge_worker_spans, \
    worker_span_session
from ..obs.tracing import span

__all__ = ["GradientWorkerPool", "StepResult", "gradient_worker_main"]

#: ``fork`` where the platform offers it (cheap, zero-copy inheritance
#: of the graphs), ``spawn`` otherwise.
START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")

#: Seconds a pending worker may go without a heartbeat before it is
#: treated as hung and respawned.
HEARTBEAT_GRACE_S = 60.0

#: How long :meth:`GradientWorkerPool.collect` waits for a message
#: before it checks the pending workers' liveness.
_POLL_S = 0.05


def _instance_rng(sample_seed: int, epoch: int, index: int):
    """Scheduled-sampling RNG derived per (epoch, instance).

    Seeding by instance index — not by worker or shard — keeps the
    sampling decisions identical no matter how the batch is sharded or
    how many workers run, so a parallel run is reproducible run-to-run.
    (It is *not* the sequential trainer's single shared stream; see the
    determinism caveats in the README.)
    """
    return np.random.default_rng((sample_seed, epoch, index))


# ----------------------------------------------------------------------
# Gradient worker
# ----------------------------------------------------------------------
def gradient_worker_main(worker_id: int, model_config: M2G4RTPConfig,
                         initial_params: List[np.ndarray],
                         graphs: Sequence, targets: Sequence,
                         sample_seed: int, task_queue, result_queue,
                         fault_plan: Optional[FaultPlan] = None,
                         fault_offset: int = 0) -> None:
    """Per-shard forward/backward loop of one data-parallel worker.

    Rebuilds the model from its config, applies ``initial_params``, then
    serves ``("step", ...)`` tasks: accumulate ``d(loss * scale)`` over
    the shard's instances and ship the gradients back.  The worker holds
    the *full* ``graphs``/``targets`` lists (inherited for free under
    ``fork``) and receives only index lists per step, so steady-state
    traffic is parameters down, gradients up.
    """
    model = M2G4RTP(model_config)
    model.train()
    parameters = model.parameters()
    for parameter, value in zip(parameters, initial_params):
        parameter.data[...] = value
    injector = (FaultInjector(fault_plan, seed=worker_id)
                if fault_plan is not None else None)
    if injector is not None and fault_offset:
        # This is a respawned incarnation: resume the logical worker's
        # fault stream where the dead process left off.
        injector.fast_forward(fault_offset)

    while True:
        message = task_queue.get()
        if message[0] == "stop":
            break
        (_, step_id, indices, scale, sample_prob, epoch, params,
         trace_ctx) = message
        result_queue.put(("heartbeat", worker_id, step_id))
        started = time.perf_counter()
        # The coordinator counts this worker as current once the task
        # is sent, so the payload lands before any fault can fire.
        if params is not None:
            for parameter, value in zip(parameters, params):
                parameter.data[...] = value
        with worker_span_session(trace_ctx) as session:
            try:
                if injector is not None:
                    if injector.should_crash():
                        # A crash is the process vanishing, not an error
                        # message: exit without flushing anything.
                        os._exit(23)
                    injector.before_call()
                for parameter in parameters:
                    parameter.zero_grad()
                loss_sum = 0.0
                with span("parallel.worker.step", worker=worker_id,
                          step=step_id, instances=len(indices)):
                    for index in indices:
                        rng = (_instance_rng(sample_seed, epoch, index)
                               if sample_prob > 0.0 else None)
                        output = model(
                            GraphBatch.from_graphs([graphs[index]]),
                            [targets[index]], sample_prob=sample_prob,
                            rng=rng)
                        (output.total_loss * scale).backward()
                        loss_sum += float(output.total_loss.data)
                grads = [parameter.grad for parameter in parameters]
                result_queue.put(("result", worker_id, step_id, loss_sum,
                                  len(indices), grads,
                                  time.perf_counter() - started,
                                  session.export()))
            except TransientServiceError as exc:
                result_queue.put(("error", worker_id, step_id, str(exc),
                                  time.perf_counter() - started,
                                  session.export()))
            except Exception as exc:
                result_queue.put(("error", worker_id, step_id,
                                  f"{type(exc).__name__}: {exc}",
                                  time.perf_counter() - started,
                                  session.export()))


# ----------------------------------------------------------------------
# Coordinator-side pool
# ----------------------------------------------------------------------
class StepResult:
    """Aggregated outcome of one distributed step."""

    __slots__ = ("loss_sum", "arrived", "expected", "grad_sums",
                 "errors", "worker_seconds")

    def __init__(self):
        self.loss_sum = 0.0
        self.arrived = 0                    # instances that contributed
        self.expected = 0                   # instances dispatched
        self.grad_sums: Optional[List[Optional[np.ndarray]]] = None
        self.errors: List[Tuple[int, str]] = []
        self.worker_seconds: Dict[int, float] = {}

    def merge_grads(self, grads: List[Optional[np.ndarray]]) -> None:
        if self.grad_sums is None:
            self.grad_sums = [None if g is None else g.copy() for g in grads]
            return
        for slot, grad in enumerate(grads):
            if grad is None:
                continue
            if self.grad_sums[slot] is None:
                self.grad_sums[slot] = grad.copy()
            else:
                self.grad_sums[slot] += grad


class GradientWorkerPool:
    """N persistent gradient workers plus their fault handling.

    The pool owns worker lifecycles (start, heartbeat tracking, dead- or
    hung-worker respawn) and the per-step collect loop: it waits for
    every dispatched shard; a worker that raised loses its shard (the
    coordinator rescales the rest), and a worker found dead or hung
    mid-step is respawned from the coordinator's current parameters
    with its task resubmitted, so a crash changes nothing numerically.

    Single-writer metrics: workers never touch a registry; the
    coordinator folds their shipped statistics into ``rtp_train_worker_*``
    instruments after each collect.
    """

    def __init__(self, model: M2G4RTP, graphs: Sequence, targets: Sequence,
                 num_workers: int, sample_seed: int = 0,
                 fault_plans: Optional[Dict[int, FaultPlan]] = None,
                 max_respawns: int = 8,
                 registry=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1 for a worker pool")
        self.model = model
        self.graphs = graphs
        self.targets = targets
        self.num_workers = num_workers
        self.sample_seed = sample_seed
        self.fault_plans = dict(fault_plans or {})
        self.max_respawns = max_respawns
        self.registry = registry
        self.respawns = 0
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._result_queue = self._ctx.Queue()
        self._processes: List = [None] * num_workers
        self._task_queues = [self._ctx.Queue() for _ in range(num_workers)]
        self._last_heartbeat: Dict[int, float] = {}
        self._last_task: Dict[int, tuple] = {}
        self._tasks_sent: Dict[int, int] = {}
        self._closed = False
        self._parameters = model.parameters()
        for worker_id in range(num_workers):
            self._start_worker(worker_id)

    # ------------------------------------------------------------------
    def _start_worker(self, worker_id: int) -> None:
        process = self._ctx.Process(
            target=gradient_worker_main,
            args=(worker_id, self.model.config,
                  [parameter.data.copy() for parameter in self._parameters],
                  self.graphs, self.targets, self.sample_seed,
                  self._task_queues[worker_id], self._result_queue,
                  self.fault_plans.get(worker_id),
                  self._tasks_sent.get(worker_id, 0)),
            daemon=True,
            name=f"rtp-grad-worker-{worker_id}")
        process.start()
        self._processes[worker_id] = process
        self._last_heartbeat[worker_id] = time.monotonic()

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead or hung worker and resubmit its last task."""
        if self.respawns >= self.max_respawns:
            raise RuntimeError(
                f"gradient worker {worker_id} died and the respawn budget "
                f"({self.max_respawns}) is exhausted")
        process = self._processes[worker_id]
        if process is not None and process.is_alive():
            process.terminate()
        if process is not None:
            process.join(timeout=5.0)
        # A fresh queue: the dead worker may have left the old one in an
        # undefined state mid-get.
        self._task_queues[worker_id] = self._ctx.Queue()
        self.respawns += 1
        self._count("rtp_train_worker_respawns_total",
                    "Gradient workers respawned after dying", worker_id)
        self._start_worker(worker_id)
        if worker_id in self._last_task:
            # The fresh worker started from current coordinator
            # parameters, so resend the task without a params payload.
            (kind, step_id, indices, scale, sample_prob, epoch, _,
             trace_ctx) = self._last_task[worker_id]
            self._task_queues[worker_id].put(
                (kind, step_id, indices, scale, sample_prob, epoch, None,
                 trace_ctx))

    def alive_workers(self) -> int:
        return sum(1 for process in self._processes
                   if process is not None and process.is_alive())

    def heartbeat_ages(self) -> Dict[int, float]:
        """Seconds since each worker last acknowledged a step."""
        now = time.monotonic()
        return {worker_id: now - seen
                for worker_id, seen in self._last_heartbeat.items()}

    # ------------------------------------------------------------------
    def _count(self, name: str, help_text: str, worker_id: int) -> None:
        if self.registry is not None:
            self.registry.counter(name, help_text, labels=("worker",)) \
                .labels(worker=worker_id).inc()

    def dispatch(self, step_id: int, shards: Dict[int, Sequence[int]],
                 scale: float, sample_prob: float, epoch: int,
                 params_for: Dict[int, Optional[List[np.ndarray]]]) -> None:
        """Send one step's shard to each worker in ``shards``.

        ``params_for[w]`` carries the current parameter arrays for
        workers whose copy is stale (``None`` for up-to-date ones).
        The caller's span context (if tracing is on) rides along so the
        workers' spans can be stitched under it at collect time.
        """
        trace_ctx = capture_context()
        for worker_id, indices in shards.items():
            task = ("step", step_id, list(map(int, indices)), scale,
                    sample_prob, epoch, params_for.get(worker_id),
                    trace_ctx)
            self._last_task[worker_id] = task
            self._tasks_sent[worker_id] = \
                self._tasks_sent.get(worker_id, 0) + 1
            self._task_queues[worker_id].put(task)

    def collect(self, step_id: int,
                shards: Dict[int, Sequence[int]]) -> StepResult:
        """Gather this step's shard results.

        Returns once every dispatched shard has answered with gradients
        or an error.  Dead or hung workers are respawned as they are
        discovered; results for other step ids (a hung worker's answer
        that raced its replacement) are discarded.
        """
        result = StepResult()
        result.expected = sum(len(indices) for indices in shards.values())
        pending = {worker_id for worker_id, indices in shards.items()
                   if len(indices)}
        while pending:
            try:
                message = self._result_queue.get(timeout=_POLL_S)
            except queue.Empty:
                # No message this tick: check liveness of pending workers.
                now = time.monotonic()
                for worker_id in list(pending):
                    process = self._processes[worker_id]
                    hung = (now - self._last_heartbeat[worker_id]
                            > HEARTBEAT_GRACE_S)
                    if process is None or not process.is_alive() or hung:
                        self._respawn(worker_id)
                continue
            kind, worker_id = message[0], message[1]
            if kind == "heartbeat":
                self._last_heartbeat[worker_id] = time.monotonic()
                continue
            if message[2] != step_id:
                self._count("rtp_train_worker_late_results_total",
                            "Results that arrived after their step "
                            "was closed", worker_id)
                continue
            if worker_id not in pending:
                continue
            pending.discard(worker_id)
            self._last_heartbeat[worker_id] = time.monotonic()
            if kind == "result":
                (_, _, _, loss_sum, count, grads, seconds,
                 spans) = message
                result.loss_sum += loss_sum
                result.arrived += count
                result.merge_grads(grads)
            else:
                _, _, _, text, seconds, spans = message
                result.errors.append((worker_id, text))
            result.worker_seconds[worker_id] = seconds
            # Stitch the worker's spans under whatever span is
            # collecting (e.g. ``parallel.step``).
            merge_worker_spans(spans, capture_context())
        return result

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker: sentinel, join, terminate leftovers."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            if process is not None:
                process.join(timeout=timeout)
        for process in self._processes:
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._result_queue.close()
        for task_queue in self._task_queues:
            task_queue.close()

    def __enter__(self) -> "GradientWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
