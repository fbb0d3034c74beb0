"""Process-boundary layer of the parallel training subsystem.

Two kinds of child processes live here:

* **loader workers** (:func:`loader_worker_main`) — transform dataset
  items into samples for :class:`~repro.parallel.loader.ParallelDataLoader`;
* **gradient workers** (:func:`gradient_worker_main`) — run
  forward/backward over a shard of a mini-batch for
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

__all__ = [
    "GradientWorkerPool", "StepResult", "gradient_worker_main",
    "loader_worker_main", "default_start_method",
]


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, zero-copy data
    inheritance), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


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
# Loader worker
# ----------------------------------------------------------------------
def loader_worker_main(worker_id: int, items: Sequence, transform,
                       wants_rng: bool, seed: int,
                       task_queue, result_queue) -> None:
    """Transform chunks of ``items`` until a ``("stop",)`` sentinel.

    Each item is transformed with an RNG seeded by ``(seed, index)``, so
    stochastic transforms are deterministic per item regardless of which
    worker picks the chunk up or how many workers exist.
    """
    while True:
        message = task_queue.get()
        if message[0] == "stop":
            break
        _, chunk_id, indices, trace_ctx = message
        with worker_span_session(trace_ctx) as session:
            try:
                samples = []
                with span("parallel.loader.chunk", worker=worker_id,
                          items=len(indices)):
                    for index in indices:
                        item = items[index]
                        if transform is None:
                            samples.append(item)
                        elif wants_rng:
                            samples.append(transform(
                                item,
                                np.random.default_rng((seed, index))))
                        else:
                            samples.append(transform(item))
                result_queue.put(("chunk", worker_id, chunk_id, samples,
                                  session.export()))
            except Exception as exc:  # ship the failure, keep serving
                result_queue.put(("chunk_error", worker_id, chunk_id,
                                  f"{type(exc).__name__}: {exc}",
                                  session.export()))


# ----------------------------------------------------------------------
# Gradient worker
# ----------------------------------------------------------------------
def gradient_worker_main(worker_id: int, model_config: M2G4RTPConfig,
                         initial_params: List[np.ndarray],
                         graphs: Sequence, targets: Sequence,
                         sample_seed: int, task_queue, result_queue,
                         fault_plan: Optional[FaultPlan] = None,
                         fault_seed: int = 0,
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
    injector = (FaultInjector(fault_plan, seed=fault_seed + worker_id)
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
        with worker_span_session(trace_ctx) as session:
            try:
                if injector is not None:
                    if injector.should_crash():
                        # A crash is the process vanishing, not an error
                        # message: exit without flushing anything.
                        os._exit(23)
                    injector.before_call()
                if params is not None:
                    for parameter, value in zip(parameters, params):
                        parameter.data[...] = value
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
    """Aggregated outcome of one distributed step (or micro-step)."""

    __slots__ = ("loss_sum", "arrived", "expected", "grad_sums",
                 "stragglers", "errors", "worker_seconds")

    def __init__(self):
        self.loss_sum = 0.0
        self.arrived = 0                    # instances that contributed
        self.expected = 0                   # instances dispatched
        self.grad_sums: Optional[List[Optional[np.ndarray]]] = None
        self.stragglers: List[int] = []     # worker ids cut at deadline
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
    """N persistent gradient workers plus the elastic coordination logic.

    The pool owns worker lifecycles (start, heartbeat tracking, dead- or
    hung-worker respawn) and the per-step collect loop with its deadline
    semantics:

    * ``deadline_s`` — per-step budget measured from dispatch; workers
      that have not answered when it expires are recorded as
      **stragglers**, their shards dropped and the surviving gradients
      rescaled by the coordinator (drop-and-rescale averaging);
    * ``min_shards`` — the deadline never cuts below this many arrived
      worker shards, so a fleet-wide hiccup stalls instead of stepping
      on (almost) no data;
    * a worker found dead mid-step is respawned from the coordinator's
      current parameters and its task resubmitted (unless the deadline
      already passed, in which case the respawn still happens but the
      shard is dropped for this step).

    Single-writer metrics: workers never touch a registry; the
    coordinator folds their shipped statistics into ``rtp_train_worker_*``
    instruments after each collect.
    """

    def __init__(self, model: M2G4RTP, graphs: Sequence, targets: Sequence,
                 num_workers: int, sample_seed: int = 0,
                 start_method: Optional[str] = None,
                 fault_plans: Optional[Dict[int, FaultPlan]] = None,
                 fault_seed: int = 0,
                 max_respawns: int = 8,
                 heartbeat_grace_s: float = 60.0,
                 registry=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1 for a worker pool")
        self.model = model
        self.graphs = graphs
        self.targets = targets
        self.num_workers = num_workers
        self.sample_seed = sample_seed
        self.fault_plans = dict(fault_plans or {})
        self.fault_seed = fault_seed
        self.max_respawns = max_respawns
        self.heartbeat_grace_s = heartbeat_grace_s
        self.registry = registry
        self.respawns = 0
        self._ctx = multiprocessing.get_context(
            start_method or default_start_method())
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
                  self.fault_plans.get(worker_id), self.fault_seed,
                  self._tasks_sent.get(worker_id, 0)),
            daemon=True,
            name=f"rtp-grad-worker-{worker_id}")
        process.start()
        self._processes[worker_id] = process
        self._last_heartbeat[worker_id] = time.monotonic()

    def _respawn(self, worker_id: int, resubmit: bool) -> None:
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
        if resubmit and worker_id in self._last_task:
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
    def _count(self, name: str, help_text: str, worker_id: int,
               amount: float = 1.0) -> None:
        if self.registry is not None:
            self.registry.counter(name, help_text, labels=("worker",)) \
                .labels(worker=worker_id).inc(amount)

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

    def collect(self, step_id: int, shards: Dict[int, Sequence[int]],
                deadline_s: Optional[float], min_shards: int) -> StepResult:
        """Gather this step's shard results, elastically.

        Returns once every dispatched shard has answered, or — when
        ``deadline_s`` is set — once the deadline passes with at least
        ``min_shards`` shards in hand.  Dead workers are respawned as
        they are discovered; results for other step ids (late stragglers
        from a previous step) are discarded.
        """
        result = StepResult()
        result.expected = sum(len(indices) for indices in shards.values())
        pending = {worker_id: len(indices)
                   for worker_id, indices in shards.items() if len(indices)}
        arrived_shards = 0
        started = time.monotonic()
        while pending:
            elapsed = time.monotonic() - started
            cut_allowed = (deadline_s is not None
                           and arrived_shards + len(result.errors)
                           >= min_shards)
            if cut_allowed and elapsed >= deadline_s:
                break
            if deadline_s is not None and not cut_allowed:
                timeout = 0.05
            elif deadline_s is not None:
                timeout = max(deadline_s - elapsed, 0.001)
            else:
                timeout = 0.05
            try:
                message = self._result_queue.get(timeout=min(timeout, 0.25))
            except queue.Empty:
                message = None
            if message is not None:
                kind = message[0]
                if kind == "heartbeat":
                    _, worker_id, _ = message
                    self._last_heartbeat[worker_id] = time.monotonic()
                    continue
                if message[2] != step_id:
                    # Late answer from an earlier step: its shard was
                    # already dropped and rescaled; discard.
                    self._count("rtp_train_worker_late_results_total",
                                "Results that arrived after their step "
                                "was closed", message[1])
                    continue
                if kind == "result":
                    (_, worker_id, _, loss_sum, count, grads, seconds,
                     spans) = message
                    if worker_id in pending:
                        result.loss_sum += loss_sum
                        result.arrived += count
                        result.merge_grads(grads)
                        result.worker_seconds[worker_id] = seconds
                        arrived_shards += 1
                        del pending[worker_id]
                        self._last_heartbeat[worker_id] = time.monotonic()
                        # Stitch the worker's spans under whatever span
                        # is collecting (e.g. ``parallel.step``).
                        merge_worker_spans(spans, capture_context())
                    continue
                if kind == "error":
                    _, worker_id, _, text, seconds, spans = message
                    if worker_id in pending:
                        result.errors.append((worker_id, text))
                        result.worker_seconds[worker_id] = seconds
                        del pending[worker_id]
                        self._last_heartbeat[worker_id] = time.monotonic()
                        merge_worker_spans(spans, capture_context())
                    continue
                continue
            # No message this tick: check liveness of pending workers.
            for worker_id in list(pending):
                process = self._processes[worker_id]
                hung = (time.monotonic() - self._last_heartbeat[worker_id]
                        > self.heartbeat_grace_s)
                if process is not None and process.is_alive() and not hung:
                    continue
                past_deadline = (deadline_s is not None
                                 and time.monotonic() - started >= deadline_s)
                self._respawn(worker_id, resubmit=not past_deadline)
                if past_deadline:
                    result.stragglers.append(worker_id)
                    del pending[worker_id]
        result.stragglers.extend(pending)
        return result

    def drain(self) -> None:
        """Discard queued results (between steps after a straggler cut)."""
        while True:
            try:
                message = self._result_queue.get_nowait()
            except queue.Empty:
                return
            if message[0] == "heartbeat":
                self._last_heartbeat[message[1]] = time.monotonic()

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
