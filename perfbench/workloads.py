"""The three workloads: set-up, timed phase and output check.

``poll``  one courier query at a time through
          ``DeploymentController.handle`` (registry-loaded model,
          resilient wrapper, ``RTPService``, per-instance Tensor
          ``M2G4RTP.predict``), open loop at a fixed rate.
``wave``  waves of 8 couriers submitted with ``ShardRouter.submit`` to
          one process-mode shard worker at their due times, whether or
          not earlier waves have finished; half of each wave repeats a
          query, so the worker's graph cache is used.
``train`` one optimizer step per operation:
          ``Trainer(model, TrainerConfig(epochs=1, batch_size=8)).fit``
          over the next 8 training instances, back to back.

Set-up (stack construction and warm-up) is timed several times per run
and reported as the median.  Requests are timed from their intended
arrival, so a stall also delays the requests queued behind it.  With
tracing on, tracing is switched on and off in alternating blocks of
operations; every traced operation runs inside one benchmark span (see
:mod:`layers`).
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.deploy import DeploymentController, ModelRegistry
from repro.graphs import GraphBuilder
from repro.obs import tracing
from repro.serving_shard import ShardConfig, ShardRouter
from repro.training import Trainer, TrainerConfig

import layers

clock = time.perf_counter

#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 7
#: Tracing alternates between off and on in blocks of about this length.
TRACE_BLOCK_S = 1.0
#: About one training step, to size the traced blocks of ``train``.
TRAIN_STEP_S = 0.22
#: Parity contract of ``repro.core.batching``: ETAs within this many minutes.
ETA_TOLERANCE = 1e-6
#: Stop issuing operations once a run has overrun its length this much.
MAX_OVERRUN = 4.0
#: Longest wait for a wave in flight before it is given up on.
DRAIN_LIMIT_S = 30.0
VERSION = "v001"


@dataclasses.dataclass
class Op:
    """One timed operation: a poll request, a wave or a training step."""

    start: float
    end: float
    latencies_ms: List[float]   # per request from its due time, or per step
    units: int                  # requests, or training instances
    attempted: int              # requests, or steps
    failed: int
    traced: bool
    lateness_ms: float = 0.0
    span: Optional[object] = None


@dataclasses.dataclass
class Outcome:
    """What one workload run produced, before it is reduced to metrics."""

    ops: List[Op]
    setup_s: List[float]
    setup_parts: Dict[str, List[float]]
    peak_rss_mb: float
    check_errors: List[str]
    failures: List[str]
    shard_stats: Dict[str, float] = dataclasses.field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
class TimedRegistry(ModelRegistry):
    """A model registry that times each ``load`` call (deploy.load_ms)."""

    def __init__(self, root):
        super().__init__(root)
        self.load_ms: List[float] = []

    def load(self, ref: str = "latest"):
        started = clock()
        loaded = super().load(ref)
        self.load_ms.append((clock() - started) * 1000.0)
        return loaded


def make_registry(workdir) -> TimedRegistry:
    registry = TimedRegistry(workdir / "registry")
    registry.register(M2G4RTP(M2G4RTPConfig()), version=VERSION,
                      created_at="benchmark")
    return registry


def sleep_until(when: float) -> None:
    delay = when - clock()
    if delay > 0:
        time.sleep(delay)


def spin_until(when: float) -> None:
    """Busy-wait: after a sleep the first request on this shared host
    runs slower by an amount that varies from run to run."""
    while clock() < when:
        pass


def set_tracing(on: bool, collector) -> None:
    if on and not tracing.tracing_enabled():
        tracing.enable_tracing(collector)
    elif not on and tracing.tracing_enabled():
        tracing.disable_tracing()


def traced_block(index: int, block: int, trace: bool) -> bool:
    """Whether operation ``index`` falls in a traced block."""
    return trace and (index // block) % 2 == 1


def answer_error(request, response) -> Optional[str]:
    """Why an answer counts as failed, or ``None`` for a good answer."""
    if response.degraded:
        return f"degraded ({response.degraded_reason})"
    n = request.num_locations
    route = np.asarray(response.route)
    if route.shape != (n,) or not np.array_equal(np.sort(route),
                                                 np.arange(n)):
        return "route is not a permutation of the request's locations"
    if np.shape(response.eta_minutes) != (n,):
        return "ETA vector has the wrong length"
    return None


def check_outputs(served, load_model: Callable[[str], M2G4RTP]) -> List[str]:
    """Re-predict each distinct served request with the Tensor path.

    ``served`` holds ``(request, response)`` pairs; each non-degraded
    answer must equal the per-instance ``M2G4RTP.predict`` of the
    version that served it: the same route and ETAs within
    ``ETA_TOLERANCE``.  Returns one message per mismatch.
    """
    models: Dict[str, M2G4RTP] = {}
    builders: Dict[str, GraphBuilder] = {}
    seen = set()
    errors = []
    for request, response in served:
        if response is None or response.degraded or id(request) in seen:
            continue
        seen.add(id(request))
        version = response.model_version
        if version not in models:
            models[version] = load_model(version)
            builders[version] = GraphBuilder(
                num_aoi_ids=models[version].config.num_aoi_ids)
        expected = models[version].predict(builders[version].build(request))
        label = (f"courier {request.courier.courier_id} at "
                 f"{request.request_time:.3f} ({version})")
        if not np.array_equal(np.asarray(response.route), expected.route):
            errors.append(f"{label}: route {list(response.route)} != "
                          f"{list(expected.route)}")
            continue
        gap = float(np.max(np.abs(np.asarray(response.eta_minutes)
                                  - expected.arrival_times)))
        if not gap <= ETA_TOLERANCE:
            errors.append(f"{label}: ETAs differ by {gap:.3g} min")
    return errors


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def repeat_setup(build):
    """Run ``build()`` ``SETUP_REPEATS`` times; keep the last stack.

    ``build`` returns ``(stack, parts)``, where ``parts`` maps a set-up
    stage to its milliseconds; an earlier stack with a ``shutdown``
    method is shut down before the next is built.  Returns
    ``(stack, seconds per set-up, parts per stage)``.
    """
    stack, seconds, parts = None, [], {}
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            release = getattr(stack, "shutdown", None)
            if release is not None:
                release()
            stack = None
        gc.collect()
        started = clock()
        stack, stage_ms = build()
        seconds.append(clock() - started)
        for name, value in stage_ms.items():
            parts.setdefault(name, []).append(value)
    gc.collect()
    return stack, seconds, parts


def _failure(failures: List[str], message: str) -> None:
    if len(failures) < 20:
        failures.append(message)


# ----------------------------------------------------------------------
# poll
# ----------------------------------------------------------------------
def run_poll(stream, seconds: float, trace: bool, workdir) -> Outcome:
    registry = make_registry(workdir)

    def build():
        started = clock()
        controller = DeploymentController(registry)
        stage = {"deploy.init_ms": (clock() - started) * 1000.0,
                 "deploy.load_ms": registry.load_ms[-1]}
        for request in stream.warmup:
            controller.handle(request)
        return controller, stage

    controller, setup_s, parts = repeat_setup(build)
    collector = tracing.TraceCollector()
    block = max(1, round(TRACE_BLOCK_S / stream.spacing_s))
    bench_span = layers.BENCH_SPANS["poll"][0]
    ops: List[Op] = []
    served = []
    failures: List[str] = []
    t0 = clock() + 0.01
    for index, request in enumerate(stream.requests):
        due = t0 + index * stream.spacing_s
        if clock() - t0 > MAX_OVERRUN * seconds:
            break
        traced = traced_block(index, block, trace)
        set_tracing(traced, collector)
        spin_until(due)
        span = response = error = None
        start = clock()
        try:
            if traced:
                with tracing.span(bench_span) as span:
                    response = controller.handle(request)
            else:
                response = controller.handle(request)
        except Exception:
            error = traceback.format_exc(limit=3)
        end = clock()
        if error is None:
            error = answer_error(request, response)
        if error is not None:
            _failure(failures, f"request {index}: {error}")
        ops.append(Op(start, end, [(end - due) * 1000.0], 1, 1,
                      int(error is not None), traced,
                      (start - due) * 1000.0, span))
        served.append((request, response))
    set_tracing(False, collector)
    rss = peak_rss_mb()
    checker = ModelRegistry(registry.root)
    errors = check_outputs(served, lambda version: checker.load(version)[0])
    return Outcome(ops, setup_s, parts, rss, errors, failures)


# ----------------------------------------------------------------------
# wave
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Flight:
    """A submitted wave whose answers are not all back yet."""

    index: int
    due: float
    start: float
    requests: list
    tickets: list   # ShardTicket, or None where submit raised
    traced: bool
    span: Optional[object]


def _worker_counts(router) -> Dict[str, float]:
    stats = router.worker_stats()
    keys = ("cache_hits", "cache_misses", "batches_flushed",
            "requests_flushed")
    return {key: float(sum(s[key] for s in stats)) for key in keys}


def run_wave(stream, seconds: float, trace: bool, workdir) -> Outcome:
    registry = make_registry(workdir)

    def build():
        started = clock()
        model, manifest = registry.load(VERSION)
        loaded = clock()
        router = ShardRouter(model, version=manifest.version,
                             config=ShardConfig(num_shards=1))
        stage = {"deploy.load_ms": (loaded - started) * 1000.0,
                 "serving_shard.spawn_ms": (clock() - loaded) * 1000.0}
        for wave in stream.warmup:
            router.wait_all([router.submit(request) for request in wave])
        return router, stage

    router, setup_s, parts = repeat_setup(build)
    try:
        before = _worker_counts(router)
        ops, served, failures = _wave_loop(router, stream, seconds, trace)
        after = _worker_counts(router)
    finally:
        router.shutdown()
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    shard_stats = {
        "service.cache_hit_ratio": (delta["cache_hits"] / lookups
                                    if lookups else 0.0),
        "serving_shard.batch_size": (
            delta["requests_flushed"] / delta["batches_flushed"]
            if delta["batches_flushed"] else 0.0),
    }
    rss = peak_rss_mb()
    checker = ModelRegistry(registry.root)
    errors = check_outputs(served, lambda version: checker.load(version)[0])
    return Outcome(ops, setup_s, parts, rss, errors, failures, shard_stats)


def _wave_loop(router, stream, seconds: float, trace: bool):
    collector = tracing.TraceCollector()
    block = max(1, round(TRACE_BLOCK_S / stream.spacing_s))
    bench_span = layers.BENCH_SPANS["wave"][0]
    in_flight: "deque[_Flight]" = deque()
    ops: List[Op] = []
    served = []
    failures: List[str] = []

    def land(flight: _Flight) -> None:
        live = [t for t in flight.tickets if t is not None]
        # wait_all also stitches the worker's shipped spans under the
        # wave's benchmark span when the wave was traced.
        answers = iter(router.wait_all(live))
        now = clock()
        latencies, failed = [], 0
        end = flight.start
        for position, (request, ticket) in enumerate(
                zip(flight.requests, flight.tickets)):
            response = next(answers) if ticket is not None else None
            done = (ticket.done_at if ticket is not None
                    and ticket.done_at is not None else now)
            end = max(end, done)
            latencies.append((done - flight.due) * 1000.0)
            error = ("submit raised" if ticket is None
                     else answer_error(request, response))
            if error is not None:
                failed += 1
                _failure(failures, f"wave {flight.index} request "
                                   f"{position}: {error}")
            served.append((request, response))
        if flight.span is not None:
            flight.span.freeze((end - flight.start) * 1000.0)
        ops.append(Op(flight.start, end, latencies, len(flight.requests),
                      len(flight.requests), failed, flight.traced,
                      (flight.start - flight.due) * 1000.0, flight.span))

    def land_until(until: float) -> None:
        """Land finished waves, oldest first, waiting no later than
        ``until`` for the next answer."""
        while in_flight:
            flight = in_flight[0]
            pending = next((t for t in flight.tickets
                            if t is not None and not t.done), None)
            if pending is None:
                land(in_flight.popleft())
                continue
            timeout = until - clock()
            if timeout <= 0 or not pending.event.wait(timeout):
                return

    def submit_all(requests) -> list:
        tickets = []
        for request in requests:
            try:
                tickets.append(router.submit(request))
            except Exception:
                _failure(failures, traceback.format_exc(limit=3))
                tickets.append(None)
        return tickets

    t0 = clock() + 0.01
    for index, wave in enumerate(stream.waves):
        due = t0 + index * stream.spacing_s
        if clock() - t0 > MAX_OVERRUN * seconds:
            break
        traced = traced_block(index, block, trace)
        if traced != tracing.tracing_enabled():
            # Spans of a traced wave are stitched when it lands, which
            # needs the collector on: drain before switching.
            land_until(clock() + DRAIN_LIMIT_S)
            set_tracing(traced, collector)
        land_until(due)
        sleep_until(due)
        span = None
        start = clock()
        if traced:
            with tracing.span(bench_span, wave=index) as span:
                tickets = submit_all(wave)
        else:
            tickets = submit_all(wave)
        in_flight.append(_Flight(index, due, start, wave, tickets, traced,
                                 span))
    land_until(clock() + DRAIN_LIMIT_S)
    while in_flight:   # answers that never came: wait_all degrades them
        land(in_flight.popleft())
    set_tracing(False, collector)
    return ops, served, failures


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _train_step(model, batch):
    return Trainer(model, TrainerConfig(epochs=1, batch_size=len(batch))
                   ).fit(batch)


def _finite_model(model) -> bool:
    return all(bool(np.all(np.isfinite(p.data))) for p in model.parameters())


def run_train(stream, seconds: float, trace: bool, workdir) -> Outcome:
    def build():
        model = M2G4RTP(M2G4RTPConfig())
        _train_step(model, stream.warmup)
        return model, {}

    model, setup_s, parts = repeat_setup(build)
    collector = tracing.TraceCollector()
    block = max(1, round(TRACE_BLOCK_S / TRAIN_STEP_S))
    bench_span = layers.BENCH_SPANS["train"][0]
    ops: List[Op] = []
    failures: List[str] = []
    t0 = clock()
    index = 0
    while clock() - t0 < seconds:
        batch = stream.batches[index % len(stream.batches)]
        traced = traced_block(index, block, trace)
        set_tracing(traced, collector)
        span = history = error = None
        start = clock()
        try:
            if traced:
                with tracing.span(bench_span) as span:
                    history = _train_step(model, batch)
            else:
                history = _train_step(model, batch)
        except Exception:
            error = traceback.format_exc(limit=3)
        end = clock()
        if error is None and not math.isfinite(history.train_loss[0]):
            error = f"loss {history.train_loss[0]} is not finite"
        if error is None and not _finite_model(model):
            error = "a parameter is not finite"
        if error is not None:
            _failure(failures, f"step {index}: {error}")
        ops.append(Op(start, end, [(end - start) * 1000.0], len(batch), 1,
                      int(error is not None), traced, 0.0, span))
        index += 1
    set_tracing(False, collector)
    errors = [] if _finite_model(model) else ["final parameters not finite"]
    return Outcome(ops, setup_s, parts, peak_rss_mb(), errors, failures)


RUNNERS = {"poll": run_poll, "wave": run_wave, "train": run_train}
