"""Request router over N serving shards with admission control.

The :class:`ShardRouter` is the front door of the multi-process
serving tier:

* **consistent placement** — requests hash by courier id (SHA-256, so
  placement is stable across processes and Python hash seeds) onto a
  fixed shard: a courier's repeat queries always land on the shard
  whose :class:`~repro.service.GraphCache` already holds their graph;
* **admission control** — per-shard depth (in-flight dispatches plus
  an optional external backlog probe, e.g. the open-loop driver's) is
  bounded; beyond ``max_queue_depth`` the request is shed to a
  degraded answer through the shared
  :func:`~repro.deploy.resilience.degraded_response` fallback path —
  load never grows a queue without bound;
* **health + respawn** — a dead worker is found by
  ``process.is_alive()`` and respawned from the *current* weights with
  its outstanding requests resubmitted;
* **hot swap** — a router serves one version at a time; ``swap_to``
  broadcasts the new one once as a serialized state dict, and FIFO
  per-shard queues make the swap a *drain* (in-flight work completes
  on the old version, nothing is dropped).  Canary, promote and
  rollback belong to :class:`~repro.deploy.DeploymentController`;
* **observability** — per-shard ``rtp_shard_*`` series (requests,
  shed, queue depth/peak, respawns, swaps, latency histogram with
  exemplars) in the shared registry, and worker-process spans shipped
  back via :mod:`repro.obs.propagate` and stitched under the router's
  dispatch span.

Two deployment modes share all of this logic:

* ``inline=True`` — shards are in-process :class:`ShardRuntime`
  objects called synchronously.  Single-threaded and deterministic;
  the load scenarios use it under a virtual clock, where killing a
  shard, respawning it and every shed decision replay bit-for-bit.
* ``inline=False`` — shards are real worker processes fed through
  queues, with a collector thread resolving responses; ``submit``
  returns a ticket so callers can pipeline requests across shards (the
  soak benchmark's sustained-QPS mode).
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.fallback import FallbackPredictor
from ..deploy.resilience import ResilienceConfig, degraded_response
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.propagate import capture_context, merge_worker_spans
from ..service.monitoring import PERCENTILE_WINDOW
from .runtime import ShardRuntime, shard_worker_main

#: Latency buckets for the per-shard histogram (ms); wide enough that
#: queue collapse still lands in a finite bucket.
SHARD_LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                         500.0, 1000.0, 2000.0, 5000.0, float("inf"))

#: Tail exemplars kept per shard latency cell.
SHARD_LATENCY_EXEMPLARS = 8


@dataclasses.dataclass
class ShardConfig:
    """Deployment knobs of the sharded tier."""

    num_shards: int = 2
    max_queue_depth: int = 32      # per-shard admission bound
    max_batch_size: int = 8        # request messages per worker batch
    cache_size: int = 32           # per-shard graph-cache entries
    health_timeout_s: float = 10.0  # control-ack / liveness budget
    max_respawns: int = 3          # per-shard respawn budget
    #: When > 0, every worker wraps its service in a
    #: :class:`~repro.deploy.ModeledLatencyService` that sleeps this
    #: base cost per call — the spec-data (picklable) way to model
    #: I/O-shaped serving time in process mode, used by the wall-clock
    #: soak bench.
    sleep_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")


class ShardTicket:
    """Pending answer for one routed request (process mode)."""

    __slots__ = ("req_id", "shard", "request", "trace_ctx",
                 "submitted", "done_at", "response", "spans", "event")

    def __init__(self, req_id: int, shard: int, request, trace_ctx,
                 submitted: float):
        self.req_id = req_id
        self.shard = shard
        self.request = request
        self.trace_ctx = trace_ctx
        self.submitted = submitted
        self.done_at: Optional[float] = None
        self.response = None
        self.spans: List[Dict] = []
        self.event = threading.Event()

    @property
    def done(self) -> bool:
        return self.event.is_set()


class _ShardHandle:
    """Process-mode bookkeeping for one worker."""

    __slots__ = ("process", "task_queue", "ready")

    def __init__(self):
        self.process = None
        self.task_queue = None
        self.ready = threading.Event()


class _ShardTally:
    """Router-side per-shard accounting behind the artifact block.

    ``requests`` counts every answer; ``latencies_ms`` keeps only the
    most recent :data:`PERCENTILE_WINDOW` for the p99, so a router that
    runs forever holds bounded memory.
    """

    __slots__ = ("requests", "shed", "respawns", "swaps", "queue_peak",
                 "latencies_ms")

    def __init__(self):
        self.requests = 0
        self.shed = 0
        self.respawns = 0
        self.swaps = 0
        self.queue_peak = 0
        self.latencies_ms: deque = deque(maxlen=PERCENTILE_WINDOW)


class ShardRouter:
    """Fan requests over N shards; see module docstring for semantics.

    Parameters
    ----------
    model:
        The initial serving model; its config and state dict are
        serialized once and broadcast — live model objects never cross
        into workers.
    backlog_probe:
        Optional object with a ``pending`` attribute (the open-loop
        driver's :class:`~repro.load.BacklogProbe`) folded into the
        admission depth, so shedding responds to scheduled-but-unissued
        arrivals as well as dispatched in-flight work.
    service_wrapper:
        Inline mode only: ``service_wrapper(shard_id)`` returns a
        callable wrapping that shard's inner service (fault injection,
        modeled latency).  Not picklable, hence not available for
        worker processes.
    on_respawn / on_shed:
        Optional callbacks ``(shard_id) -> None`` fired when a dead
        shard is respawned / a request is shed; the load scenarios
        record pinned events through these.
    """

    def __init__(self, model, *, version: str = "v001",
                 config: Optional[ShardConfig] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 inline: bool = False,
                 clock: Callable[[], float] = time.perf_counter,
                 service_wrapper: Optional[Callable] = None,
                 backlog_probe=None,
                 on_respawn: Optional[Callable[[int], None]] = None,
                 on_shed: Optional[Callable[[int], None]] = None):
        self.config = config or ShardConfig()
        self.resilience = resilience or ResilienceConfig()
        self.inline = inline
        self.clock = clock
        self.backlog_probe = backlog_probe
        self.on_respawn = on_respawn
        self.on_shed = on_shed
        self.fallback = FallbackPredictor()
        self.version = version
        self.model_config = dataclasses.asdict(model.config)
        self.state = model.state_dict()
        self._req_counter = 0
        self._lock = threading.Lock()
        self._tallies = [_ShardTally()
                         for _ in range(self.config.num_shards)]
        self._in_flight = [0] * self.config.num_shards
        self._init_metrics(metrics)

        if inline:
            if service_wrapper is not None:
                self._wrappers = [service_wrapper(i)
                                  for i in range(self.config.num_shards)]
            else:
                self._wrappers = [None] * self.config.num_shards
            self.runtimes = [self._make_runtime(i)
                             for i in range(self.config.num_shards)]
        else:
            import multiprocessing as mp
            self._mp = mp.get_context("fork")
            self._result_queue = self._mp.Queue()
            self._handles = [_ShardHandle()
                             for _ in range(self.config.num_shards)]
            self._tickets: Dict[int, ShardTicket] = {}
            self._control_events: Dict[tuple, threading.Event] = {}
            self._pong_payloads: Dict[int, Dict] = {}
            self._stopping = False
            for shard in range(self.config.num_shards):
                self._start_worker(shard)
            self._collector = threading.Thread(
                target=self._collect_loop, name="shard-router-collector",
                daemon=True)
            self._collector.start()
            for shard, handle in enumerate(self._handles):
                if not handle.ready.wait(self.config.health_timeout_s):
                    raise RuntimeError(
                        f"shard {shard} failed to become ready")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _init_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        self.metrics = metrics
        if metrics is None:
            return
        self._m_requests = metrics.counter(
            "rtp_shard_requests_total", "Requests routed per shard",
            labels=("shard",))
        self._m_shed = metrics.counter(
            "rtp_shard_shed_total", "Requests shed at shard admission",
            labels=("shard",))
        self._m_respawns = metrics.counter(
            "rtp_shard_respawns_total", "Dead-shard respawns",
            labels=("shard",))
        self._m_swaps = metrics.counter(
            "rtp_shard_swaps_total", "Model swaps applied per shard",
            labels=("shard",))
        self._m_depth = metrics.gauge(
            "rtp_shard_queue_depth", "Admission depth at last placement",
            labels=("shard",))
        self._m_peak = metrics.gauge(
            "rtp_shard_queue_peak", "Peak admission depth seen",
            labels=("shard",))
        self._m_latency = metrics.histogram(
            "rtp_shard_latency_ms",
            "Dispatch-to-answer latency per shard",
            labels=("shard",), buckets=SHARD_LATENCY_BUCKETS,
            exemplars=SHARD_LATENCY_EXEMPLARS)

    def _make_runtime(self, shard: int) -> ShardRuntime:
        return ShardRuntime(
            shard, self.model_config, self.state, self.version,
            resilience=self.resilience,
            cache_size=self.config.cache_size,
            max_batch_size=self.config.max_batch_size,
            clock=self.clock, service_wrapper=self._wrappers[shard],
            sleep_latency_ms=self.config.sleep_latency_ms)

    def _spec(self) -> Dict[str, object]:
        return {
            "model_config": self.model_config, "state": self.state,
            "version": self.version, "resilience": self.resilience,
            "cache_size": self.config.cache_size,
            "max_batch_size": self.config.max_batch_size,
            "sleep_latency_ms": self.config.sleep_latency_ms,
        }

    def _start_worker(self, shard: int) -> None:
        handle = self._handles[shard]
        handle.task_queue = self._mp.Queue()
        handle.ready = threading.Event()
        handle.process = self._mp.Process(
            target=shard_worker_main,
            args=(shard, self._spec(), handle.task_queue,
                  self._result_queue),
            name=f"rtp-shard-{shard}", daemon=True)
        handle.process.start()

    # ------------------------------------------------------------------
    # Placement and admission
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    def place(self, request) -> int:
        """Stable request→shard placement by courier identity."""
        courier_id = int(request.courier.courier_id)
        digest = hashlib.sha256(
            courier_id.to_bytes(8, "little", signed=True)).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards

    def _depth(self, shard: int) -> int:
        depth = self._in_flight[shard]
        if self.backlog_probe is not None:
            depth += int(self.backlog_probe.pending)
        return depth

    def _note_depth(self, shard: int, depth: int) -> None:
        tally = self._tallies[shard]
        tally.queue_peak = max(tally.queue_peak, depth)
        if self.metrics is not None:
            self._m_depth.labels(shard=str(shard)).set(depth)
            self._m_peak.labels(shard=str(shard)).set(tally.queue_peak)

    def _shed(self, shard: int, request):
        with self._lock:
            self._tallies[shard].shed += 1
        if self.metrics is not None:
            self._m_shed.labels(shard=str(shard)).inc()
        if self.on_shed is not None:
            self.on_shed(shard)
        return degraded_response(self.fallback, request, "shed",
                                 version=self.version)

    def _record_answer(self, shard: int, latency_ms: float,
                       trace_id: Optional[str] = None) -> None:
        with self._lock:
            tally = self._tallies[shard]
            tally.requests += 1
            tally.latencies_ms.append(latency_ms)
        if self.metrics is not None:
            self._m_requests.labels(shard=str(shard)).inc()
            self._m_latency.labels(shard=str(shard)).observe(
                latency_ms, trace_id=trace_id)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def handle(self, request):
        """Answer one request synchronously (sheds instead of queueing)."""
        shard = self.place(request)
        with tracing.span("shard.route", shard=shard) as route_span:
            depth = self._depth(shard)
            self._note_depth(shard, depth)
            if depth >= self.config.max_queue_depth:
                return self._shed(shard, request)
            if self.inline:
                return self._dispatch_inline(shard, request, route_span)
            return self._wait(self._submit(shard, request))

    def submit(self, request) -> ShardTicket:
        """Pipelined submission (process mode): returns a ticket.

        Shed and degraded-by-death answers come back as already-done
        tickets, so callers treat every submission uniformly.
        """
        if self.inline:
            raise RuntimeError("submit() requires process mode; "
                               "inline routers are synchronous")
        shard = self.place(request)
        depth = self._depth(shard)
        self._note_depth(shard, depth)
        if depth >= self.config.max_queue_depth:
            response = self._shed(shard, request)
            ticket = ShardTicket(-1, shard, request, None, self.clock())
            ticket.response = response
            ticket.done_at = self.clock()
            ticket.event.set()
            return ticket
        return self._submit(shard, request)

    # -- inline ---------------------------------------------------------
    def _dispatch_inline(self, shard: int, request, route_span):
        runtime = self.runtimes[shard]
        if not runtime.alive:
            self._respawn_inline(shard)
            runtime = self.runtimes[shard]
        self._in_flight[shard] += 1
        started = self.clock()
        try:
            ctx = capture_context()
            reply = runtime.process(
                ("request", self._next_req_id(), request, ctx))[0]
        finally:
            self._in_flight[shard] -= 1
        response, spans = reply[3], reply[4]
        merge_worker_spans(spans, ctx)
        self._record_answer(shard, (self.clock() - started) * 1000.0,
                            trace_id=route_span.trace_id)
        return response

    def _respawn_inline(self, shard: int) -> None:
        self._bump_respawn(shard)
        self.runtimes[shard] = self._make_runtime(shard)

    def _bump_respawn(self, shard: int) -> None:
        tally = self._tallies[shard]
        if tally.respawns >= self.config.max_respawns:
            raise RuntimeError(
                f"shard {shard} exceeded its respawn budget "
                f"({self.config.max_respawns})")
        tally.respawns += 1
        if self.metrics is not None:
            self._m_respawns.labels(shard=str(shard)).inc()
        if self.on_respawn is not None:
            self.on_respawn(shard)

    def _next_req_id(self) -> int:
        with self._lock:
            self._req_counter += 1
            return self._req_counter

    # -- process mode ---------------------------------------------------
    def _submit(self, shard: int, request) -> ShardTicket:
        handle = self._handles[shard]
        if not handle.process.is_alive():
            self._respawn_process(shard)
        ticket = ShardTicket(self._next_req_id(), shard, request,
                             capture_context(), self.clock())
        with self._lock:
            self._tickets[ticket.req_id] = ticket
            self._in_flight[shard] += 1
        handle.task_queue.put(("request", ticket.req_id, request,
                               ticket.trace_ctx))
        return ticket

    def _wait(self, ticket: ShardTicket):
        """Block until a ticket resolves; respawn its shard if it dies."""
        deadline = time.monotonic() + self.config.health_timeout_s
        while not ticket.event.wait(timeout=0.05):
            handle = self._handles[ticket.shard]
            if not handle.process.is_alive():
                self._respawn_process(ticket.shard)
            if time.monotonic() > deadline:
                with self._lock:
                    self._tickets.pop(ticket.req_id, None)
                    self._in_flight[ticket.shard] = max(
                        0, self._in_flight[ticket.shard] - 1)
                return degraded_response(
                    self.fallback, ticket.request, "error",
                    version=self.version)
        merge_worker_spans(ticket.spans, ticket.trace_ctx)
        return ticket.response

    def wait_all(self, tickets: List[ShardTicket]) -> List:
        """Resolve a batch of tickets (pipelined callers)."""
        return [self._wait(ticket) for ticket in tickets]

    def _respawn_process(self, shard: int) -> None:
        with self._lock:
            handle = self._handles[shard]
            if handle.process.is_alive():   # another thread got here first
                return
            self._bump_respawn(shard)
            outstanding = [t for t in self._tickets.values()
                           if t.shard == shard and not t.done]
            self._in_flight[shard] = len(outstanding)
        handle.process.join(timeout=1.0)
        self._start_worker(shard)
        if not handle.ready.wait(self.config.health_timeout_s):
            raise RuntimeError(f"respawned shard {shard} never became ready")
        for ticket in outstanding:   # resubmit, nothing is dropped
            handle.task_queue.put(("request", ticket.req_id, ticket.request,
                                   ticket.trace_ctx))

    def _collect_loop(self) -> None:
        import queue as queue_mod
        while not self._stopping:
            try:
                message = self._result_queue.get(timeout=0.1)
            except queue_mod.Empty:
                continue
            kind = message[0]
            if kind == "response":
                _, shard, req_id, response, spans = message
                with self._lock:
                    ticket = self._tickets.pop(req_id, None)
                    if ticket is not None:
                        self._in_flight[shard] = max(
                            0, self._in_flight[shard] - 1)
                if ticket is None:
                    continue   # late duplicate after a respawn resubmit
                ticket.response = response
                ticket.spans = spans
                ticket.done_at = self.clock()
                latency_ms = (ticket.done_at - ticket.submitted) * 1000.0
                self._record_answer(shard, latency_ms)
                ticket.event.set()
            elif kind == "ready":
                self._handles[message[1]].ready.set()
            elif kind == "pong":
                _, shard, _ping_id, payload = message
                self._pong_payloads[shard] = payload
                event = self._control_events.get(("pong", shard))
                if event is not None:
                    event.set()
            elif kind == "swapped":
                event = self._control_events.get((kind, message[1]))
                if event is not None:
                    event.set()

    def _broadcast(self, message: tuple, ack_kind: str) -> None:
        events = {}
        for shard, handle in enumerate(self._handles):
            if not handle.process.is_alive():
                self._respawn_process(shard)  # fresh spec already applied
                continue
            event = threading.Event()
            self._control_events[(ack_kind, shard)] = event
            events[shard] = event
            handle.task_queue.put(message)
        for shard, event in events.items():
            if not event.wait(self.config.health_timeout_s):
                if not self._handles[shard].process.is_alive():
                    self._respawn_process(shard)
                else:
                    raise RuntimeError(
                        f"shard {shard} did not ack {ack_kind} in time")
            self._control_events.pop((ack_kind, shard), None)

    # ------------------------------------------------------------------
    # Lifecycle: swap, kill, shutdown
    # ------------------------------------------------------------------
    def swap_to(self, version: str, model) -> None:
        """Hot-swap every shard to ``model`` (drains FIFO)."""
        self.model_config = dataclasses.asdict(model.config)
        self.state = model.state_dict()
        self.version = version
        swap_id = self._next_req_id()
        if self.inline:
            for runtime in self.runtimes:
                if runtime.alive:
                    runtime.process(("swap", swap_id, version,
                                     self.model_config, self.state))
        else:
            self._broadcast(("swap", swap_id, version, self.model_config,
                             self.state), "swapped")
        self._count_swaps()

    def _count_swaps(self) -> None:
        for shard in range(self.num_shards):
            self._tallies[shard].swaps += 1
            if self.metrics is not None:
                self._m_swaps.labels(shard=str(shard)).inc()

    def kill_shard(self, shard: int) -> None:
        """Kill one shard (tests / kill scenarios); respawn is lazy."""
        if self.inline:
            self.runtimes[shard].alive = False
        else:
            self._handles[shard].process.terminate()
            self._handles[shard].process.join(timeout=2.0)

    def shutdown(self) -> None:
        if self.inline:
            return
        self._stopping = True
        for handle in self._handles:
            if handle.process.is_alive():
                handle.task_queue.put(("stop",))
        for handle in self._handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._collector.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def breakers(self) -> List[object]:
        """Inline shards' circuit breakers (for scenario breaker watch)."""
        if not self.inline:
            return []
        return [runtime.primary.breaker for runtime in self.runtimes]

    def shard_stats(self) -> List[Dict[str, object]]:
        """Router-side per-shard accounting (the artifact block)."""
        stats = []
        with self._lock:
            for shard, tally in enumerate(self._tallies):
                latencies = np.asarray(tally.latencies_ms, dtype=float)
                stats.append({
                    "shard": shard,
                    "requests": tally.requests,
                    "shed": tally.shed,
                    "respawns": tally.respawns,
                    "swaps": tally.swaps,
                    "queue_peak": tally.queue_peak,
                    "p99_ms": (float(np.percentile(latencies, 99))
                               if latencies.size else 0.0),
                })
        return stats

    def worker_stats(self) -> List[Dict[str, object]]:
        """Worker-side stats snapshots (ping/pong in process mode)."""
        if self.inline:
            return [runtime.stats() for runtime in self.runtimes
                    if runtime.alive]
        ping_id = self._next_req_id()
        events = {}
        for shard, handle in enumerate(self._handles):
            if not handle.process.is_alive():
                continue
            event = threading.Event()
            self._control_events[("pong", shard)] = event
            events[shard] = event
            handle.task_queue.put(("ping", ping_id))
        payloads = []
        for shard, event in events.items():
            if event.wait(self.config.health_timeout_s):
                payloads.append(self._pong_payloads[shard])
            self._control_events.pop(("pong", shard), None)
        return payloads
