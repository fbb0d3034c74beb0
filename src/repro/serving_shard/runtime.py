"""Per-shard serving engine: one batched model stack per shard.

A :class:`ShardRuntime` is everything one serving shard owns — rebuilt
from plain data (model config dict + state-dict arrays) so the same
class backs both deployment modes of the
:class:`~repro.serving_shard.ShardRouter`:

* **process mode** — :func:`shard_worker_main` constructs the runtime
  *inside* the worker process from the spec message, so nothing built
  in the router process (model, caches) is ever shared through
  ``fork``;
* **inline mode** — the router holds N runtimes in-process (the
  deterministic virtual-clock path of the load scenarios).  The fused
  kernels keep no scratch between calls, so shards that share a
  thread share no buffers either.

A shard serves one installed version, the full single-process
serving story: :class:`~repro.service.RTPService` (own
:class:`~repro.service.GraphCache`) wrapped by
:class:`~repro.deploy.ResilientRTPService` (deadline/breaker/fallback,
fixed ``model_version`` stamp).  The worker loop drains up to
``max_batch_size`` request messages per wake-up into one
``handle_batch`` call — one padded batched forward.  A hot model swap
arrives as a queue message; FIFO ordering is what makes it a *drain* —
every request enqueued before the swap message is answered by the old
version, every one after by the new, and no request is ever dropped.
"""

from __future__ import annotations

import os
import queue
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import M2G4RTP, M2G4RTPConfig
from ..core.fallback import FallbackPredictor
from ..deploy.faults import ModeledLatencyService
from ..deploy.resilience import ResilienceConfig, ResilientRTPService
from ..obs import tracing
from ..obs.propagate import worker_span_session
from ..service import RTPService


def build_model(model_config: Dict[str, object],
                state: Dict[str, np.ndarray]) -> M2G4RTP:
    """Rebuild an eval-mode model from its config dict + state dict.

    This is the "weights distributed once per version" half of the
    serving tier: the router serialises ``dataclasses.asdict(config)``
    and ``model.state_dict()`` exactly once per version and broadcasts
    them; every shard rebuilds locally.
    """
    model = M2G4RTP(M2G4RTPConfig(**model_config))
    model.load_state_dict(state)
    model.eval()
    return model


class ShardRuntime:
    """The complete serving stack of one shard.

    Parameters mirror what fits in a picklable spec message: the model
    arrives as ``(model_config, state)`` plain data, never as a live
    object.  ``service_wrapper`` (inline mode only — closures do not
    cross process boundaries) wraps the inner service of every
    installed version, which is how the load scenarios install fault
    injection and modeled-latency shims per shard.
    """

    def __init__(self, shard_id: int, model_config: Dict[str, object],
                 state: Dict[str, np.ndarray], version: str, *,
                 resilience: Optional[ResilienceConfig] = None,
                 cache_size: int = 32,
                 max_batch_size: int = 8,
                 clock: Callable[[], float] = time.perf_counter,
                 service_wrapper: Optional[Callable] = None,
                 sleep_latency_ms: float = 0.0):
        self.shard_id = int(shard_id)
        self.clock = clock
        self.cache_size = cache_size
        self.max_batch_size = max_batch_size
        self.resilience = resilience or ResilienceConfig()
        if service_wrapper is None and sleep_latency_ms > 0.0:
            # Spec-data path for process workers: the shim is built here,
            # post-fork, from plain numbers, so no closure crosses the
            # fork; it charges its modeled cost to the wall clock.
            service_wrapper = (
                lambda inner: ModeledLatencyService(
                    inner, time.sleep, sleep_latency_ms, sigma=0.25,
                    seed=1000 + self.shard_id))
        self.service_wrapper = service_wrapper
        self.fallback = FallbackPredictor()
        self.alive = True
        self.requests = 0
        self.swaps = 0
        # Batches served and their requests, over every version ever
        # installed, so a swap never resets them.
        self.batches_flushed = 0
        self.requests_flushed = 0
        self.primary = self._make_service(model_config, state, version)

    # ------------------------------------------------------------------
    def _make_service(self, model_config: Dict[str, object],
                   state: Dict[str, np.ndarray],
                   version: str) -> ResilientRTPService:
        """One installed version: resilient wrap over its own service."""
        service = RTPService(build_model(model_config, state),
                             cache_size=self.cache_size)
        if self.service_wrapper is not None:
            service = self.service_wrapper(service)
        return ResilientRTPService(
            service, fallback=self.fallback, config=self.resilience,
            version=version, clock=self.clock)

    # ------------------------------------------------------------------
    # Message protocol (plain picklable tuples)
    # ------------------------------------------------------------------
    def process(self, message: Tuple) -> List[Tuple]:
        """Handle one control or request message; returns replies."""
        kind = message[0]
        if kind == "request":
            return self.process_requests([message])
        if kind == "swap":
            _, swap_id, version, model_config, state = message
            self.primary = self._make_service(model_config, state, version)
            self.swaps += 1
            return [("swapped", self.shard_id, swap_id, version)]
        if kind == "ping":
            return [("pong", self.shard_id, message[1], self.stats())]
        raise ValueError(f"shard {self.shard_id}: unknown message "
                         f"kind {kind!r}")

    def process_requests(self, messages: Sequence[Tuple]) -> List[Tuple]:
        """Serve a drained batch of ``("request", req_id, request,
        trace_ctx)`` messages as one ``handle_batch`` call.

        Reply order matches message order.  Worker-side spans are
        captured under a session keyed by the first message that
        shipped a trace context and returned with that message's reply
        (one flush serves many traces; the router stitches the shipped
        tree under its own dispatch span).
        """
        ctx_index = next((i for i, m in enumerate(messages)
                          if m[3] is not None), 0)
        session = worker_span_session(messages[ctx_index][3])
        with session:
            with tracing.span("shard.serve", shard=self.shard_id,
                              batch=len(messages)):
                responses = self.primary.handle_batch(
                    [message[2] for message in messages])
            spans = session.export()
        self.requests += len(messages)
        self.batches_flushed += 1
        self.requests_flushed += len(messages)
        return [("response", self.shard_id, message[1], response,
                 spans if index == ctx_index else [])
                for index, (message, response)
                in enumerate(zip(messages, responses))]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Plain-data snapshot of the shard's internal accounting."""
        cache = self.primary.service.cache
        return {
            "shard": self.shard_id,
            "pid": os.getpid(),
            "version": self.primary.version,
            "requests": self.requests,
            "swaps": self.swaps,
            "batches_flushed": self.batches_flushed,
            "requests_flushed": self.requests_flushed,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "resilient": self.primary.snapshot(),
        }


def shard_worker_main(shard_id: int, spec: Dict[str, object],
                      task_queue, result_queue) -> None:
    """Entry point of one shard worker process.

    Builds the runtime from the plain-data ``spec`` (model config,
    state arrays, knobs) *after* the fork, announces readiness, then
    blocks on its task queue: it drains up to ``max_batch_size``
    consecutive request messages per wake-up into one padded batch and
    answers control messages in arrival order.  ``stop`` exits the loop
    without a reply; the router finds a dead worker with
    ``process.is_alive()``.
    """
    runtime = ShardRuntime(
        shard_id, spec["model_config"], spec["state"], spec["version"],
        resilience=spec.get("resilience"),
        cache_size=spec.get("cache_size", 32),
        max_batch_size=spec.get("max_batch_size", 8),
        sleep_latency_ms=spec.get("sleep_latency_ms", 0.0))
    result_queue.put(("ready", shard_id, os.getpid()))
    held: Optional[Tuple] = None
    while True:
        if held is not None:
            message, held = held, None
        else:
            message = task_queue.get()
        if message[0] == "stop":
            return
        if message[0] == "request":
            batch = [message]
            while len(batch) < runtime.max_batch_size:
                try:
                    nxt = task_queue.get_nowait()
                except queue.Empty:
                    break
                if nxt[0] == "request":
                    batch.append(nxt)
                else:
                    held = nxt  # control messages keep FIFO order
                    break
            replies = runtime.process_requests(batch)
        else:
            replies = runtime.process(message)
        for reply in replies:
            result_queue.put(reply)
