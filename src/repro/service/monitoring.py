"""Operational monitoring for the RTP service.

A production RTP service (paper Section VI: "hundreds of thousands of
queries per day") needs observability.  :class:`ServiceMonitor` wraps
an :class:`~repro.service.rtp_service.RTPService` and emits every
counter through a shared :class:`~repro.obs.metrics.MetricsRegistry` —
the same registry family used by the trainer's telemetry — rendered in
Prometheus exposition format by :meth:`ServiceMonitor.render_metrics`.

Exposed series: request/error totals, a latency histogram, build/infer
summaries, a per-call batch-size histogram (a single request is a
batch of one), a route-length summary and the service's graph-cache
counters.  Degraded answers are counted by
:class:`~repro.deploy.ResilientRTPService`, which produces them
(``rtp_degraded_responses_total``), so the two stages can share one
registry in either order.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import List, Optional

import numpy as np

from ..obs.metrics import MetricsRegistry
from .request import ServingStage
from .rtp_service import RTPResponse, RTPService

#: Latency histogram bucket upper bounds (milliseconds).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, float("inf"))

#: Batch-size histogram bucket upper bounds (requests per flush).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, float("inf"))

#: Most recent latencies kept for the p50/p95 fields of
#: :meth:`ServiceMonitor.stats`; means, max and counts cover every
#: request, so memory stays bounded however long the service runs.
PERCENTILE_WINDOW = 4096


@dataclasses.dataclass
class ServiceStats:
    """A snapshot of the monitor's counters."""

    queries: int
    errors: int
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    max_latency_ms: float
    mean_route_length: float
    # Build-vs-infer split of the latency (graph building vs model
    # forward) plus the service's graph-cache counters.
    mean_build_ms: float = 0.0
    mean_infer_ms: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


class ServiceMonitor(ServingStage):
    """Wraps a service; every request it answers is timed and counted.

    Parameters
    ----------
    registry:
        Metrics registry to emit through.  Pass a shared registry to
        combine service metrics with trainer telemetry in one
        exposition; by default the monitor owns a fresh one (exposed as
        :attr:`registry`).
    """

    def __init__(self, service: RTPService,
                 buckets=DEFAULT_BUCKETS,
                 registry: Optional[MetricsRegistry] = None):
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted")
        self.service = service
        self.buckets = tuple(buckets)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._queries = self.registry.counter(
            "rtp_queries_total", "Requests handled")
        self._errors = self.registry.counter(
            "rtp_errors_total", "Requests that raised (per enqueued request)")
        # Exemplars: when tracing is on, tail observations keep the
        # trace id of the request that produced them (auto-captured
        # from the active span at observe time).
        self._latency = self.registry.histogram(
            "rtp_latency_ms", "End-to-end request latency",
            buckets=self.buckets, exemplars=8)
        self._build = self.registry.summary(
            "rtp_build_ms", "Graph-building (feature extraction) time")
        self._infer = self.registry.summary(
            "rtp_infer_ms", "Model forward time (amortised for batches)")
        self._route_length = self.registry.summary(
            "rtp_route_length", "Locations per predicted route")
        self._batch_size = self.registry.histogram(
            "rtp_batch_size", "Requests per handle_batch call",
            buckets=BATCH_SIZE_BUCKETS)
        self._cache_hits = self.registry.gauge(
            "rtp_cache_hits_total", "Graph-cache hits")
        self._cache_misses = self.registry.gauge(
            "rtp_cache_misses_total", "Graph-cache misses")
        # Export the service's GraphCache counters (hits/misses/
        # evictions/size) as rtp_graph_cache_* through this registry.
        cache = getattr(service, "cache", None)
        if cache is not None and hasattr(cache, "bind_registry"):
            cache.bind_registry(self.registry)
        # Exact running totals for the count/mean/max fields of stats(),
        # plus a bounded window of recent latencies for its percentiles.
        self._totals_lock = threading.Lock()
        self._count = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._route_length_sum = 0
        self._split_count = 0
        self._build_sum = 0.0
        self._infer_sum = 0.0
        self._recent_latencies: deque = deque(maxlen=PERCENTILE_WINDOW)

    # ------------------------------------------------------------------
    def handle_batch(self, requests) -> List[RTPResponse]:
        """Timed handling; every member is counted individually.

        A failed batch fails every request in it, so the error counter
        advances by the number of enqueued requests, not by one.
        """
        if not requests:
            return []
        start = time.perf_counter()
        try:
            responses = self.service.handle_batch(requests)
        except Exception:
            self._errors.inc(len(requests))
            raise
        per_request = ((time.perf_counter() - start) * 1000.0
                       / len(requests))
        self._batch_size.observe(len(requests))
        for response in responses:
            self._observe(per_request, len(response.route), response)
        return responses

    def _observe(self, latency_ms: float, route_length: int,
                 response: Optional[RTPResponse] = None) -> None:
        with self._totals_lock:
            self._count += 1
            self._latency_sum += latency_ms
            self._latency_max = max(self._latency_max, latency_ms)
            self._recent_latencies.append(latency_ms)
            self._route_length_sum += route_length
            if response is not None:
                self._split_count += 1
                self._build_sum += response.build_ms
                self._infer_sum += response.infer_ms
        self._queries.inc()
        self._latency.observe(latency_ms)
        self._route_length.observe(route_length)
        if response is not None:
            self._build.observe(response.build_ms)
            self._infer.observe(response.infer_ms)

    def _sync_cache_counters(self) -> None:
        self._cache_hits.set(getattr(self.service, "cache_hits", 0))
        self._cache_misses.set(getattr(self.service, "cache_misses", 0))

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        cache_hits = getattr(self.service, "cache_hits", 0)
        cache_misses = getattr(self.service, "cache_misses", 0)
        errors = int(self._errors.value)
        with self._totals_lock:
            count = self._count
            if not count:
                return ServiceStats(queries=0, errors=errors,
                                    mean_latency_ms=0.0, p50_latency_ms=0.0,
                                    p95_latency_ms=0.0, max_latency_ms=0.0,
                                    mean_route_length=0.0,
                                    cache_hits=cache_hits,
                                    cache_misses=cache_misses)
            recent = np.asarray(self._recent_latencies)
            splits = self._split_count
            return ServiceStats(
                queries=count,
                errors=errors,
                mean_latency_ms=self._latency_sum / count,
                p50_latency_ms=float(np.percentile(recent, 50)),
                p95_latency_ms=float(np.percentile(recent, 95)),
                max_latency_ms=self._latency_max,
                mean_route_length=self._route_length_sum / count,
                mean_build_ms=self._build_sum / splits if splits else 0.0,
                mean_infer_ms=self._infer_sum / splits if splits else 0.0,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
            )

    def render_metrics(self) -> str:
        """Prometheus-exposition text of the shared registry."""
        self._sync_cache_counters()
        return self.registry.render()
