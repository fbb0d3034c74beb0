"""Serving-side graph cache keyed by a request fingerprint.

A throughput lever for the deployed service (paper Section VI,
"hundreds of thousands of queries per day"): :class:`GraphCache` is an
LRU cache of built :class:`~repro.graphs.MultiLevelGraph` features
keyed by :func:`request_fingerprint`.  Couriers poll the service while
standing still, so the exact same query recurs within seconds; caching
skips the feature extraction layer entirely.

Batching itself needs no queue here: every serving stage takes a batch
(:class:`~repro.service.request.ServingStage`), and a shard worker
drains up to ``max_batch_size`` request messages into one
``handle_batch`` call.
"""

from __future__ import annotations

import collections
import hashlib
import struct
from typing import List

from .request import RTPRequest


def request_fingerprint(request: RTPRequest) -> str:
    """Deterministic content hash of everything the graph builder reads.

    Two requests with equal fingerprints build bit-identical graphs, so
    a cached graph can be substituted without changing any prediction.
    """
    digest = hashlib.sha256()

    def put_floats(*values: float) -> None:
        digest.update(struct.pack(f"<{len(values)}d", *values))

    def put_ints(*values: int) -> None:
        digest.update(struct.pack(f"<{len(values)}q", *values))

    courier = request.courier
    put_ints(courier.courier_id, request.weather, request.weekday)
    put_floats(courier.speed, courier.working_hours, courier.attendance_rate,
               request.request_time,
               request.courier_position[0], request.courier_position[1])
    put_ints(len(request.locations), len(request.aois))
    for location in request.locations:
        put_ints(location.location_id, location.aoi_id)
        put_floats(location.coord[0], location.coord[1],
                   location.accept_time, location.deadline)
    for aoi in request.aois:
        put_ints(aoi.aoi_id, aoi.aoi_type)
        put_floats(aoi.center[0], aoi.center[1])
    return digest.hexdigest()


class GraphCache:
    """LRU cache for built graphs with hit/miss/eviction accounting.

    The counts live on the instance (``hits``/``misses``/``evictions``)
    and, once :meth:`bind_registry` is called, are also exported through
    a shared :class:`~repro.obs.metrics.MetricsRegistry` as the
    ``rtp_graph_cache_*`` counters of the Prometheus exposition.
    """

    def __init__(self, max_size: int):
        if max_size < 1:
            raise ValueError("cache max_size must be >= 1")
        self.max_size = max_size
        self._entries: "collections.OrderedDict[str, object]" = (
            collections.OrderedDict())
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._metric_hits = None
        self._metric_misses = None
        self._metric_evictions = None
        self._metric_size = None

    def bind_registry(self, registry) -> None:
        """Export the counters as ``rtp_graph_cache_*`` instruments.

        Counts accumulated before binding are carried over, so the
        exposition agrees with the instance attributes at all times.
        """
        self._metric_hits = registry.counter(
            "rtp_graph_cache_hits_total", "Graph-cache lookups served")
        self._metric_misses = registry.counter(
            "rtp_graph_cache_misses_total", "Graph-cache lookups missed")
        self._metric_evictions = registry.counter(
            "rtp_graph_cache_evictions_total", "Graph-cache LRU evictions")
        self._metric_size = registry.gauge(
            "rtp_graph_cache_size", "Graphs currently cached")
        self._metric_hits.inc(self.hits)
        self._metric_misses.inc(self.misses)
        self._metric_evictions.inc(self.evictions)
        self._metric_size.set(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """Return the cached value or ``None``; touches LRU order on hit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            if self._metric_hits is not None:
                self._metric_hits.inc()
            return self._entries[key]
        self.misses += 1
        if self._metric_misses is not None:
            self._metric_misses.inc()
        return None

    def put(self, key: str, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_size:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()
        if self._metric_size is not None:
            self._metric_size.set(len(self._entries))

    def keys(self) -> List[str]:
        """Keys in eviction order (least recently used first)."""
        return list(self._entries.keys())

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self._metric_size is not None:
            self._metric_size.set(0)
