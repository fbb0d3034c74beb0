"""In-process reproduction of the deployed M²G4RTP service (Section VI).

Pipeline per request: feature extraction (graph building) → model
inference → application responses.  The two deployed applications sit
on top:

* :class:`OrderSortingService` — Intelligent Order Sorting (VI-B):
  ranks the courier's unpicked orders by the predicted route.
* :class:`ETAService` — Minute-Level ETA (VI-C): per-location ETAs and
  "courier is arriving soon" push notifications ahead of arrival.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.batching import BatchedM2G4RTP
from ..core.model import M2G4RTP, M2G4RTPOutput
from ..graphs import GraphBuilder, MultiLevelGraph
from ..obs.tracing import span
from .batching import GraphCache, request_fingerprint
from .request import RTPRequest, ServingStage


@dataclasses.dataclass
class RTPResponse:
    """Route + per-location ETA prediction for one request.

    ``latency_ms`` is split into its two pipeline stages:
    ``build_ms`` (feature extraction / graph building, ~0 on a cache
    hit) and ``infer_ms`` (model forward; for batched handling, the
    batch's inference time amortised over its members).  The stages sum
    to ``latency_ms`` exactly.

    ``degraded`` marks a response produced by the cheap fallback path
    of the resilience layer (:mod:`repro.deploy`) instead of the model
    — still a valid route and ETA vector, flagged so clients and
    monitoring can tell; ``degraded_reason`` names the trigger
    (``breaker_open``/``deadline``/``shed``/``error``).
    ``model_version`` carries the registry version that served the
    request when the service runs under the deployment controller.
    """

    route: np.ndarray
    eta_minutes: np.ndarray
    aoi_route: Optional[np.ndarray]
    aoi_eta_minutes: Optional[np.ndarray]
    latency_ms: float
    build_ms: float = 0.0
    infer_ms: float = 0.0
    cache_hit: bool = False
    batch_size: int = 1
    degraded: bool = False
    degraded_reason: str = ""
    model_version: str = ""


class RTPService(ServingStage):
    """Wraps a trained model behind the online request shape.

    :meth:`handle_batch` answers through the padded
    :class:`~repro.core.batching.BatchedM2G4RTP` engine, i.e. the
    no-grad kernels of :mod:`repro.kernels`; ``handle`` is a batch of
    one.  :meth:`M2G4RTP.predict` — the same padded forward with
    gradients on, i.e. the Tensor code — is the specification it is
    tested against (routes identical, ETAs within 1e-6).

    Parameters
    ----------
    cache_size:
        When positive, built graphs are memoised in an LRU cache keyed
        by the request's content fingerprint, skipping feature
        extraction for repeated queries.  ``0`` disables caching; the
        predictions are identical either way.
    """

    def __init__(self, model: M2G4RTP, builder: Optional[GraphBuilder] = None,
                 cache_size: int = 0):
        self.model = model
        self.builder = builder or GraphBuilder(
            num_aoi_ids=model.config.num_aoi_ids)
        self.engine = BatchedM2G4RTP(model)
        self.cache = GraphCache(cache_size) if cache_size > 0 else None
        self._queries_served = 0

    # ------------------------------------------------------------------
    def _build_graph(self, request: RTPRequest) -> Tuple[MultiLevelGraph, bool]:
        """Build (or fetch) the graph; returns (graph, cache_hit)."""
        if self.cache is None:
            return self.builder.build(request), False
        key = request_fingerprint(request)
        graph = self.cache.get(key)
        if graph is not None:
            return graph, True
        graph = self.builder.build(request)
        self.cache.put(key, graph)
        return graph, False

    @staticmethod
    def _response(output: M2G4RTPOutput, build_ms: float, infer_ms: float,
                  cache_hit: bool, batch_size: int) -> RTPResponse:
        return RTPResponse(
            route=output.route,
            eta_minutes=output.arrival_times,
            aoi_route=output.aoi_route,
            aoi_eta_minutes=output.aoi_arrival_times,
            latency_ms=build_ms + infer_ms,
            build_ms=build_ms,
            infer_ms=infer_ms,
            cache_hit=cache_hit,
            batch_size=batch_size,
        )

    # ------------------------------------------------------------------
    def handle_batch(self, requests: Sequence[RTPRequest]) -> List[RTPResponse]:
        """Answer requests with one padded batched forward pass.

        Per-request ``infer_ms`` is the batch inference time divided by
        the batch size (the throughput-relevant amortised cost);
        ``build_ms`` is each request's own graph-building time.
        """
        if not requests:
            return []
        build_times: List[float] = []
        cache_hits: List[bool] = []
        graphs: List[MultiLevelGraph] = []
        with span("rtp.request", batch_size=len(requests)):
            for request in requests:
                start = time.perf_counter()
                with span("graph_build",
                          num_locations=request.num_locations) as build_span:
                    graph, cache_hit = self._build_graph(request)
                    build_span.set_attr("cache_hit", cache_hit)
                build_times.append((time.perf_counter() - start) * 1000.0)
                cache_hits.append(cache_hit)
                graphs.append(graph)

            infer_start = time.perf_counter()
            with span("infer"):
                outputs = self.engine.predict(graphs)
            amortised_infer = ((time.perf_counter() - infer_start) * 1000.0
                               / len(requests))
        self._queries_served += len(requests)
        return [
            self._response(output, build_ms=build_ms,
                           infer_ms=amortised_infer, cache_hit=cache_hit,
                           batch_size=len(requests))
            for output, build_ms, cache_hit
            in zip(outputs, build_times, cache_hits)
        ]

    # ------------------------------------------------------------------
    @property
    def queries_served(self) -> int:
        return self._queries_served

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0


@dataclasses.dataclass
class SortedOrder:
    """One entry of the intelligent order list (VI-B)."""

    position: int
    location_id: int
    aoi_id: int
    eta_minutes: float
    deadline_minutes: float


class OrderSortingService:
    """Ranks unpicked orders by the predicted visit route (VI-B)."""

    def __init__(self, service: RTPService):
        self.service = service

    def sort_orders(self, request: RTPRequest,
                    response: Optional[RTPResponse] = None
                    ) -> List[SortedOrder]:
        """The request's orders in predicted visit order.

        ``response`` is the service's answer to ``request`` when the
        caller already holds it (one model run feeding both
        applications); without it the service is asked.
        """
        if response is None:
            response = self.service.handle(request)
        entries = []
        for position, location_index in enumerate(response.route, start=1):
            location = request.locations[int(location_index)]
            entries.append(SortedOrder(
                position=position,
                location_id=location.location_id,
                aoi_id=location.aoi_id,
                eta_minutes=float(response.eta_minutes[int(location_index)]),
                deadline_minutes=location.deadline - request.request_time,
            ))
        return entries


@dataclasses.dataclass
class ETAEntry:
    """Minute-level ETA for one location (VI-C)."""

    location_id: int
    eta_minutes: float
    notify_at_minutes: float
    overdue_risk: bool


class ETAService:
    """Minute-level ETA plus ahead-of-arrival notification times (VI-C)."""

    def __init__(self, service: RTPService, notify_ahead_minutes: float = 10.0):
        if notify_ahead_minutes < 0:
            raise ValueError("notify_ahead_minutes must be non-negative")
        self.service = service
        self.notify_ahead_minutes = notify_ahead_minutes

    def etas(self, request: RTPRequest,
             response: Optional[RTPResponse] = None) -> List[ETAEntry]:
        """Per-location ETAs in request order.

        ``response`` is as for :meth:`OrderSortingService.sort_orders`.
        """
        if response is None:
            response = self.service.handle(request)
        entries = []
        for location_index, location in enumerate(request.locations):
            eta = float(response.eta_minutes[location_index])
            deadline_gap = location.deadline - request.request_time
            entries.append(ETAEntry(
                location_id=location.location_id,
                eta_minutes=eta,
                notify_at_minutes=max(eta - self.notify_ahead_minutes, 0.0),
                overdue_risk=eta > deadline_gap,
            ))
        return entries
