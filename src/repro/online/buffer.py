"""Experience ingestion: completed routes back into training samples.

The serving path emits ``(request, response)`` pairs; minutes later the
courier actually finishes the route and the platform knows the real
visit order and arrival times.  :class:`ExperienceBuffer` is the point
where that late ground truth re-enters the training world:

* :meth:`offer` accepts feedback from the serving thread into a
  **bounded** ingestion queue (:class:`~repro.obs.quality.FlightRecorder`
  discipline: when retraining lags serving the queue never grows
  unbounded — new routes are dropped and counted in
  ``rtp_online_dropped_routes_total``);
* :meth:`drain` folds queued feedback into a **sliding window** of the
  most recent experiences plus a seeded **reservoir tail** that keeps a
  uniform sample of everything the window evicted, so a fine-tune sees
  mostly-fresh data without completely forgetting the past;
* each accepted record is converted into a full
  :class:`~repro.data.entities.RTPInstance` — the same structure the
  offline loader produces — so the graph-building pipeline, the
  trainer and the evaluation metrics all apply unchanged.

Reservoir decisions are derived from ``(seed, eviction_index)`` via
``np.random.SeedSequence``, not from a stateful RNG, so a buffer
restored from :meth:`snapshot` continues the exact decision stream of
the buffer that wrote it.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.entities import RTPInstance
from ..obs.metrics import MetricsRegistry
from ..service.request import RTPRequest
from ..training.checkpoint import atomic_write


def instance_from_feedback(request: RTPRequest,
                           actual_route: Sequence[int],
                           actual_arrival_minutes: Sequence[float],
                           day: int = 0) -> RTPInstance:
    """Rebuild a labelled :class:`RTPInstance` from served feedback.

    ``actual_route`` is the true visit order (indices into
    ``request.locations``); ``actual_arrival_minutes`` is indexed by
    *location* (the same convention as ``RTPInstance.arrival_times``).
    AOI-level labels are derived exactly as the simulator derives them:
    an AOI is entered when its first location is visited.
    """
    route = np.asarray(actual_route, dtype=np.int64)
    arrivals = np.asarray(actual_arrival_minutes, dtype=np.float64)
    aoi_of_location = request.aoi_index_of_location()
    aoi_route: List[int] = []
    aoi_arrivals = np.zeros(len(request.aois), dtype=np.float64)
    seen = set()
    for location_index in route:
        aoi_index = int(aoi_of_location[location_index])
        if aoi_index not in seen:
            seen.add(aoi_index)
            aoi_route.append(aoi_index)
            aoi_arrivals[aoi_index] = arrivals[location_index]
    return RTPInstance(
        courier=request.courier,
        request_time=request.request_time,
        courier_position=request.courier_position,
        locations=list(request.locations),
        aois=list(request.aois),
        route=route,
        arrival_times=arrivals,
        aoi_route=np.asarray(aoi_route, dtype=np.int64),
        aoi_arrival_times=aoi_arrivals,
        weather=request.weather,
        weekday=request.weekday,
        day=day,
    )


@dataclasses.dataclass
class Experience:
    """One completed route, reconstructed as a training sample."""

    instance: RTPInstance
    labels: Dict[str, str]
    seq: int          # global ingestion sequence number
    at: float         # clock reading when accepted


class ExperienceBuffer:
    """Bounded sliding window + reservoir tail of completed routes.

    Parameters
    ----------
    capacity:
        Size of the recency window (most recent accepted experiences).
    reservoir:
        Size of the uniform sample kept over window-evicted
        experiences (the long tail a fine-tune mixes in so adaptation
        does not become catastrophic forgetting).
    max_pending:
        Bound on the ingestion queue between :meth:`offer` (serving
        thread) and :meth:`drain` (training loop).  Offers beyond the
        bound are dropped and counted — serving latency is never
        allowed to depend on retraining keeping up.
    """

    def __init__(self, capacity: int = 64, reservoir: int = 16,
                 max_pending: int = 256, seed: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 clock=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if reservoir < 0:
            raise ValueError("reservoir must be non-negative")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.capacity = int(capacity)
        self.reservoir_capacity = int(reservoir)
        self.max_pending = int(max_pending)
        self.seed = int(seed)
        self.clock = clock
        self._pending: Deque[Experience] = deque()
        self._window: Deque[Experience] = deque(maxlen=self.capacity)
        self._reservoir: List[Experience] = []
        self.ingested = 0       # accepted into the pending queue, ever
        self.dropped = 0        # rejected by the pending bound, ever
        self.evicted = 0        # pushed out of the window, ever
        self._metrics = metrics
        if metrics is not None:
            self._m_ingested = metrics.counter(
                "rtp_online_ingested_total",
                "Completed routes accepted into the experience buffer")
            self._m_dropped = metrics.counter(
                "rtp_online_dropped_routes_total",
                "Completed routes dropped because the ingestion queue "
                "was full (retraining lagged serving)")
            self._m_window = metrics.gauge(
                "rtp_online_buffer_size",
                "Experiences currently in the sliding window")
            self._m_reservoir = metrics.gauge(
                "rtp_online_reservoir_size",
                "Experiences currently in the reservoir tail")

    # ------------------------------------------------------------------
    # Serving-side ingestion
    # ------------------------------------------------------------------
    def offer(self, request: RTPRequest, actual_route: Sequence[int],
              actual_arrival_minutes: Sequence[float],
              labels: Optional[Dict[str, str]] = None) -> bool:
        """Queue one completed route; ``False`` if the bound dropped it."""
        if len(self._pending) >= self.max_pending:
            self.dropped += 1
            if self._metrics is not None:
                self._m_dropped.inc()
            return False
        instance = instance_from_feedback(
            request, actual_route, actual_arrival_minutes)
        experience = Experience(
            instance=instance, labels=dict(labels or {}),
            seq=self.ingested,
            at=float(self.clock()) if self.clock is not None else 0.0)
        self._pending.append(experience)
        self.ingested += 1
        if self._metrics is not None:
            self._m_ingested.inc()
        return True

    # ------------------------------------------------------------------
    # Training-side consumption
    # ------------------------------------------------------------------
    def drain(self) -> List[Experience]:
        """Fold queued feedback into the window; returns what was folded."""
        accepted: List[Experience] = []
        while self._pending:
            experience = self._pending.popleft()
            if len(self._window) == self.capacity:
                self._absorb_into_reservoir(self._window[0])
            self._window.append(experience)
            accepted.append(experience)
        if self._metrics is not None:
            self._m_window.set(len(self._window))
            self._m_reservoir.set(len(self._reservoir))
        return accepted

    def _absorb_into_reservoir(self, experience: Experience) -> None:
        """Algorithm-R reservoir over the eviction stream, statelessly
        seeded per item so a snapshot/restore replays identically."""
        self.evicted += 1
        if self.reservoir_capacity == 0:
            return
        if len(self._reservoir) < self.reservoir_capacity:
            self._reservoir.append(experience)
            return
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, self.evicted]))
        slot = int(rng.integers(0, self.evicted))
        if slot < self.reservoir_capacity:
            self._reservoir[slot] = experience

    # ------------------------------------------------------------------
    def window(self) -> List[Experience]:
        """Recency window, oldest first."""
        return list(self._window)

    def reservoir(self) -> List[Experience]:
        """The reservoir tail (uniform over evicted experiences)."""
        return list(self._reservoir)

    def training_set(self, limit: Optional[int] = None) -> List[Experience]:
        """Reservoir tail + recency window, oldest first.

        ``limit`` keeps the most recent experiences (the window end),
        trimming the tail first — recency is what a drift-triggered
        fine-tune is for.
        """
        combined = self._reservoir + list(self._window)
        if limit is not None and len(combined) > limit:
            combined = combined[-limit:]
        return combined

    def __len__(self) -> int:
        return len(self._window)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def window_span(self) -> Tuple[int, int]:
        """(first, last) ingestion sequence numbers in the window."""
        if not self._window:
            return (-1, -1)
        return (self._window[0].seq, self._window[-1].seq)

    def stats(self) -> Dict[str, int]:
        return {
            "ingested": self.ingested,
            "dropped": self.dropped,
            "evicted": self.evicted,
            "pending": len(self._pending),
            "window": len(self._window),
            "reservoir": len(self._reservoir),
        }

    # ------------------------------------------------------------------
    # Durability (kill/restart mid-fine-tune)
    # ------------------------------------------------------------------
    def snapshot(self, path: Union[str, Path]) -> Path:
        """Atomically persist the full buffer state to ``path``."""
        path = Path(path)
        state = {
            "capacity": self.capacity,
            "reservoir_capacity": self.reservoir_capacity,
            "max_pending": self.max_pending,
            "seed": self.seed,
            "ingested": self.ingested,
            "dropped": self.dropped,
            "evicted": self.evicted,
            "pending": list(self._pending),
            "window": list(self._window),
            "reservoir": list(self._reservoir),
        }
        with atomic_write(path, "wb") as handle:
            pickle.dump(state, handle)
        return path

    def restore(self, path: Union[str, Path]) -> None:
        """Load a snapshot written by :meth:`snapshot` into this buffer."""
        with open(path, "rb") as handle:
            state = pickle.load(handle)
        self.capacity = int(state["capacity"])
        self.reservoir_capacity = int(state["reservoir_capacity"])
        self.max_pending = int(state["max_pending"])
        self.seed = int(state["seed"])
        self.ingested = int(state["ingested"])
        self.dropped = int(state["dropped"])
        self.evicted = int(state["evicted"])
        self._pending = deque(state["pending"])
        self._window = deque(state["window"], maxlen=self.capacity)
        self._reservoir = list(state["reservoir"])
        if self._metrics is not None:
            self._m_window.set(len(self._window))
            self._m_reservoir.set(len(self._reservoir))
