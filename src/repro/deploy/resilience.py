"""Resilience layer: deadline budget, retry, breaker, shedding, fallback.

Industrial ETA stacks pair the heavy learned model with a cheap backup
path (cf. DeepETA-style systems); this module is that pairing for
:class:`~repro.service.RTPService`.  :class:`ResilientRTPService`
wraps any service-like object and guarantees **every** request gets a
valid route + ETA vector:

* **deadline budget** — each request carries a wall-clock budget; if
  the model path blows it, the cheap fallback answer is served instead
  (flagged ``degraded=true``, reason ``deadline``);
* **retry-once** — one transient model failure inside the budget is
  retried before degrading (reason ``error`` when the retry also
  fails); a batch is retried as a unit;
* **circuit breaker** — consecutive model failures open the breaker;
  while open, requests skip the model entirely (reason
  ``breaker_open``) until a recovery window lets one trial through;
* **admission control** — when the attached backlog probe (anything
  with a ``pending`` attribute, e.g. the open-loop driver's
  :class:`~repro.load.driver.BacklogProbe`) reports a backlog at the
  bound, new requests are shed straight to the fallback (reason
  ``shed``) instead of growing the queue without bound.

A batch of N ≥ 1 requests takes one path — admission → breaker →
attempt → deadline → stamp — and every member shares the batch's fate:
one padded forward answers them all, or each is degraded through the
fallback.  A single request is a batch of one.

The degraded answer comes from
:class:`~repro.core.FallbackPredictor` — a distance-greedy route with
historical-average ETAs — so availability stays at 100% even with the
model hard-down.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..core.fallback import FallbackPredictor
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import span
from ..service.request import RTPRequest, ServingStage
from ..service.rtp_service import RTPResponse

#: Gauge encoding of breaker states.
BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


def degraded_response(fallback: FallbackPredictor, request: RTPRequest,
                      reason: str, latency_ms: float = 0.0,
                      version: str = "") -> RTPResponse:
    """A valid-but-degraded answer from the cheap fallback predictor.

    The single construction point for every degraded response in the
    repo: :class:`ResilientRTPService` uses it for its own fallback
    path, and the shard router (:mod:`repro.serving_shard`) for
    load-shedding decisions made before a request ever reaches a
    worker.  Sharing it keeps the degraded-answer contract (full route
    permutation, matching ETA vector, ``degraded_reason`` stamp) in one
    place.
    """
    prediction = fallback.predict(request)
    return RTPResponse(
        route=prediction.route,
        eta_minutes=prediction.eta_minutes,
        aoi_route=None,
        aoi_eta_minutes=None,
        latency_ms=latency_ms,
        build_ms=0.0,
        infer_ms=latency_ms,
        degraded=True,
        degraded_reason=reason,
        model_version=version,
    )


class CircuitBreaker:
    """Consecutive-failure breaker with a timed half-open recovery.

    ``closed`` → (``failure_threshold`` consecutive failures) →
    ``open`` → (``recovery_seconds`` elapsed) → ``half_open`` → one
    trial: success closes, failure re-opens.  The clock is injectable
    so tests control time.
    """

    def __init__(self, failure_threshold: int = 3,
                 recovery_seconds: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_seconds < 0:
            raise ValueError("recovery_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.clock = clock
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.opens = 0   # times the breaker tripped open

    @property
    def state(self) -> str:
        """``closed``, ``open`` or ``half_open`` (time-aware)."""
        if (self._state == "open"
                and self.clock() - self._opened_at >= self.recovery_seconds):
            self._state = "half_open"
        return self._state

    def allow(self) -> bool:
        """May a model call proceed right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        """Model call succeeded: close and reset the failure streak."""
        self._consecutive_failures = 0
        self._state = "closed"

    def record_failure(self) -> None:
        """Model call failed: count it; trip open at the threshold."""
        self._consecutive_failures += 1
        if self._state == "half_open":
            self._trip()
        elif self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self.clock()
        self._consecutive_failures = 0
        self.opens += 1


@dataclasses.dataclass
class ResilienceConfig:
    """Knobs of :class:`ResilientRTPService`."""

    deadline_ms: float = 250.0          # per-request wall-clock budget
    breaker_failure_threshold: int = 3
    breaker_recovery_seconds: float = 5.0
    max_queue_depth: int = 64           # admission bound on the backlog

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")


class ResilientRTPService(ServingStage):
    """Never-fail façade over a model service.

    Parameters
    ----------
    service:
        A serving stage (``handle_batch(requests) -> responses``): an
        :class:`~repro.service.RTPService`, a monitor, or a
        fault-injected wrapper.
    fallback:
        The cheap predictor used for degraded answers.
    backlog_probe:
        Optional queue-depth source whose ``pending`` attribute gates
        admission.
    registry:
        Optional shared metrics registry; exports per-version
        ``rtp_model_*`` series, ``rtp_degraded_total`` by reason, the
        exactly-once ``rtp_degraded_responses_total`` total (always
        equal to the per-reason sum) and the ``rtp_breaker_state``
        gauge.
    version:
        Registry version label stamped on responses and metrics.
    """

    def __init__(self, service, fallback: Optional[FallbackPredictor] = None,
                 config: Optional[ResilienceConfig] = None,
                 backlog_probe=None,
                 registry: Optional[MetricsRegistry] = None,
                 version: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        self.service = service
        self.fallback = fallback or FallbackPredictor()
        self.config = config or ResilienceConfig()
        self.backlog_probe = backlog_probe
        self.version = version
        self.clock = clock
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_seconds=self.config.breaker_recovery_seconds,
            clock=clock)
        # Local tallies (always on) + optional registry instruments.
        # All tallies mutate under ``_counts_lock`` so concurrent
        # callers never lose increments; the invariants
        # ``requests == model + degraded`` and ``degraded ==
        # breaker_open + deadline + shed + error`` hold exactly (each
        # degraded response is attributed to exactly one reason).
        self.counts: Dict[str, int] = {
            "requests": 0, "model": 0, "degraded": 0, "errors": 0,
            "retries": 0, "breaker_open": 0, "deadline": 0, "shed": 0,
            "error": 0,
        }
        self._counts_lock = threading.Lock()
        self._latency_sum_ms = 0.0
        self._latency_count = 0
        self._registry = registry
        if registry is not None:
            self._m_requests = registry.counter(
                "rtp_model_requests_total", "Requests per model version",
                labels=("version",))
            self._m_errors = registry.counter(
                "rtp_model_errors_total", "Model failures per version",
                labels=("version",))
            self._m_latency = registry.summary(
                "rtp_model_latency_ms", "Model-path latency per version",
                labels=("version",))
            self._m_degraded = registry.counter(
                "rtp_degraded_total", "Degraded responses by reason",
                labels=("version", "reason"))
            self._m_degraded_responses = registry.counter(
                "rtp_degraded_responses_total",
                "Degraded responses (exactly one per degraded request; "
                "equals the sum of rtp_degraded_total over reasons)",
                labels=("version",))
            self._m_breaker = registry.gauge(
                "rtp_breaker_state",
                "Circuit breaker state (0 closed, 1 half-open, 2 open)",
                labels=("version",))

    # ------------------------------------------------------------------
    def _count(self, *keys: str) -> None:
        """Advance local tallies atomically (one lock hold per call)."""
        with self._counts_lock:
            for key in keys:
                self.counts[key] += 1

    def _publish_breaker(self) -> None:
        if self._registry is not None:
            self._m_breaker.labels(version=self.version).set(
                BREAKER_STATE_VALUES[self.breaker.state])

    def _degrade(self, requests: Sequence[RTPRequest], reason: str,
                 started: float) -> List[RTPResponse]:
        """Fallback answers for every member, each counted once."""
        responses = []
        for request in requests:
            latency_ms = (self.clock() - started) * 1000.0
            # "degraded" and its reason advance together under one lock
            # hold, so the per-reason sum always reconciles with the
            # total.
            self._count("degraded", reason)
            if self._registry is not None:
                self._m_degraded.labels(
                    version=self.version, reason=reason).inc()
                self._m_degraded_responses.labels(
                    version=self.version).inc()
            self._publish_breaker()
            responses.append(degraded_response(
                self.fallback, request, reason, latency_ms=latency_ms,
                version=self.version))
        return responses

    # ------------------------------------------------------------------
    def handle_batch(self, requests: Sequence[RTPRequest]) -> List[RTPResponse]:
        """Answer every request, degrading instead of ever failing.

        Admission, breaker state and the deadline are evaluated once
        for the whole batch — every member waits for the same forward,
        so they share one wall-clock fate — and a failed batch is
        retried once within the budget before each member is degraded
        through the fallback.
        """
        if not requests:
            return []
        started = self.clock()
        with self._counts_lock:
            self.counts["requests"] += len(requests)
        if self._registry is not None:
            self._m_requests.labels(version=self.version).inc(len(requests))
        with span("rtp.resilient", version=self.version):
            # Admission control: shed before queueing more work.
            if (self.backlog_probe is not None
                    and self.backlog_probe.pending
                    >= self.config.max_queue_depth):
                return self._degrade(requests, "shed", started)
            if not self.breaker.allow():
                return self._degrade(requests, "breaker_open", started)
            for attempt in range(2):
                try:
                    responses = self.service.handle_batch(requests)
                    break
                except Exception:
                    self._count("errors")
                    self.breaker.record_failure()
                    if self._registry is not None:
                        self._m_errors.labels(version=self.version).inc()
                    budget_left = (self.config.deadline_ms
                                   - (self.clock() - started) * 1000.0)
                    if (attempt == 0 and budget_left > 0
                            and self.breaker.allow()):
                        self._count("retries")
                        continue
                    return self._degrade(requests, "error", started)
            elapsed_ms = (self.clock() - started) * 1000.0
            if elapsed_ms > self.config.deadline_ms:
                # The model answered too late to be useful; serve the
                # cheap answer and count the slowness against the
                # breaker (slow is a failure mode).
                self.breaker.record_failure()
                return self._degrade(requests, "deadline", started)
            self.breaker.record_success()
            with self._counts_lock:
                self.counts["model"] += len(requests)
                self._latency_sum_ms += elapsed_ms * len(requests)
                self._latency_count += len(requests)
            if self._registry is not None:
                latency = self._m_latency.labels(version=self.version)
                for _ in requests:
                    latency.observe(elapsed_ms)
            self._publish_breaker()
            for response in responses:
                response.model_version = self.version
            return responses

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Consistent copy of the tallies (one lock hold).

        Unlike reading ``counts`` directly, a snapshot taken while
        other threads are serving can never show a degraded total that
        disagrees with its per-reason breakdown.
        """
        with self._counts_lock:
            return dict(self.counts)

    @property
    def degraded_rate(self) -> float:
        """Fraction of requests answered by the fallback path."""
        with self._counts_lock:
            total = self.counts["requests"]
            return self.counts["degraded"] / total if total else 0.0

    def model_latency_mean_ms(self) -> float:
        """Mean latency of successful model-path answers (or 0)."""
        with self._counts_lock:
            if not self._latency_count:
                return 0.0
            return self._latency_sum_ms / self._latency_count
