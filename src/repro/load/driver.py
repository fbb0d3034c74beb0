"""wrk2-style open-loop constant-rate driver over an RTP service stack.

Closed-loop load generators wait for each response before sending the
next request, so a slow server quietly throttles its own load and the
measured latency hides the queue (coordinated omission).  This driver
is **open-loop**: request *i* of a phase is scheduled at the fixed
wall-clock instant ``start + i / rate`` regardless of how long earlier
requests took, and latency is measured **from the scheduled arrival
time** — so when service time exceeds the arrival interval, the
growing backlog shows up as monotonically climbing latencies instead
of disappearing into an idle generator.

The driver exposes its current backlog (arrivals already due but not
yet issued) through :class:`BacklogProbe`, whose ``pending`` attribute
is the admission signal; handing the probe to
:class:`~repro.deploy.ResilientRTPService`, the
:class:`~repro.deploy.DeploymentController` or the
:class:`~repro.serving_shard.ShardRouter` as ``backlog_probe`` makes
admission-control shedding respond to real open-loop queue pressure.

Per-phase latency histograms and degraded/shed counters are emitted
through the shared :class:`~repro.obs.MetricsRegistry`
(``load_*{scenario, phase}`` series), the same registry the resilience
layer writes its ``rtp_*`` series to — one exposition tells the whole
story of a run.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import span
from ..service.rtp_service import RTPResponse

#: Tail exemplars retained per (scenario, phase) latency cell — enough
#: to cover the handful of observations above p99 in a smoke run.
LATENCY_EXEMPLARS = 8

#: Latency histogram upper bounds (ms) — wide enough that queueing
#: collapse (seconds of backlog) still lands in a finite bucket.
LOAD_LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                        500.0, 1000.0, 2000.0, 5000.0, float("inf"))

#: Degradation reasons the resilience layer can stamp on a response.
DEGRADED_REASONS = ("breaker_open", "deadline", "shed", "error")


def percentile_summary(values_ms: List[float]) -> Dict[str, float]:
    """``{mean, p50, p95, p99, max}`` of a latency sample (ms)."""
    if not values_ms:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    array = np.asarray(values_ms)
    return {
        "mean": float(array.mean()),
        "p50": float(np.percentile(array, 50)),
        "p95": float(np.percentile(array, 95)),
        "p99": float(np.percentile(array, 99)),
        "max": float(array.max()),
    }


def diurnal_rate(base: float, amplitude: float = 0.5,
                 period_s: float = 60.0,
                 phase_rad: float = 0.0) -> Callable[[float], float]:
    """Sine-modulated arrival rate: ``base * (1 + A·sin(2πt/T + φ))``.

    A compressed diurnal traffic curve — the morning/evening peaks of
    an instant-delivery platform squeezed into ``period_s`` seconds of
    load-test time.  ``amplitude`` must stay below 1 so the rate never
    reaches zero; pass the result as :attr:`LoadPhase.rate_profile`.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period_s <= 0:
        raise ValueError("period_s must be positive")

    def rate(t: float) -> float:
        return base * (1.0 + amplitude
                       * math.sin(2.0 * math.pi * t / period_s + phase_rad))

    return rate


@dataclasses.dataclass
class LoadPhase:
    """One constant- or profiled-rate segment of a scenario.

    ``mutator`` reshapes each request (GPS noise, courier churn);
    ``fault_plan`` is installed on the scenario's fault injector at
    phase entry; ``on_enter`` runs arbitrary scenario hooks (corrupt a
    checkpoint, start a canary).  ``slo=False`` phases (warm-up,
    deliberate overload) are excluded from the SLO verdict but still
    recorded in the artifact.

    ``rate_profile`` makes the arrival rate time-varying: a callable
    mapping seconds-since-phase-start to instantaneous requests per
    second (see :func:`diurnal_rate`).  The schedule is deterministic —
    each arrival is placed ``1/rate(t)`` after the previous one — so a
    profiled phase is exactly as reproducible as a constant one.
    ``profile_name`` labels the shape in the artifact ("constant" is
    omitted so existing artifacts are unchanged byte for byte).
    """

    name: str
    duration_s: float
    rate: float                     # requests per second (base rate)
    slo: bool = True
    mutator: Optional[Callable] = None      # (request, rng) -> request
    fault_plan: Optional[object] = None     # deploy.FaultPlan
    on_enter: Optional[Callable] = None     # (ScenarioContext) -> None
    rate_profile: Optional[Callable[[float], float]] = None
    profile_name: str = "constant"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.rate_profile is not None and self.profile_name == "constant":
            self.profile_name = "profiled"

    def arrival_offsets(self) -> Optional[List[float]]:
        """Arrival times (s since phase start), or ``None`` if constant.

        Constant-rate phases keep the streaming ``index / rate``
        schedule (bit-identical to the original arithmetic); profiled
        phases precompute the variable-spacing schedule here.
        """
        if self.rate_profile is None:
            return None
        offsets: List[float] = [0.0]
        t = 0.0
        while True:
            rate = self.rate_profile(t)
            if rate <= 0:
                raise ValueError(
                    f"rate_profile must stay positive (got {rate!r} "
                    f"at t={t:.3f}s of phase {self.name!r})")
            t += 1.0 / rate
            if t >= self.duration_s:
                return offsets
            offsets.append(t)

    @property
    def num_requests(self) -> int:
        """Arrivals scheduled for this phase (at least one)."""
        offsets = self.arrival_offsets()
        if offsets is not None:
            return len(offsets)
        return max(1, round(self.duration_s * self.rate))


@dataclasses.dataclass
class PhaseResult:
    """Everything measured while one phase ran."""

    name: str
    rate: float
    duration_s: float
    slo: bool
    rate_profile: str = "constant"
    loop: str = "open"       # "open" | "closed" (how arrivals were timed)
    requests: int = 0
    elapsed_s: float = 0.0
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    service_ms: List[float] = dataclasses.field(default_factory=list)
    degraded_by_reason: Dict[str, int] = dataclasses.field(
        default_factory=dict)
    valid_responses: int = 0
    invalid_responses: int = 0
    max_backlog: int = 0
    breaker_opens: int = 0   # filled in by the scenario runner (delta)

    @property
    def degraded(self) -> int:
        return sum(self.degraded_by_reason.values())

    @property
    def degraded_fraction(self) -> float:
        return self.degraded / self.requests if self.requests else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_summary(self) -> Dict[str, float]:
        return percentile_summary(self.latencies_ms)


class BacklogProbe:
    """The driver backlog as a ``pending`` count (the ``backlog_probe``
    admission signal)."""

    def __init__(self, driver: "OpenLoopDriver"):
        self._driver = driver

    @property
    def pending(self) -> int:
        return self._driver.backlog


class OpenLoopDriver:
    """Issues requests at fixed arrival times; never self-throttles.

    Parameters
    ----------
    handler:
        ``handler(request) -> RTPResponse`` — typically
        ``ResilientRTPService.handle`` or
        ``DeploymentController.handle``.
    scenario:
        Label stamped on the ``load_*`` metric series.
    clock / sleeper:
        Injectable time source; pass a
        :class:`~repro.load.clock.VirtualClock`'s callable and
        ``sleep`` for the deterministic fast path.
    registry:
        Optional shared metrics registry for the ``load_*`` series.
    recorder:
        Optional flight recorder (anything with
        ``record(trace_id, payload)``); when tracing is enabled each
        request's payload is keyed by its ``load.request`` trace id, so
        a latency exemplar resolves back to the offending request.
    closed_loop:
        Comparison mode: issue requests back-to-back like a naive
        closed-loop generator — the next request is only *scheduled*
        after the previous response returns, and latency is measured
        from issue time.  Under overload the generator self-throttles
        and the measured latencies hide the queue; running the same
        scenario both ways quantifies exactly the coordinated omission
        the open-loop default exists to avoid.
    """

    def __init__(self, handler: Callable, *, scenario: str = "adhoc",
                 clock: Callable[[], float] = time.perf_counter,
                 sleeper: Callable[[float], None] = time.sleep,
                 registry: Optional[MetricsRegistry] = None,
                 recorder=None,
                 closed_loop: bool = False):
        self.handler = handler
        self.scenario = scenario
        self.clock = clock
        self.sleeper = sleeper
        self.closed_loop = bool(closed_loop)
        self.backlog = 0
        self.probe = BacklogProbe(self)
        self.recorder = recorder
        self._registry = registry
        if registry is not None:
            self._m_requests = registry.counter(
                "load_requests_total", "Requests issued by the load driver",
                labels=("scenario", "phase"))
            self._m_latency = registry.histogram(
                "load_latency_ms",
                "Intended-arrival-to-completion latency (open-loop)",
                labels=("scenario", "phase"), buckets=LOAD_LATENCY_BUCKETS,
                exemplars=LATENCY_EXEMPLARS)
            self._m_degraded = registry.counter(
                "load_degraded_total", "Degraded responses seen by the driver",
                labels=("scenario", "phase", "reason"))
            self._m_backlog = registry.gauge(
                "load_backlog_peak", "Peak due-but-unissued arrivals",
                labels=("scenario", "phase"))
            self._m_throughput = registry.gauge(
                "load_throughput_rps", "Completed requests per second",
                labels=("scenario", "phase"))

    # ------------------------------------------------------------------
    def run_phase(self, phase: LoadPhase,
                  next_request: Callable[[], object]) -> PhaseResult:
        """Drive one phase; returns its measurements.

        Arrival times are fixed up front from the phase start — a slow
        handler only makes the driver fall *behind schedule* (growing
        ``backlog``), it never stretches the schedule itself.
        """
        result = PhaseResult(name=phase.name, rate=phase.rate,
                             duration_s=phase.duration_s, slo=phase.slo,
                             rate_profile=phase.profile_name,
                             loop="closed" if self.closed_loop else "open")
        interval = 1.0 / phase.rate
        offsets = phase.arrival_offsets()
        count = phase.num_requests if offsets is None else len(offsets)
        start = self.clock()
        next_due = start
        for index in range(count):
            if offsets is None:
                scheduled = start + index * interval
                instant_rate = phase.rate
            else:
                scheduled = start + offsets[index]
                instant_rate = phase.rate_profile(offsets[index])
            if self.closed_loop:
                # A closed-loop generator paces off its *own* progress:
                # the next send waits for the previous response, so a
                # slow server silently stretches the schedule.
                scheduled = next_due
            now = self.clock()
            if now < scheduled:
                self.sleeper(scheduled - now)
                now = self.clock()
            if not self.closed_loop:
                # Arrivals already due but not yet issued — the
                # open-loop queue the admission controller sheds on.
                # (A closed-loop generator by construction never has
                # one; that blindness is what it is here to show.)
                self.backlog = int(max(0.0, now - scheduled) * instant_rate)
                result.max_backlog = max(result.max_backlog, self.backlog)
            request = next_request()
            issued = self.clock()
            with span("load.request", scenario=self.scenario,
                      phase=phase.name, index=index) as active:
                response = self.handler(request)
            done = self.clock()
            if self.closed_loop:
                next_due = issued + 1.0 / instant_rate
                # Measured from issue: exactly the coordinated-omission
                # number — queueing delay never enters it.
                latency_ms = (done - issued) * 1000.0
            else:
                latency_ms = (done - scheduled) * 1000.0
            trace_id = active.trace_id
            if self.recorder is not None and trace_id is not None:
                self.recorder.record(trace_id, {
                    "phase": phase.name, "index": index,
                    "request": request, "response": response})
            self._record(result, phase, request, response,
                         latency_ms=latency_ms,
                         service_ms=(done - issued) * 1000.0,
                         trace_id=trace_id)
        self.backlog = 0
        result.elapsed_s = max(self.clock() - start, 0.0)
        if self._registry is not None:
            self._m_backlog.labels(
                scenario=self.scenario, phase=phase.name).set(
                result.max_backlog)
            self._m_throughput.labels(
                scenario=self.scenario, phase=phase.name).set(
                result.throughput_rps)
        return result

    def _record(self, result: PhaseResult, phase: LoadPhase, request,
                response: RTPResponse, latency_ms: float,
                service_ms: float,
                trace_id: Optional[str] = None) -> None:
        result.requests += 1
        result.latencies_ms.append(latency_ms)
        result.service_ms.append(service_ms)
        if self._is_valid(request, response):
            result.valid_responses += 1
        else:
            result.invalid_responses += 1
        if getattr(response, "degraded", False):
            reason = getattr(response, "degraded_reason", "") or "error"
            result.degraded_by_reason[reason] = (
                result.degraded_by_reason.get(reason, 0) + 1)
        if self._registry is not None:
            self._m_requests.labels(
                scenario=self.scenario, phase=phase.name).inc()
            self._m_latency.labels(
                scenario=self.scenario, phase=phase.name).observe(
                latency_ms, trace_id=trace_id)
            if getattr(response, "degraded", False):
                self._m_degraded.labels(
                    scenario=self.scenario, phase=phase.name,
                    reason=response.degraded_reason or "error").inc()

    @staticmethod
    def _is_valid(request, response: RTPResponse) -> bool:
        """A valid answer is a full permutation with matching ETAs."""
        n = request.num_locations
        return (sorted(int(i) for i in response.route) == list(range(n))
                and len(response.eta_minutes) == n)
