"""Canary / shadow rollout control over the model registry.

The controller owns the serving-side model lifecycle: it loads the
active registry version behind a resilient wrapper, hot-swaps in a
**candidate** version, and routes traffic in one of two modes:

* **canary** — a configurable fraction of live requests is answered by
  the candidate; once it has seen enough traffic the controller
  compares the per-version ``rtp_*`` series in the shared metrics
  registry (requests, degraded-by-reason, model latency) against the
  rollout policy and **auto-promotes** or **auto-rolls-back**;
* **shadow** — every request is duplicated to the candidate, whose
  answer is discarded; only the divergence (route permutation mismatch
  and ETA MAE against the primary) is recorded.

Promotion writes the registry's ``ACTIVE`` pointer, so a restarted
controller comes back serving the promoted version.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional

import numpy as np

from ..core.fallback import FallbackPredictor
from ..obs.metrics import MetricsRegistry
from ..service.request import RTPRequest
from ..service.rtp_service import RTPResponse, RTPService
from .faults import FaultInjector
from .registry import ModelRegistry
from .resilience import ResilienceConfig, ResilientRTPService

#: Degradation reasons counted against a canary candidate.
DEGRADED_REASONS = ("breaker_open", "deadline", "shed", "error")

#: Newest rollout verdicts kept in :attr:`DeploymentController.decisions`
#: — far above any scenario's count, so a controller that runs forever
#: holds bounded memory while every run's artifact keeps all of them.
MAX_DECISIONS = 1024


@dataclasses.dataclass
class RolloutPolicy:
    """Thresholds for the canary auto-promote / auto-rollback verdict."""

    canary_fraction: float = 0.2     # share of traffic sent to candidate
    min_requests: int = 20           # candidate traffic before a verdict
    max_degraded_rate: float = 0.2   # candidate degraded share → rollback
    max_latency_ratio: float = 5.0   # candidate/primary mean latency cap
    #: When set, the verdict also reads the ``rtp_quality_eta_mae``
    #: gauges (``segment="model_version"``): promotion additionally
    #: waits for ``min_quality_routes`` completed-route observations of
    #: the candidate and rolls back if its windowed ETA MAE exceeds
    #: ``max_quality_mae_ratio`` times the primary's.  ``None`` keeps
    #: the latency/degraded-only verdict.
    max_quality_mae_ratio: Optional[float] = None
    min_quality_routes: int = 0      # candidate quality obs before verdict

    def __post_init__(self) -> None:
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in (0, 1]")
        if self.min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        if self.max_degraded_rate < 0:
            raise ValueError("max_degraded_rate must be non-negative")
        if self.max_latency_ratio <= 0:
            raise ValueError("max_latency_ratio must be positive")
        if (self.max_quality_mae_ratio is not None
                and self.max_quality_mae_ratio <= 0):
            raise ValueError("max_quality_mae_ratio must be positive")
        if self.min_quality_routes < 0:
            raise ValueError("min_quality_routes must be non-negative")


@dataclasses.dataclass
class RolloutDecision:
    """Outcome of one canary evaluation (kept in ``decisions``)."""

    action: str                  # "promote" or "rollback"
    version: str
    reason: str
    candidate_requests: int
    candidate_degraded_rate: float
    candidate_latency_ms: float
    primary_latency_ms: float


@dataclasses.dataclass
class ShadowStats:
    """Divergence of the shadow candidate against the primary."""

    requests: int = 0
    route_mismatches: int = 0
    degraded_candidate: int = 0
    eta_mae_sum: float = 0.0

    @property
    def route_mismatch_rate(self) -> float:
        """Share of shadowed requests with a different permutation."""
        return self.route_mismatches / self.requests if self.requests else 0.0

    @property
    def eta_mae(self) -> float:
        """Mean absolute ETA difference vs the primary (minutes)."""
        return self.eta_mae_sum / self.requests if self.requests else 0.0


class DeploymentController:
    """Routes live traffic across registry versions with rollout logic.

    Parameters
    ----------
    registry:
        The :class:`~repro.deploy.ModelRegistry` versions are loaded
        from; promotion moves its ``ACTIVE`` pointer.
    metrics:
        Shared :class:`~repro.obs.MetricsRegistry`; per-version series
        land here and the canary verdict reads them back.
    initial:
        Version ref served at start — default: the registry's active
        version, else ``latest``.
    seed:
        Seeds the canary routing RNG (deterministic traffic split).
    backlog_probe:
        Optional queue-depth source (anything with a ``pending``
        attribute) handed to every resilient wrapper the controller
        builds, so admission control sheds on the shared backlog.  The
        load harness passes its open-loop backlog probe here.
    service_wrapper:
        Optional callable applied to each version's inner service
        (after fault injection) before the resilient wrapper — the
        load harness uses it to install modeled-latency shims under a
        virtual clock.
    """

    def __init__(self, registry: ModelRegistry, *,
                 resilience: Optional[ResilienceConfig] = None,
                 policy: Optional[RolloutPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 fallback: Optional[FallbackPredictor] = None,
                 initial: Optional[str] = None,
                 seed: int = 0,
                 clock: Callable[[], float] = time.perf_counter,
                 backlog_probe=None,
                 service_wrapper: Optional[Callable] = None):
        self.registry = registry
        self.resilience = resilience or ResilienceConfig()
        self.policy = policy or RolloutPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fallback = fallback or FallbackPredictor()
        self.clock = clock
        self.backlog_probe = backlog_probe
        self.service_wrapper = service_wrapper
        self._rng = np.random.default_rng(seed)
        self._decision_counter = self.metrics.counter(
            "rtp_rollout_decisions_total", "Canary verdicts by action",
            labels=("action",))
        if initial is None:
            initial = ("active" if registry.active() is not None else "latest")
        version = registry.resolve(initial)
        self.primary = self._make_service(version)
        if registry.active() != version:
            registry.activate(version)
        self.candidate: Optional[ResilientRTPService] = None
        self.mode: Optional[str] = None        # None | "canary" | "shadow"
        self.decisions: List[RolloutDecision] = []
        self.shadow_stats = ShadowStats()
        self._canary_requests_base = 0.0
        self._canary_degraded_base = 0.0

    # ------------------------------------------------------------------
    def _make_service(self, version: str,
                      fault_injector: Optional[FaultInjector] = None,
                      ) -> ResilientRTPService:
        model, _ = self.registry.load(version)
        service = RTPService(model)
        inner = fault_injector.wrap(service) if fault_injector else service
        if self.service_wrapper is not None:
            inner = self.service_wrapper(inner)
        return ResilientRTPService(
            inner, fallback=self.fallback, config=self.resilience,
            registry=self.metrics, version=version, clock=self.clock,
            backlog_probe=self.backlog_probe)

    # ------------------------------------------------------------------
    # Rollout lifecycle
    # ------------------------------------------------------------------
    def start_canary(self, ref: str, fraction: Optional[float] = None,
                     fault_injector: Optional[FaultInjector] = None) -> str:
        """Load ``ref`` as the canary candidate; returns its version.

        ``fault_injector`` (tests/benchmarks) wraps the candidate's
        inner service so injected faults hit only the candidate path.
        Refused while a candidate is in flight: the running rollout
        must end in a recorded promote or rollback first.
        """
        self._refuse_overlap()
        if fraction is not None:
            self.policy = dataclasses.replace(
                self.policy, canary_fraction=fraction)
        version = self._resolve_candidate(ref)
        self.candidate = self._make_service(version, fault_injector)
        # Counters in the shared registry are cumulative; the verdict
        # must judge only this canary's traffic, so snapshot baselines
        # (a re-canary after a rollback starts from a clean slate).
        self._canary_requests_base = self._metric_value(
            "rtp_model_requests_total", version=version)
        self._canary_degraded_base = self._degraded_total(version)
        self.mode = "canary"
        return version

    def start_shadow(self, ref: str,
                     fault_injector: Optional[FaultInjector] = None) -> str:
        """Load ``ref`` as a shadow candidate; returns its version."""
        self._refuse_overlap()
        version = self._resolve_candidate(ref)
        self.candidate = self._make_service(version, fault_injector)
        self.mode = "shadow"
        self.shadow_stats = ShadowStats()
        return version

    def _refuse_overlap(self) -> None:
        if self.candidate is not None:
            raise RuntimeError(
                f"a {self.mode} rollout of {self.candidate.version} is "
                "already in flight; promote or roll it back first")

    def _resolve_candidate(self, ref: str) -> str:
        version = self.registry.resolve(ref)
        if version == self.primary.version:
            # The per-version metric series would collide and the
            # canary verdict would be computed on merged numbers.
            raise ValueError(
                f"candidate {version!r} is already the serving primary; "
                "register a new version to roll out")
        return version

    def swap(self, ref: str) -> str:
        """Hot-swap the primary to an already-registered version.

        The model-zoo re-activation path: a *returning* regime swaps
        back to the version that already knows it, with no canary (the
        zoo only holds gate-approved versions) and no retrain.  Refused
        mid-rollout — a swap under a live candidate would invalidate
        the canary verdict's baselines.
        """
        version = self.registry.resolve(ref)
        if version == self.primary.version:
            return version
        if self.candidate is not None:
            raise RuntimeError(
                "cannot swap the primary while a candidate is in flight")
        self.primary = self._make_service(version)
        self.registry.activate(version)
        return version

    def promote(self, reason: str = "manual") -> RolloutDecision:
        """Make the candidate the primary and persist it as ACTIVE."""
        if self.candidate is None:
            raise RuntimeError("no candidate to promote")
        decision = self._decision("promote", reason)
        self.registry.activate(self.candidate.version)
        self.primary = self.candidate
        self._clear_candidate()
        return decision

    def rollback(self, reason: str = "manual") -> RolloutDecision:
        """Drop the candidate; the primary keeps serving."""
        if self.candidate is None:
            raise RuntimeError("no candidate to roll back")
        decision = self._decision("rollback", reason)
        self._clear_candidate()
        return decision

    def on_drift_alarm(self, alarm) -> Optional[RolloutDecision]:
        """React to a quality-drift alarm; returns the rollback, if any.

        Designed as a :meth:`QualityMonitor.on_alarm` subscriber:
        ``alarm`` is duck-typed (``metric`` / ``detector`` /
        ``statistic`` / ``threshold`` attributes).  A drifting quality
        stream during a canary is the strongest rollback signal there
        is — the latency/degraded verdict may still look healthy while
        the model is quietly wrong — so the candidate is dropped
        immediately.  Outside a canary the alarm is only counted: the
        primary has nothing to roll back to.
        """
        self.metrics.counter(
            "rtp_drift_alarms_total",
            "Quality-drift alarms seen by the deployment controller",
            labels=("metric", "detector")).labels(
            metric=str(getattr(alarm, "metric", "unknown")),
            detector=str(getattr(alarm, "detector", "unknown"))).inc()
        if self.mode != "canary" or self.candidate is None:
            return None
        return self.rollback(reason=(
            f"drift: {alarm.metric} {alarm.detector} statistic "
            f"{alarm.statistic:.3f} > {alarm.threshold:.3f}"))

    def _clear_candidate(self) -> None:
        self.candidate = None
        self.mode = None

    def _decision(self, action: str, reason: str) -> RolloutDecision:
        decision = RolloutDecision(
            action=action,
            version=self.candidate.version,
            reason=reason,
            candidate_requests=self.candidate.counts["requests"],
            candidate_degraded_rate=self.candidate.degraded_rate,
            candidate_latency_ms=self.candidate.model_latency_mean_ms(),
            primary_latency_ms=self.primary.model_latency_mean_ms(),
        )
        self.decisions.append(decision)
        del self.decisions[:-MAX_DECISIONS]
        self._decision_counter.labels(action=action).inc()
        return decision

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def handle(self, request: RTPRequest) -> RTPResponse:
        """Route one request according to the current rollout mode.

        ``mode``/``candidate``/``primary`` are read once into locals:
        a concurrent :meth:`promote` / :meth:`rollback` must never
        yank the service out from under an in-flight request — the
        request completes against the services it was admitted to, and
        its ``model_version`` stamp stays coherent.
        """
        mode = self.mode
        candidate = self.candidate
        primary = self.primary
        if mode == "canary" and candidate is not None:
            if float(self._rng.random()) < self.policy.canary_fraction:
                response = candidate.handle(request)
                self._maybe_decide()
                return response
            return primary.handle(request)
        if mode == "shadow" and candidate is not None:
            response = primary.handle(request)
            self._shadow(candidate, request, response)
            return response
        return primary.handle(request)

    def _shadow(self, candidate: ResilientRTPService, request: RTPRequest,
                primary: RTPResponse) -> None:
        shadow = candidate.handle(request)  # resilient: cannot raise
        self.shadow_stats.requests += 1
        if shadow.degraded:
            self.shadow_stats.degraded_candidate += 1
        if not np.array_equal(shadow.route, primary.route):
            self.shadow_stats.route_mismatches += 1
            self.metrics.counter(
                "rtp_shadow_divergence_total", "Shadow mismatches by kind",
                labels=("kind",)).labels(kind="route").inc()
        mae = float(np.mean(np.abs(shadow.eta_minutes - primary.eta_minutes)))
        self.shadow_stats.eta_mae_sum += mae
        self.metrics.summary(
            "rtp_shadow_eta_mae",
            "Per-request ETA MAE of shadow vs primary").observe(mae)

    # ------------------------------------------------------------------
    # Canary verdict
    # ------------------------------------------------------------------
    def _metric_value(self, name: str, **labels) -> float:
        instrument = self.metrics.get(name)
        if instrument is None:
            return 0.0
        return float(instrument.labels(**labels).value)

    def _degraded_total(self, version: str) -> float:
        return sum(
            self._metric_value("rtp_degraded_total",
                               version=version, reason=reason)
            for reason in DEGRADED_REASONS)

    def _maybe_decide(self) -> Optional[RolloutDecision]:
        """Auto-promote / auto-rollback once the candidate has traffic.

        Reads the per-version ``rtp_model_requests_total`` and
        ``rtp_degraded_total`` series from the shared metrics registry
        — the same exposition operators scrape — rather than private
        state, so the verdict is exactly what the dashboards show.
        """
        candidate = self.candidate
        if candidate is None or self.mode != "canary":
            return None
        version = candidate.version
        requests = (self._metric_value(
            "rtp_model_requests_total", version=version)
            - self._canary_requests_base)
        if requests < self.policy.min_requests:
            return None
        degraded = self._degraded_total(version) - self._canary_degraded_base
        degraded_rate = degraded / requests if requests else 0.0
        if degraded_rate > self.policy.max_degraded_rate:
            return self.rollback(
                reason=f"degraded rate {degraded_rate:.2f} > "
                       f"{self.policy.max_degraded_rate:.2f}")
        primary_latency = self.primary.model_latency_mean_ms()
        candidate_latency = candidate.model_latency_mean_ms()
        if (primary_latency > 0 and candidate_latency
                > self.policy.max_latency_ratio * primary_latency):
            return self.rollback(
                reason=f"latency {candidate_latency:.1f}ms > "
                       f"{self.policy.max_latency_ratio:.1f}x primary "
                       f"{primary_latency:.1f}ms")
        if self.policy.max_quality_mae_ratio is not None:
            routes = self._metric_value(
                "rtp_quality_routes_total",
                segment="model_version", key=version)
            if routes < self.policy.min_quality_routes:
                return None  # healthy, but quality evidence still thin
            candidate_mae = self._metric_value(
                "rtp_quality_eta_mae",
                segment="model_version", key=version)
            primary_mae = self._metric_value(
                "rtp_quality_eta_mae",
                segment="model_version", key=self.primary.version)
            if (primary_mae > 0 and candidate_mae
                    > self.policy.max_quality_mae_ratio * primary_mae):
                return self.rollback(
                    reason=f"quality: candidate eta mae "
                           f"{candidate_mae:.1f} > "
                           f"{self.policy.max_quality_mae_ratio:.2f}x "
                           f"primary {primary_mae:.1f} over "
                           f"{int(routes)} completed routes")
            return self.promote(
                reason=f"quality: candidate eta mae {candidate_mae:.1f} "
                       f"vs primary {primary_mae:.1f} over "
                       f"{int(routes)} completed routes")
        return self.promote(
            reason=f"healthy after {int(requests)} canary requests")

    # ------------------------------------------------------------------
    @property
    def active_version(self) -> str:
        """Version currently serving non-candidate traffic."""
        return self.primary.version

    def render_metrics(self) -> str:
        """Prometheus exposition of the shared registry."""
        return self.metrics.render()
