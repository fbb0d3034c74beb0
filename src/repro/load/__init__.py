"""Constant-rate load generation and scenario replay (``repro.load``).

Proves the deployment/resilience layer under traffic instead of unit
stimuli.  The pieces:

* :mod:`~repro.load.driver` — wrk2-style **open-loop** driver: arrivals
  are scheduled by wall clock, never throttled by response latency, and
  latency is measured from the intended arrival so queueing collapse is
  visible (no coordinated omission);
* :mod:`~repro.load.clock` — :class:`VirtualClock` (with
  :class:`~repro.deploy.ModeledLatencyService` charging modeled service
  time to it) gives a deterministic simulated-time fast path where
  breaker/deadline/shed dynamics are bit-reproducible;
* :mod:`~repro.load.stream` — seeded request replay with traffic
  mutators (GPS dropout, courier churn, storm weather);
* :mod:`~repro.load.scenarios` — the composable scenario library
  (steady, surge, courier_churn, gps_dropout, fault_storm,
  checkpoint_corruption, canary_surge, shard_soak, shard_kill,
  weather_slowdown, continual_drift);
* :mod:`~repro.load.artifact` — machine-readable JSON run artifacts
  with per-phase histograms, an SLO verdict, schema validation and
  metrics-registry reconciliation.

CLI entry point: ``repro-rtp load --scenario surge --smoke``.
"""

from .artifact import (
    ARTIFACT_KIND,
    SCHEMA_PATH,
    SCHEMA_VERSION,
    ArtifactValidationError,
    SLOPolicy,
    build_artifact,
    load_schema,
    reconcile_shards,
    reconcile_with_registry,
    validate_artifact,
    write_artifact,
)
from .clock import WEATHER_SERVICE_SLOWDOWN, VirtualClock
from .driver import (
    DEGRADED_REASONS,
    LOAD_LATENCY_BUCKETS,
    BacklogProbe,
    LoadPhase,
    OpenLoopDriver,
    PhaseResult,
    diurnal_rate,
    percentile_summary,
)
from .scenarios import (
    SCENARIOS,
    WEATHER_ETA_DELAY,
    LoadRunConfig,
    Scenario,
    ScenarioContext,
    ScenarioResult,
    build_context,
    run_scenario,
    small_model,
)
from .stream import (
    RequestStream,
    build_instance_pool,
    courier_churn_mutator,
    gps_noise_mutator,
    storm_weather_mutator,
)

__all__ = [
    "ARTIFACT_KIND", "SCHEMA_PATH", "SCHEMA_VERSION",
    "ArtifactValidationError", "SLOPolicy", "build_artifact",
    "load_schema", "reconcile_shards", "reconcile_with_registry",
    "validate_artifact", "write_artifact",
    "VirtualClock", "WEATHER_SERVICE_SLOWDOWN",
    "WEATHER_ETA_DELAY",
    "DEGRADED_REASONS", "LOAD_LATENCY_BUCKETS", "BacklogProbe",
    "LoadPhase", "OpenLoopDriver", "PhaseResult", "diurnal_rate",
    "percentile_summary",
    "SCENARIOS", "LoadRunConfig", "Scenario", "ScenarioContext",
    "ScenarioResult", "build_context", "run_scenario", "small_model",
    "RequestStream", "build_instance_pool", "courier_churn_mutator",
    "gps_noise_mutator", "storm_weather_mutator",
]
