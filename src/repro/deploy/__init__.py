"""Deployment & resilience subsystem (paper Section VI, production).

Turns the bare :class:`~repro.service.RTPService` into an operable
deployment:

* :mod:`~repro.deploy.registry` — versioned checkpoints with JSON
  manifests, SHA-256 integrity hashing and ``latest``/pin/``active``
  resolution;
* :mod:`~repro.deploy.controller` — canary and shadow rollout of a
  candidate version with metric-driven auto-promote / auto-rollback;
* :mod:`~repro.deploy.resilience` — per-request deadline budgets,
  retry-once, a circuit breaker, queue-depth load shedding and
  graceful degradation to the cheap
  :class:`~repro.core.FallbackPredictor`;
* :mod:`~repro.deploy.faults` — deterministic fault injection (latency
  spikes, transient errors, checkpoint corruption) so all of the above
  is testable, and the one seeded modeled-latency shim
  (:class:`ModeledLatencyService`) that charges a service cost to a
  virtual clock or to the wall.
"""

from .registry import (
    CheckpointIntegrityError,
    ModelManifest,
    ModelRegistry,
    RegistryError,
    sha256_of_file,
)
from .resilience import (
    BREAKER_STATE_VALUES,
    CircuitBreaker,
    ResilienceConfig,
    ResilientRTPService,
)
from .controller import (
    DeploymentController,
    RolloutDecision,
    RolloutPolicy,
    ShadowStats,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultyService,
    ModeledLatencyService,
    TransientServiceError,
    corrupt_checkpoint,
)

__all__ = [
    "ModelRegistry", "ModelManifest", "RegistryError",
    "CheckpointIntegrityError", "sha256_of_file",
    "CircuitBreaker", "ResilienceConfig", "ResilientRTPService",
    "BREAKER_STATE_VALUES",
    "DeploymentController", "RolloutPolicy", "RolloutDecision",
    "ShadowStats",
    "FaultInjector", "FaultPlan", "FaultyService", "ModeledLatencyService",
    "TransientServiceError", "corrupt_checkpoint",
]
