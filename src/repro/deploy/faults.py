"""Deterministic fault injection for exercising the resilience layer.

Chaos tooling for tests and benchmarks: wrap a service so a seeded RNG
decides, per call, whether to raise a transient error or add a latency
spike — and corrupt checkpoint files on disk so the registry's
integrity check has something real to catch.  Everything is driven by
``numpy.random.default_rng(seed)``, so a given seed replays the exact
same fault sequence.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable, List, Sequence, Union

import numpy as np

from ..service.request import ServingStage


class TransientServiceError(RuntimeError):
    """An injected transient failure (retry-able by design)."""


@dataclasses.dataclass
class FaultPlan:
    """What to inject and how often (probabilities per call)."""

    error_rate: float = 0.0         # P(raise TransientServiceError)
    spike_rate: float = 0.0         # P(add latency_spike_ms of delay)
    latency_spike_ms: float = 0.0
    fail_first: int = 0             # deterministically fail calls 1..N

    def __post_init__(self) -> None:
        for name in ("error_rate", "spike_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.latency_spike_ms < 0:
            raise ValueError("latency_spike_ms must be non-negative")
        if self.fail_first < 0:
            raise ValueError("fail_first must be non-negative")


class FaultInjector:
    """Seeded source of fault decisions plus service/file wrappers.

    ``sleeper`` is injectable so pure-logic tests can capture delays
    without real wall-clock sleeps.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0,
                 sleeper: Callable[[float], None] = time.sleep):
        self.plan = plan
        self.seed = seed
        self.sleeper = sleeper
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.errors_injected = 0
        self.spikes_injected = 0

    def reset(self) -> None:
        """Rewind to the start of the deterministic fault sequence."""
        self._rng = np.random.default_rng(self.seed)
        self.calls = 0
        self.errors_injected = 0
        self.spikes_injected = 0

    # ------------------------------------------------------------------
    def before_call(self) -> None:
        """Apply this call's faults: maybe sleep, maybe raise.

        Draws exactly two uniforms per call regardless of the outcome,
        so the decision sequence depends only on the seed and the call
        index — not on which faults happen to fire.
        """
        self.calls += 1
        error_draw = float(self._rng.random())
        spike_draw = float(self._rng.random())
        if self.plan.latency_spike_ms > 0 and (
                spike_draw < self.plan.spike_rate):
            self.spikes_injected += 1
            self.sleeper(self.plan.latency_spike_ms / 1000.0)
        if (self.calls <= self.plan.fail_first
                or error_draw < self.plan.error_rate):
            self.errors_injected += 1
            raise TransientServiceError(
                f"injected fault on call {self.calls} (seed {self.seed})")

    def wrap(self, service) -> "FaultyService":
        """Return a service façade that injects faults before each call."""
        return FaultyService(service, self)


class FaultyService(ServingStage):
    """Service wrapper: every call runs through the injector first."""

    def __init__(self, service, injector: FaultInjector):
        self.service = service
        self.injector = injector

    def handle_batch(self, requests: Sequence) -> List:
        """One injector decision per batch (a batch fails as a unit)."""
        if not requests:
            return []
        self.injector.before_call()
        return self.service.handle_batch(requests)

    def __getattr__(self, name):
        # Forward cache/queries_served/... to the wrapped service.
        return getattr(self.service, name)


class ModeledLatencyService(ServingStage):
    """Service shim that charges a seeded, modeled service time per call.

    Each non-empty ``handle_batch`` call draws one lognormal-shaped
    cost (``base_ms`` scaled by ``exp(sigma * N(0, 1))``) from a seeded
    RNG, hands it in seconds to ``sleeper``, then delegates to the
    wrapped service.  The real forward still runs — predictions are
    the model's — and the sleeper picks the clock the cost lands on:

    * ``VirtualClock.advance`` (the load scenarios): the forward costs
      zero *virtual* time, so the modeled cost is what makes deadline,
      shedding and breaker dynamics emerge, deterministically;
    * ``time.sleep`` (process-mode shard workers): real serving cost is
      dominated by I/O-shaped time (feature fetches, map services), and
      a sleep overlaps across processes, so the wall-clock soak bench
      measures the sharded tier's actual concurrency win.

    ``weather_factors`` optionally couples the cost to the request's
    ``weather`` feature (see
    :data:`~repro.load.clock.WEATHER_SERVICE_SLOWDOWN`).  The
    multiplier is applied *after* the lognormal draw, so enabling the
    coupling never perturbs the RNG stream — clear-weather requests
    cost exactly what they cost without it.
    """

    def __init__(self, service, sleeper: Callable[[float], None],
                 base_ms: float, sigma: float = 0.2, seed: int = 0,
                 weather_factors=None):
        if base_ms < 0:
            raise ValueError("base_ms must be non-negative")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.service = service
        self.sleeper = sleeper
        self.base_ms = base_ms
        self.sigma = sigma
        self.weather_factors = (dict(weather_factors)
                                if weather_factors is not None else None)
        self._rng = np.random.default_rng(seed)

    def _weather_factor(self, weather) -> float:
        if self.weather_factors is None or weather is None:
            return 1.0
        return float(self.weather_factors.get(int(weather), 1.0))

    def _charge(self, weather=None) -> None:
        cost_ms = self.base_ms * float(np.exp(
            self.sigma * self._rng.standard_normal()))
        cost_ms *= self._weather_factor(weather)
        self.sleeper(cost_ms / 1000.0)

    def handle_batch(self, requests: Sequence) -> List:
        # One charge per batch; the worst weather in the batch gates
        # the whole batch, like the slowest item in a fused forward.
        if not requests:
            return []
        weathers = [getattr(r, "weather", None) for r in requests]
        weathers = [w for w in weathers if w is not None]
        self._charge(max(weathers) if weathers else None)
        return self.service.handle_batch(requests)

    def __getattr__(self, name):
        # Forward cache/queries_served/... to the wrapped service.
        return getattr(self.service, name)


def corrupt_checkpoint(path: Union[str, Path], seed: int = 0,
                       num_bytes: int = 64) -> None:
    """Flip ``num_bytes`` random bytes of a checkpoint file in place.

    Deterministic given ``seed``; used to prove the registry's
    integrity hashing rejects bit-rot instead of serving garbage.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, len(data), size=min(num_bytes, len(data)))
    for position in positions:
        data[int(position)] ^= 0xFF
    path.write_bytes(bytes(data))
