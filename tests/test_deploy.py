"""Deployment subsystem units: registry, resilience, faults, fallback.

Covers the pieces of :mod:`repro.deploy` in isolation:

* ``ModelRegistry`` — manifests, ``latest``/pin/``active`` resolution,
  SHA-256 integrity rejection of corrupted checkpoints;
* hardened checkpointing — atomic save, truncated-file and
  architecture-mismatch errors that never half-apply;
* ``CircuitBreaker`` state machine on a fake clock;
* ``ResilientRTPService`` — retry-once, breaker-open degradation,
  deadline budget, queue shedding — against stub services, so every
  path is deterministic;
* ``FaultInjector`` determinism and ``FallbackPredictor`` validity.
"""

import json

import numpy as np
import pytest

from repro.core import (
    FallbackPredictor,
    M2G4RTP,
    M2G4RTPConfig,
)
from repro.deploy import (
    CheckpointIntegrityError,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    ModelRegistry,
    RegistryError,
    ResilienceConfig,
    ResilientRTPService,
    TransientServiceError,
    corrupt_checkpoint,
)
from repro.obs import MetricsRegistry
from repro.service import RTPRequest, RTPService, ServiceMonitor, ServingStage
from repro.service.rtp_service import RTPResponse
from repro.training import CheckpointError, load_checkpoint, save_checkpoint


def tiny_config(seed: int = 3) -> M2G4RTPConfig:
    return M2G4RTPConfig(
        hidden_dim=16, num_heads=2, num_encoder_layers=1,
        continuous_embed_dim=8, discrete_embed_dim=4, position_dim=4,
        courier_embed_dim=4, seed=seed)


@pytest.fixture(scope="module")
def model():
    model = M2G4RTP(tiny_config())
    model.eval()
    return model


@pytest.fixture(scope="module")
def requests(dataset):
    return [RTPRequest.from_instance(instance)
            for instance in list(dataset)[:8]]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Checkpoint hardening (satellite)
# ----------------------------------------------------------------------
class TestCheckpointHardening:
    def test_save_is_atomic_no_temp_left(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "model.npz")
        assert path.exists()
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_save_appends_npz_suffix(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "model")
        assert path.name == "model.npz"
        clone = M2G4RTP(tiny_config(seed=9))
        load_checkpoint(clone, tmp_path / "model")  # same normalisation

    def test_truncated_file_raises_clear_error(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "model.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        clone = M2G4RTP(tiny_config(seed=9))
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(clone, path)

    def test_missing_file_raises_file_not_found(self, model, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(model, tmp_path / "nope.npz")

    def test_mismatch_never_half_applies(self, tmp_path):
        big = M2G4RTP(M2G4RTPConfig(hidden_dim=24, num_heads=2,
                                    num_encoder_layers=1, seed=1))
        path = save_checkpoint(big, tmp_path / "big.npz")
        small = M2G4RTP(tiny_config(seed=2))
        before = {name: array.copy()
                  for name, array in small.state_dict().items()}
        with pytest.raises(CheckpointError):
            load_checkpoint(small, path)
        after = small.state_dict()
        for name, array in before.items():
            np.testing.assert_array_equal(array, after[name])

    def test_mismatch_error_names_parameters(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "model.npz")
        other = M2G4RTP(M2G4RTPConfig(hidden_dim=24, num_heads=2,
                                      num_encoder_layers=1))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(other, path)
        message = str(excinfo.value)
        assert "missing" in message or "shapes" in message


# ----------------------------------------------------------------------
# Model registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_register_and_load_roundtrip(self, model, tmp_path, dataset):
        registry = ModelRegistry(tmp_path / "reg")
        manifest = registry.register(
            model, created_at="2026-08-06T00:00:00Z",
            metrics={"val_mae": 21.5}, data_seed=123, notes="unit test")
        assert manifest.version == "v001"
        assert manifest.model_config["hidden_dim"] == 16
        assert registry.verify("v001")

        loaded, loaded_manifest = registry.load("v001")
        assert loaded_manifest.metrics == {"val_mae": 21.5}
        request = RTPRequest.from_instance(list(dataset)[0])
        original = model.predict(RTPService(model).builder.build(request))
        clone = loaded.predict(RTPService(loaded).builder.build(request))
        np.testing.assert_array_equal(original.route, clone.route)

    def test_latest_pin_and_active(self, model, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(model, created_at="t1")
        registry.register(model, created_at="t2")
        assert registry.versions() == ["v001", "v002"]
        assert registry.latest() == "v002"
        registry.pin("v001")
        assert registry.latest() == "v001"
        registry.unpin()
        assert registry.latest() == "v002"

        assert registry.active() is None
        registry.activate("v001")
        registry.activate("v002")
        assert registry.resolve("active") == "v002"
        assert registry.rollback_active() == "v001"
        assert registry.active() == "v001"

    def test_duplicate_and_unknown_versions_rejected(self, model, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(model, version="a", created_at="t")
        with pytest.raises(RegistryError, match="already registered"):
            registry.register(model, version="a", created_at="t")
        with pytest.raises(RegistryError, match="unknown version"):
            registry.manifest("ghost")
        with pytest.raises(RegistryError, match="invalid version"):
            registry.register(model, version="../escape", created_at="t")

    def test_corrupted_checkpoint_fails_integrity(self, model, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(model, created_at="t")
        corrupt_checkpoint(registry.checkpoint_path("v001"), seed=4)
        assert not registry.verify("v001")
        with pytest.raises(CheckpointIntegrityError, match="integrity"):
            registry.load("v001")

    @pytest.mark.parametrize("field", ["made_up_field", "cell_type",
                                       "restrict_to_neighbors"])
    def test_unknown_config_field_raises_registry_error(self, model,
                                                       tmp_path, field):
        """A manifest whose model config names a field the config does
        not have (a made-up one, or one an earlier config had) fails
        with the registry's error, naming the version and the field."""
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(model, created_at="t")
        path = registry.root / "v001" / "manifest.json"
        stored = json.loads(path.read_text())
        stored["model_config"][field] = "lstm"
        path.write_text(json.dumps(stored))
        with pytest.raises(RegistryError, match=f"'v001'.*{field}"):
            registry.load("v001")


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_seconds=10.0,
                                 clock=clock)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

        clock.advance(9.0)
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.state == "half_open" and breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(6.0)
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2

    def test_success_resets_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


# ----------------------------------------------------------------------
# Resilient service over stub backends (deterministic clocks)
# ----------------------------------------------------------------------
class StubService(ServingStage):
    """Scripted backend: each handle_batch() call consumes one step.

    A step is ``("ok", cost_s)`` or ``("fail", cost_s)``; the cost is
    applied to the fake clock so deadline logic is exact.  The script's
    last step repeats forever.
    """

    def __init__(self, clock: FakeClock, script):
        self.clock = clock
        self.script = list(script)
        self.calls = 0

    def handle_batch(self, requests):
        step = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        kind, cost = step
        self.clock.advance(cost)
        if kind == "fail":
            raise TransientServiceError("scripted failure")
        return [RTPResponse(
            route=np.arange(request.num_locations, dtype=np.int64),
            eta_minutes=np.ones(request.num_locations),
            aoi_route=None, aoi_eta_minutes=None, latency_ms=cost * 1000.0)
            for request in requests]


def make_resilient(clock, script, config=None, backlog_probe=None,
                   registry=None):
    return ResilientRTPService(
        StubService(clock, script), fallback=FallbackPredictor(),
        config=config or ResilienceConfig(), backlog_probe=backlog_probe,
        registry=registry, version="vtest", clock=clock)


class TestResilientService:
    def test_clean_path_passes_through(self, requests):
        clock = FakeClock()
        resilient = make_resilient(clock, [("ok", 0.001)])
        response = resilient.handle(requests[0])
        assert not response.degraded
        assert response.model_version == "vtest"
        assert resilient.counts["model"] == 1

    def test_retry_once_recovers_transient_failure(self, requests):
        clock = FakeClock()
        resilient = make_resilient(
            clock, [("fail", 0.001), ("ok", 0.001)])
        response = resilient.handle(requests[0])
        assert not response.degraded
        assert resilient.counts["retries"] == 1
        assert resilient.counts["errors"] == 1

    def test_double_failure_degrades_with_valid_answer(self, requests):
        clock = FakeClock()
        resilient = make_resilient(clock, [("fail", 0.001)])
        response = resilient.handle(requests[0])
        assert response.degraded and response.degraded_reason == "error"
        assert (sorted(int(i) for i in response.route)
                == list(range(requests[0].num_locations)))
        assert np.all(response.eta_minutes >= 0)

    def test_breaker_opens_then_serves_degraded(self, requests):
        clock = FakeClock()
        config = ResilienceConfig(breaker_failure_threshold=2,
                                  breaker_recovery_seconds=100.0)
        resilient = make_resilient(clock, [("fail", 0.001)], config=config)
        resilient.handle(requests[0])
        resilient.handle(requests[0])
        assert resilient.breaker.state == "open"
        backend = resilient.service
        calls_before = backend.calls
        response = resilient.handle(requests[0])
        assert response.degraded
        assert response.degraded_reason == "breaker_open"
        assert backend.calls == calls_before  # model never touched

    def test_every_request_answered_while_breaker_open(self, requests):
        clock = FakeClock()
        config = ResilienceConfig(breaker_failure_threshold=1,
                                  breaker_recovery_seconds=1e9)
        resilient = make_resilient(clock, [("fail", 0.001)], config=config)
        for request in requests:
            response = resilient.handle(request)
            assert (sorted(int(i) for i in response.route)
                    == list(range(request.num_locations)))
            assert len(response.eta_minutes) == request.num_locations
        assert resilient.counts["requests"] == len(requests)
        assert resilient.degraded_rate == 1.0

    def test_deadline_blown_serves_fallback(self, requests):
        clock = FakeClock()
        config = ResilienceConfig(deadline_ms=10.0)
        resilient = make_resilient(clock, [("ok", 0.050)], config=config)
        response = resilient.handle(requests[0])
        assert response.degraded and response.degraded_reason == "deadline"

    def test_queue_bound_sheds_load(self, requests):
        clock = FakeClock()

        class FullBacklog:
            pending = 99

        config = ResilienceConfig(max_queue_depth=10)
        resilient = make_resilient(clock, [("ok", 0.001)], config=config,
                                   backlog_probe=FullBacklog())
        response = resilient.handle(requests[0])
        assert response.degraded and response.degraded_reason == "shed"

    def test_metrics_exported_per_version(self, requests):
        clock = FakeClock()
        registry = MetricsRegistry()
        resilient = make_resilient(
            clock, [("fail", 0.001)],
            config=ResilienceConfig(breaker_failure_threshold=1,
                                    breaker_recovery_seconds=1e9),
            registry=registry)
        resilient.handle(requests[0])
        resilient.handle(requests[0])
        text = registry.render()
        assert 'rtp_model_requests_total{version="vtest"} 2' in text
        assert 'rtp_degraded_total{version="vtest",reason="error"} 1' in text
        assert ('rtp_degraded_total{version="vtest",reason="breaker_open"} 1'
                in text)
        assert 'rtp_breaker_state{version="vtest"} 2' in text

    def test_handle_batch_degrades_per_member(self, requests):
        clock = FakeClock()
        resilient = make_resilient(clock, [("fail", 0.001)])
        responses = resilient.handle_batch(requests[:3])
        assert len(responses) == 3
        assert all(r.degraded for r in responses)

    def test_failed_batch_is_retried_once(self, requests):
        clock = FakeClock()
        resilient = make_resilient(
            clock, [("fail", 0.001), ("ok", 0.001)])
        responses = resilient.handle_batch(requests[:3])
        assert len(responses) == 3
        assert not any(r.degraded for r in responses)
        assert all(r.model_version == "vtest" for r in responses)
        assert resilient.counts["retries"] == 1
        assert resilient.counts["errors"] == 1
        assert resilient.counts["model"] == 3
        assert resilient.service.calls == 2


    @pytest.mark.parametrize("monitor_outside", [False, True])
    def test_stacks_with_a_monitor_on_one_registry(self, model, requests,
                                                   monitor_outside):
        """A monitor and the resilient wrapper share one registry in
        either order; each degraded answer is counted once, by the
        resilient wrapper."""
        registry = MetricsRegistry()
        # The first request's model call and its retry both fail.
        failing = FaultInjector(FaultPlan(fail_first=2)).wrap(
            RTPService(model))
        if monitor_outside:
            stack = ServiceMonitor(ResilientRTPService(
                failing, registry=registry, version="v1",
                clock=FakeClock()), registry=registry)
        else:
            stack = ResilientRTPService(
                ServiceMonitor(failing, registry=registry),
                registry=registry, version="v1", clock=FakeClock())
        degraded = stack.handle(requests[0])
        served = stack.handle(requests[1])
        assert degraded.degraded and degraded.degraded_reason == "error"
        assert not served.degraded
        assert registry.get("rtp_degraded_responses_total").labels(
            version="v1").value == 1
        assert registry.get("rtp_model_requests_total").labels(
            version="v1").value == 2


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        decisions = []
        for _ in range(2):
            injector = FaultInjector(FaultPlan(error_rate=0.5), seed=42,
                                     sleeper=lambda s: None)
            outcome = []
            for _ in range(20):
                try:
                    injector.before_call()
                    outcome.append("ok")
                except TransientServiceError:
                    outcome.append("fail")
            decisions.append(outcome)
        assert decisions[0] == decisions[1]
        assert "fail" in decisions[0] and "ok" in decisions[0]

    def test_fail_first_is_deterministic(self):
        injector = FaultInjector(FaultPlan(fail_first=2), seed=0)
        with pytest.raises(TransientServiceError):
            injector.before_call()
        with pytest.raises(TransientServiceError):
            injector.before_call()
        injector.before_call()  # third call passes
        assert injector.errors_injected == 2

    def test_latency_spikes_use_injected_sleeper(self):
        sleeps = []
        injector = FaultInjector(
            FaultPlan(spike_rate=1.0, latency_spike_ms=25.0),
            seed=1, sleeper=sleeps.append)
        injector.before_call()
        assert sleeps == [0.025]

    def test_wrap_forwards_attributes(self, model, requests):
        service = RTPService(model, cache_size=4)
        injector = FaultInjector(FaultPlan(), seed=0)
        faulty = injector.wrap(service)
        response = faulty.handle(requests[0])
        assert len(response.route) == requests[0].num_locations
        assert faulty.queries_served == 1
        assert faulty.cache is service.cache

    def test_invalid_plan_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(latency_spike_ms=-1.0)


# ----------------------------------------------------------------------
# Fallback predictor
# ----------------------------------------------------------------------
class TestFallbackPredictor:
    def test_valid_permutation_and_etas(self, requests):
        fallback = FallbackPredictor()
        for request in requests:
            prediction = fallback.predict(request)
            assert (sorted(int(i) for i in prediction.route)
                    == list(range(request.num_locations)))
            assert np.all(prediction.eta_minutes >= 0)
            # ETAs must be non-decreasing along the visit order.
            along_route = prediction.eta_minutes[prediction.route]
            assert np.all(np.diff(along_route) >= 0)

    def test_greedy_picks_nearest_first(self, requests):
        request = requests[0]
        fallback = FallbackPredictor()
        prediction = fallback.predict(request)
        distances = [loc.distance_to(*request.courier_position)
                     for loc in request.locations]
        assert int(prediction.route[0]) == int(np.argmin(distances))

    def test_from_dataset_speed_positive(self, dataset):
        fallback = FallbackPredictor.from_dataset(dataset)
        assert fallback.speed > 0

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            FallbackPredictor(speed=0.0)
