"""Load harness: open-loop scheduler, scenarios, SLO logic, accounting.

Covers the properties that make ``repro.load`` trustworthy as a proof
of the resilience layer:

* the driver is genuinely **open-loop** — arrival times never stretch
  when the service slows down, and the hidden queue shows up as
  climbing latencies (no coordinated omission);
* the virtual-clock fast path is deterministic at a fixed seed, so
  scenario outcomes (breaker opens, degraded responses) are assertable;
* the SLO verdict implements its bounds exactly;
* :class:`~repro.deploy.ResilientRTPService` counts every shed /
  deadline-expired / errored request exactly once, including under
  concurrent load (the ``rtp_degraded_responses_total`` ==
  per-reason-sum invariant);
* (``--runslow``) a 60-second wall-clock soak through the fused
  kernels serves with zero errors and matches the per-instance Tensor
  ``model.predict`` on sampled requests.
"""

import dataclasses
import json
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FallbackPredictor
from repro.deploy import (FaultPlan, ResilienceConfig, ResilientRTPService,
                          TransientServiceError)
from repro.load import (SCENARIOS, LoadPhase, LoadRunConfig, OpenLoopDriver,
                        PhaseResult, RequestStream, SLOPolicy, VirtualClock,
                        build_instance_pool, courier_churn_mutator,
                        gps_noise_mutator, run_scenario, small_model)
from repro.obs import MetricsRegistry
from repro.service import RTPRequest, RTPService, ServingStage


# ----------------------------------------------------------------------
# Virtual clock
# ----------------------------------------------------------------------
class TestVirtualClock:
    def test_advances_and_records_sleeps(self):
        clock = VirtualClock()
        assert clock() == 0.0
        clock.sleep(0.25)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(0.75)
        assert clock.sleeps == [0.25]

    def test_negative_sleep_is_noop(self):
        clock = VirtualClock(start=3.0)
        clock.sleep(-1.0)
        assert clock() == 3.0
        assert clock.sleeps == [-1.0]  # recorded, not applied

    def test_cannot_rewind(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)


# ----------------------------------------------------------------------
# Open-loop scheduler
# ----------------------------------------------------------------------
def _dummy_request(n=3):
    return SimpleNamespace(num_locations=n)


def _dummy_response(n=3, degraded=False, reason=None):
    return SimpleNamespace(route=list(range(n)), eta_minutes=[1.0] * n,
                           degraded=degraded, degraded_reason=reason)


class TestOpenLoopScheduler:
    def test_fast_service_keeps_schedule(self):
        """With instant service the driver sleeps out exactly the
        inter-arrival gaps and measures zero queueing latency."""
        clock = VirtualClock()
        driver = OpenLoopDriver(lambda request: _dummy_response(),
                                clock=clock, sleeper=clock.sleep)
        phase = LoadPhase("steady", duration_s=1.0, rate=100.0)
        result = driver.run_phase(phase, _dummy_request)
        assert result.requests == 100
        # First arrival is due immediately; the other 99 each wait one
        # 10 ms interval.
        assert len(clock.sleeps) == 99
        assert all(s == pytest.approx(0.01) for s in clock.sleeps)
        assert result.latencies_ms == pytest.approx([0.0] * 100, abs=1e-9)
        assert result.max_backlog == 0

    def test_slow_service_never_stretches_arrivals(self):
        """Open-loop property: a service slower than the arrival
        interval makes latency *climb* (the backlog is charged to each
        request), instead of silently slowing the request stream."""
        clock = VirtualClock()
        cost_s = 0.05   # 50 ms service vs 10 ms arrival interval

        def slow_handler(request):
            clock.advance(cost_s)
            return _dummy_response()

        driver = OpenLoopDriver(slow_handler, clock=clock,
                                sleeper=clock.sleep)
        phase = LoadPhase("overload", duration_s=0.2, rate=100.0)
        result = driver.run_phase(phase, _dummy_request)
        assert result.requests == 20
        # The driver never sleeps after falling behind: every arrival
        # past the first is already due when its turn comes.
        assert len(clock.sleeps) == 0
        # Latency from *intended arrival* climbs by (cost - interval)
        # per request; the final request has queued behind all others.
        deltas = np.diff(result.latencies_ms)
        assert np.all(deltas > 0)
        expected_last = (19 * (cost_s - 0.01) + cost_s) * 1000.0
        assert result.latencies_ms[-1] == pytest.approx(expected_last)
        # Service time itself stays flat — the climb is pure queueing.
        assert result.service_ms == pytest.approx([50.0] * 20)
        assert result.max_backlog > 0

    def test_backlog_probe_tracks_lag(self):
        clock = VirtualClock()

        def slow_handler(request):
            clock.advance(0.1)   # 100 ms service, 10 ms interval
            return _dummy_response()

        driver = OpenLoopDriver(slow_handler, clock=clock,
                                sleeper=clock.sleep)
        seen = []
        original = driver.handler

        def spying_handler(request):
            seen.append(driver.probe.pending)
            return original(request)

        driver.handler = spying_handler
        driver.run_phase(LoadPhase("x", duration_s=0.1, rate=100.0),
                         _dummy_request)
        # Lag accumulates ~90 ms (= 9 arrivals) per request served.
        assert seen[0] == 0
        assert seen[-1] == 81
        assert seen == sorted(seen)
        assert driver.backlog == 0   # reset after the phase

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            LoadPhase("bad", duration_s=0.0, rate=10.0)
        with pytest.raises(ValueError):
            LoadPhase("bad", duration_s=1.0, rate=-1.0)
        assert LoadPhase("tiny", duration_s=0.001, rate=1.0).num_requests == 1


# ----------------------------------------------------------------------
# Request stream & mutators
# ----------------------------------------------------------------------
class TestStreamAndMutators:
    @pytest.fixture(scope="class")
    def pool(self, world):
        return build_instance_pool(world, num_instances=6, seed=5)

    def test_round_robin_replay_is_timing_free(self, pool):
        def key(request):
            return request.locations[0].location_id

        stream = RequestStream(pool, seed=1)
        first = [key(stream.next()) for _ in range(len(pool))]
        second = [key(stream.next()) for _ in range(len(pool))]
        assert first == second
        stream.reset()
        assert [key(stream.next()) for _ in range(len(pool))] == first

    def test_gps_mutator_perturbs_copy_not_pool(self, pool):
        stream = RequestStream(pool, seed=2)
        mutator = gps_noise_mutator(dropout_rate=1.0)
        pristine = [loc.coord for loc in pool[0].locations]
        request = stream.next(mutator)
        assert any(loc.coord != orig for loc, orig
                   in zip(request.locations, pristine))
        assert request.courier_position != pool[0].courier_position
        # The shared pool must stay untouched across phases and runs.
        assert [loc.coord for loc in pool[0].locations] == pristine

    def test_churn_mutator_issues_fresh_couriers(self, pool):
        stream = RequestStream(pool, seed=3)
        mutator = courier_churn_mutator()
        ids = {stream.next(mutator).courier.courier_id for _ in range(10)}
        assert len(ids) == 10
        assert all(courier_id >= 100_000 for courier_id in ids)
        assert pool[0].courier.courier_id < 100_000


# ----------------------------------------------------------------------
# SLO verdict
# ----------------------------------------------------------------------
def _phase(name, latencies, degraded=0, slo=True, invalid=0):
    result = PhaseResult(name=name, rate=10.0, duration_s=1.0, slo=slo)
    result.requests = len(latencies)
    result.latencies_ms = list(latencies)
    result.service_ms = list(latencies)
    if degraded:
        result.degraded_by_reason = {"shed": degraded}
    result.invalid_responses = invalid
    result.valid_responses = result.requests - invalid
    return result


class TestSLOPolicy:
    def test_pass(self):
        verdict = SLOPolicy(p99_ms=100.0).evaluate(
            [_phase("a", [10.0] * 50)])
        assert verdict["passed"] and verdict["violations"] == []

    def test_p99_violation(self):
        verdict = SLOPolicy(p99_ms=100.0).evaluate(
            [_phase("a", [200.0] * 50)])
        assert not verdict["passed"]
        assert any("p99" in v for v in verdict["violations"])

    def test_degraded_violation(self):
        verdict = SLOPolicy(max_degraded_fraction=0.1).evaluate(
            [_phase("a", [1.0] * 50, degraded=20)])
        assert any("degraded" in v for v in verdict["violations"])

    def test_invalid_violation(self):
        verdict = SLOPolicy().evaluate(
            [_phase("a", [1.0] * 50, invalid=1)])
        assert any("invalid" in v for v in verdict["violations"])

    def test_non_slo_phases_excluded(self):
        verdict = SLOPolicy(p99_ms=100.0).evaluate([
            _phase("calm", [10.0] * 50),
            _phase("overload", [5000.0] * 50, degraded=50, slo=False),
        ])
        assert verdict["passed"]
        assert verdict["phases_evaluated"] == ["calm"]

    def test_no_slo_phases_is_a_violation(self):
        verdict = SLOPolicy().evaluate([_phase("x", [1.0], slo=False)])
        assert not verdict["passed"]

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            SLOPolicy(p99_ms=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(max_degraded_fraction=1.5)


# ----------------------------------------------------------------------
# Scenario composition & deterministic outcomes
# ----------------------------------------------------------------------
FAST = LoadRunConfig(phase_duration_s=1.0)


class TestScenarios:
    def test_library_is_complete(self):
        assert set(SCENARIOS) == {
            "steady", "surge", "courier_churn", "gps_dropout",
            "fault_storm", "checkpoint_corruption", "canary_surge",
            "quality_drift", "shard_soak", "shard_kill",
            "weather_slowdown", "continual_drift", "regime_cycle"}

    def test_surge_profile_composition(self):
        phases = SCENARIOS["surge"].build_phases(FAST)
        assert [p.name for p in phases] == ["baseline", "surge", "recovery"]
        assert phases[1].rate == pytest.approx(FAST.rate * FAST.surge_factor)
        assert not phases[1].slo and phases[0].slo and phases[2].slo

    def test_mutator_phases_carry_mutators(self):
        churn = SCENARIOS["courier_churn"].build_phases(FAST)
        assert churn[1].mutator is not None
        storm = SCENARIOS["fault_storm"].build_phases(FAST)
        assert isinstance(storm[1].fault_plan, FaultPlan)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("rush_hour_on_mars", FAST)

    def test_fixed_seed_is_bit_reproducible(self):
        first = run_scenario("surge", FAST).artifact
        second = run_scenario("surge", FAST).artifact
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_surge_sheds_and_recovers(self):
        result = run_scenario("surge", FAST)
        by_name = {p.name: p for p in result.phases}
        assert by_name["surge"].degraded_by_reason.get("shed", 0) > 0
        assert by_name["surge"].max_backlog > 0
        assert by_name["baseline"].degraded == 0
        assert by_name["recovery"].degraded == 0
        assert result.passed   # overload phase is excluded from the SLO

    def test_fault_storm_opens_breaker_and_degrades(self):
        """Injected faults must surface as breaker trips + degraded
        (never failed) responses — deterministically at this seed."""
        result = run_scenario("fault_storm", FAST)
        by_name = {p.name: p for p in result.phases}
        storm = by_name["storm"]
        assert storm.breaker_opens > 0
        assert storm.degraded_by_reason.get("error", 0) > 0
        assert storm.degraded_by_reason.get("breaker_open", 0) > 0
        assert storm.degraded > 0
        # Degradation is graceful: every response is still a valid
        # route + ETA (the fallback predictor answered).
        assert sum(p.invalid_responses for p in result.phases) == 0
        assert by_name["calm"].degraded == 0

    def test_checkpoint_corruption_is_refused(self):
        result = run_scenario("checkpoint_corruption", FAST)
        events = {e["event"] for e in result.artifact["events"]}
        assert "checkpoint_corruption_rejected" in events
        assert result.artifact["totals"]["degraded"] == 0

    def test_canary_surge_rolls_back(self):
        result = run_scenario("canary_surge", FAST)
        actions = [d["action"] for d in result.artifact["decisions"]]
        assert "rollback" in actions


# ----------------------------------------------------------------------
# Exactly-once degraded accounting (ResilientRTPService)
# ----------------------------------------------------------------------
class _FlakyService(ServingStage):
    """Inner service that fails in bursts (so retry-once cannot always
    rescue), with a thread-safe call counter and structurally valid
    canned responses."""

    def __init__(self, template, period=5, burst=2):
        self._template = template
        self._period = period
        self._burst = burst
        self._lock = threading.Lock()
        self._calls = 0

    def handle_batch(self, requests):
        with self._lock:
            self._calls += 1
            calls = self._calls
        if calls % self._period < self._burst:
            raise TransientServiceError(f"injected failure #{calls}")
        return [dataclasses.replace(self._template) for _ in requests]


class TestDegradedAccounting:
    @pytest.fixture()
    def request_and_template(self, world):
        instance = build_instance_pool(world, 1, seed=9)[0]
        request = RTPRequest.from_instance(instance)
        template = RTPService(small_model(0, 16)).handle(request)
        return request, template

    def test_exactly_once_under_concurrency(self, request_and_template):
        """Every request lands in exactly one bucket, and the registry
        total equals the per-reason sum, even with racing callers."""
        request, template = request_and_template
        registry = MetricsRegistry()
        service = ResilientRTPService(
            _FlakyService(template),
            fallback=FallbackPredictor(),
            config=ResilienceConfig(breaker_failure_threshold=3,
                                    breaker_recovery_seconds=0.001),
            registry=registry, version="vtest")
        threads = 8
        per_thread = 50

        def worker():
            for _ in range(per_thread):
                response = service.handle(request)
                # Degraded or not, the request is always answered.
                assert len(response.route) == request.num_locations

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        counts = service.snapshot()
        total = threads * per_thread
        assert counts["requests"] == total
        # Partition: each request is either a model answer or degraded.
        assert counts["model"] + counts["degraded"] == total
        # Each degraded response has exactly one reason.
        reasons = ("breaker_open", "deadline", "shed", "error")
        assert counts["degraded"] == sum(counts[r] for r in reasons)
        assert counts["degraded"] > 0   # the flake rate guarantees some
        # Registry reconciliation: the exactly-once total equals the
        # per-reason counters and the local tally.
        responses_total = registry.get(
            "rtp_degraded_responses_total").labels(version="vtest").value
        per_reason_total = sum(
            registry.get("rtp_degraded_total")
            .labels(version="vtest", reason=reason).value
            for reason in reasons)
        assert responses_total == per_reason_total == counts["degraded"]
        assert (registry.get("rtp_model_requests_total")
                .labels(version="vtest").value == total)

    def test_shed_and_deadline_counted_once(self, request_and_template):
        """Admission-shed requests never double-count as errors."""
        request, template = request_and_template
        registry = MetricsRegistry()
        service = ResilientRTPService(
            _FlakyService(template, period=10 ** 9, burst=0),
            config=ResilienceConfig(max_queue_depth=1),
            backlog_probe=SimpleNamespace(pending=99),   # always saturated
            registry=registry, version="vshed")
        for _ in range(20):
            assert service.handle(request).degraded_reason == "shed"
        counts = service.snapshot()
        assert counts["shed"] == counts["degraded"] == 20
        assert counts["error"] == counts["errors"] == 0
        assert (registry.get("rtp_degraded_responses_total")
                .labels(version="vshed").value == 20)


# ----------------------------------------------------------------------
# Soak (satellite: --runslow)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSoak:
    def test_steady_soak_fused_matches_predict(self):
        """A sustained wall-clock steady run through the fused kernels:
        zero hard errors, all answers valid, and sampled predictions
        equal to the per-instance Tensor ``model.predict``."""
        soak_s = float(os.environ.get("REPRO_SOAK_SECONDS", "60"))
        model = small_model(seed=17, hidden_dim=16)
        config = LoadRunConfig(rate=20.0, phase_duration_s=soak_s * 0.8,
                               virtual=False, seed=17)
        result = run_scenario("steady", config, model=model)
        for phase in result.phases:
            assert phase.degraded_by_reason.get("error", 0) == 0, (
                f"{phase.name}: hard errors during the soak")
            assert phase.invalid_responses == 0
        steady = next(p for p in result.phases if p.name == "steady")
        assert steady.requests >= int(0.8 * soak_s * config.rate)

        # Conformance on sampled requests: the served answer matches the
        # per-instance Tensor spec (routes identical, ETAs within 1e-6).
        pool = result.context.stream.instances
        sample = pool[:: max(1, len(pool) // 8)]
        service = RTPService(model)
        for instance in sample:
            request = RTPRequest.from_instance(instance)
            served = service.handle(request)
            expected = model.predict(service.builder.build(request))
            assert list(served.route) == list(expected.route)
            np.testing.assert_allclose(served.eta_minutes,
                                       expected.arrival_times,
                                       rtol=0, atol=1e-6)
