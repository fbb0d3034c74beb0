"""Diurnal arrival profiles and the sharded load scenarios.

* :func:`~repro.load.diurnal_rate` is a well-behaved sine profile:
  correct period/amplitude, mean rate ≈ base, and it rejects shapes
  that would stall the schedule (rate touching zero);
* profiled arrival schedules are deterministic and denser at the peak
  than the trough, while constant-rate phases keep the original
  bit-exact ``index / rate`` arithmetic;
* the ``shard_soak`` / ``shard_kill`` scenarios are deterministic under
  the virtual clock: same artifact twice at a fixed seed, schema-valid,
  reconciled against both the global and per-shard metric series, with
  the pinned shed / kill / respawn event sequence.
"""

import copy

import pytest

from repro.load import (SCENARIOS, LoadPhase, LoadRunConfig,
                        build_context, diurnal_rate, reconcile_shards,
                        reconcile_with_registry, run_scenario,
                        small_model, validate_artifact)


# ----------------------------------------------------------------------
# diurnal_rate
# ----------------------------------------------------------------------
class TestDiurnalRate:
    def test_shape(self):
        rate = diurnal_rate(40.0, amplitude=0.5, period_s=60.0)
        assert rate(0.0) == pytest.approx(40.0)
        assert rate(15.0) == pytest.approx(60.0)    # peak at T/4
        assert rate(45.0) == pytest.approx(20.0)    # trough at 3T/4
        assert rate(60.0) == pytest.approx(40.0)    # periodic

    def test_phase_offset(self):
        import math

        rate = diurnal_rate(40.0, amplitude=0.5, period_s=60.0,
                            phase_rad=math.pi / 2.0)
        assert rate(0.0) == pytest.approx(60.0)     # starts at the peak

    def test_mean_is_base(self):
        rate = diurnal_rate(40.0, amplitude=0.9, period_s=10.0)
        samples = [rate(t * 0.01) for t in range(1000)]
        assert sum(samples) / len(samples) == pytest.approx(40.0, rel=1e-3)

    @pytest.mark.parametrize("kwargs", [
        dict(amplitude=1.0),       # rate would touch zero
        dict(amplitude=-0.1),
        dict(period_s=0.0),
    ])
    def test_rejects_degenerate_profiles(self, kwargs):
        with pytest.raises(ValueError):
            diurnal_rate(40.0, **kwargs)


# ----------------------------------------------------------------------
# Profiled arrival schedules
# ----------------------------------------------------------------------
class TestProfiledSchedule:
    def test_constant_phase_keeps_streaming_schedule(self):
        phase = LoadPhase("steady", duration_s=2.0, rate=40.0)
        assert phase.arrival_offsets() is None      # bit-exact old path
        assert phase.profile_name == "constant"
        assert phase.num_requests == 80

    def test_profiled_offsets_deterministic_and_monotonic(self):
        profile = diurnal_rate(40.0, amplitude=0.6, period_s=2.0)
        phase = LoadPhase("diurnal", duration_s=2.0, rate=40.0,
                          rate_profile=profile)
        assert phase.profile_name == "profiled"
        offsets = phase.arrival_offsets()
        assert offsets == phase.arrival_offsets()
        assert offsets[0] == 0.0
        assert all(b > a for a, b in zip(offsets, offsets[1:]))
        assert offsets[-1] < 2.0

    def test_peak_denser_than_trough(self):
        profile = diurnal_rate(40.0, amplitude=0.6, period_s=4.0)
        phase = LoadPhase("diurnal", duration_s=4.0, rate=40.0,
                          rate_profile=profile)
        offsets = phase.arrival_offsets()
        peak = sum(1 for t in offsets if 0.5 <= t < 1.5)     # around T/4
        trough = sum(1 for t in offsets if 2.5 <= t < 3.5)   # around 3T/4
        assert peak > 1.5 * trough

    def test_zero_rate_profile_rejected_at_schedule_time(self):
        phase = LoadPhase("bad", duration_s=1.0, rate=10.0,
                          rate_profile=lambda t: 10.0 - 20.0 * t)
        with pytest.raises(ValueError, match="must stay positive"):
            phase.arrival_offsets()


# ----------------------------------------------------------------------
# Sharded scenarios under the virtual clock
# ----------------------------------------------------------------------
def smoke_config(**overrides) -> LoadRunConfig:
    settings = dict(phase_duration_s=1.0, virtual=True, seed=0)
    settings.update(overrides)
    return LoadRunConfig(**settings)


@pytest.mark.parametrize("name", ["shard_soak", "shard_kill"])
class TestShardScenarios:
    def test_deterministic_valid_and_reconciled(self, name):
        first = run_scenario(name, smoke_config())
        second = run_scenario(name, smoke_config())
        validate_artifact(first.artifact)
        reconcile_with_registry(first.artifact, first.context.metrics)
        reconcile_shards(first.artifact, first.context.metrics)
        assert first.artifact == second.artifact, (
            "virtual-clock shard scenarios must be bit-reproducible")

    def test_seed_changes_artifact(self, name):
        base = run_scenario(name, smoke_config())
        other = run_scenario(name, smoke_config(seed=1))
        assert base.artifact["totals"] != other.artifact["totals"] or \
            base.artifact["slo"]["p99_ms"] != other.artifact["slo"]["p99_ms"]


class TestShardSoakOutcome:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("shard_soak", smoke_config())

    def test_diurnal_phase_recorded_and_sheds(self, result):
        phases = {p["name"]: p for p in result.artifact["phases"]}
        assert phases["diurnal"]["rate_profile"] == "diurnal"
        assert "rate_profile" not in phases["steady"], (
            "constant phases must keep the original artifact bytes")
        assert phases["diurnal"]["degraded"]["by_reason"].get("shed", 0) > 0
        assert phases["steady"]["degraded"]["total"] == 0

    def test_shed_event_pinned_to_diurnal_phase(self, result):
        events = [(e["phase"], e["event"])
                  for e in result.artifact["events"]]
        assert ("setup", "shards_started") in events
        assert ("diurnal", "shard_shed") in events

    def test_per_shard_block_reconciles(self, result):
        shards = result.artifact["shards"]
        assert [s["shard"] for s in shards] == list(range(len(shards)))
        assert len(shards) >= 2
        totals = result.artifact["totals"]
        assert (sum(s["requests"] for s in shards)
                + sum(s["shed"] for s in shards)) == totals["requests"]
        assert result.passed


class TestShardKillOutcome:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("shard_kill", smoke_config())

    def test_kill_and_respawn_events_in_order(self, result):
        events = [(e["phase"], e["event"])
                  for e in result.artifact["events"]]
        killed = events.index(("kill", "shard_killed"))
        respawned = events.index(("kill", "shard_respawned"))
        assert killed < respawned

    def test_respawn_counted_and_slo_green(self, result):
        shards = result.artifact["shards"]
        assert sum(s["respawns"] for s in shards) == 1
        assert result.passed
        assert result.artifact["totals"]["degraded"] == 0

    def test_respawn_is_deterministic(self, result):
        again = run_scenario("shard_kill", smoke_config())
        assert again.artifact["shards"] == result.artifact["shards"]


class TestShardCount:
    def test_num_shards_flows_into_scenario(self):
        result = run_scenario("shard_soak", smoke_config(num_shards=3))
        assert len(result.artifact["shards"]) == 3
        assert result.artifact["config"]["num_shards"] == 3

    def test_artifact_copy_safety(self):
        """The artifact is plain data — deep-copyable, no live objects."""
        result = run_scenario("shard_soak", smoke_config())
        clone = copy.deepcopy(result.artifact)
        assert clone == result.artifact


class TestBreakerWatch:
    def test_respawned_shard_breaker_is_counted(self):
        """A respawn builds a new runtime, and with it a new breaker:
        the scenario's breaker count must include its trips."""
        context = build_context(SCENARIOS["shard_kill"],
                                smoke_config(num_shards=2))
        try:
            router = context.router
            request = context.stream.next()
            while router.place(request) != 1:
                request = context.stream.next()
            router.kill_shard(1)
            context.handler(request)   # respawns shard 1
            assert router.shard_stats()[1]["respawns"] == 1
            breaker = router.runtimes[1].primary.breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert breaker.opens == 1
            assert context.breaker_opens() == 1
        finally:
            context.close()

    def test_swapped_shard_breakers_are_counted(self):
        context = build_context(SCENARIOS["shard_kill"],
                                smoke_config(num_shards=2))
        try:
            context.router.swap_to("v002", small_model(7, 16))
            for runtime in context.router.runtimes:
                breaker = runtime.primary.breaker
                for _ in range(breaker.failure_threshold):
                    breaker.record_failure()
            assert context.breaker_opens() == 2
        finally:
            context.close()
