"""The online continual-learning loop (``repro.online``), end to end.

Covers the acceptance arc of the subsystem:

* the ``continual_drift`` scenario runs shift → drift alarm →
  fine-tune → lineage-tagged registration → canary → quality-gated
  promotion, bit-reproducibly across two same-seed runs, and the
  promoted student's windowed ETA MAE beats the frozen parent's;
* a fine-tune fed poisoned ground truth is registered (for the audit
  trail) but blocked by the anti-regression gate — it never canaries
  and the active version never changes;
* an :class:`~repro.online.OnlineTrainer` job killed mid-flight and
  re-run with the same ``job_id`` finishes **bitwise identical** to an
  uninterrupted run (model weights and Adam moments), and the
  experience buffer snapshot/restore round-trips exactly;
* :class:`~repro.online.RetrainPolicy` hysteresis: a flapping detector
  cannot cause a retrain storm (cooldown, fresh-sample minimum,
  post-alarm arming), and watermark/schedule triggers stay subordinate
  to drift;
* the experience buffer is bounded: overflow drops are counted in
  ``rtp_online_dropped_routes_total`` instead of blocking serving;
* the ``--closed-loop`` comparison mode hides the overload queueing the
  open-loop driver reports (coordinated omission, quantified);
* weather-coupled service slowdown inflates storm costs without
  perturbing the RNG stream of clear-weather runs.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.data import GeneratorConfig, SyntheticWorld
from repro.deploy import (DeploymentController, ModeledLatencyService,
                          ModelRegistry, RolloutPolicy)
from repro.load import (LoadRunConfig, VirtualClock, run_scenario,
                        validate_artifact)
from repro.load.clock import WEATHER_SERVICE_SLOWDOWN
from repro.load.scenarios import small_model
from repro.load.stream import RequestStream, build_instance_pool
from repro.obs import disable_tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import (CompletedRoute, PageHinkleyDetector,
                               QualityMonitor, ReferenceWindowDetector)
from repro.online import (AntiRegressionGate, ExperienceBuffer, GateConfig,
                          OnlineLoop, OnlineLoopConfig, OnlineTrainer,
                          OnlineTrainerConfig, RetrainPolicy,
                          RetrainPolicyConfig, load_loop_state)
from repro.service import ServingStage

SMOKE = dict(phase_duration_s=1.0, virtual=True, seed=0)


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


@pytest.fixture(scope="module")
def drift_result(tmp_path_factory):
    # A persistent registry dir so the tests can inspect manifests and
    # loop state after the run (the default tempdir is deleted).
    registry_dir = tmp_path_factory.mktemp("drift-registry")
    return run_scenario("continual_drift", LoadRunConfig(**SMOKE),
                        registry_dir=registry_dir)


def _world_pool(pool_size=24):
    world = SyntheticWorld(GeneratorConfig(
        num_aois=40, num_couriers=6, num_days=4,
        instances_per_courier_day=2, seed=7))
    return build_instance_pool(world, pool_size, seed=8)


class TestContinualDriftScenario:
    def test_pinned_event_arc(self, drift_result):
        artifact = drift_result.artifact
        validate_artifact(artifact)
        events = [e["event"] for e in artifact["events"]]
        cursor = -1
        for needed in ("label_shift", "drift_alarm",
                       "online_retrain_started",
                       "online_candidate_registered",
                       "online_canary_started"):
            assert needed in events, f"missing {needed!r}: {events}"
            assert events.index(needed) > cursor
            cursor = events.index(needed)
        # Hysteresis holds under a still-alarming stream: exactly one
        # retrain, exactly one canary.
        assert events.count("online_retrain_started") == 1
        assert events.count("online_canary_started") == 1
        assert "online_candidate_rejected" not in events

    def test_student_promoted_on_quality_verdict(self, drift_result):
        artifact = drift_result.artifact
        decisions = artifact["decisions"]
        assert [d["action"] for d in decisions] == ["promote"]
        assert decisions[0]["reason"].startswith("quality:")
        controller = drift_result.context.controller
        assert controller.active_version == decisions[0]["version"]

    def test_candidate_lineage_in_registry(self, drift_result):
        context = drift_result.context
        candidate = context.online.candidates[0]
        manifest = context.registry.manifest(str(candidate["version"]))
        lineage = json.loads(manifest.notes)
        assert lineage["parent"] == candidate["parent"]
        assert lineage["trigger"] == "drift"
        assert lineage["gate_passed"] is True
        assert lineage["train_samples"] >= 16
        assert lineage["holdout_samples"] >= 4
        span_lo, span_hi = lineage["window_span"]
        assert 0 <= span_lo < span_hi
        assert manifest.metrics["gate_mae_ratio"] < 0.5
        assert manifest.created_at.startswith("online-ft000-of-")

    def test_student_beats_frozen_parent_on_shifted_stream(
            self, drift_result):
        by_version = drift_result.artifact["quality"]["segments"][
            "model_version"]
        parent, student = sorted(by_version)
        assert by_version[student]["eta_mae"] \
            < 0.5 * by_version[parent]["eta_mae"]
        # Post-promotion the student serves the adapted phase alone.
        assert by_version[student]["routes"] > 0

    def test_serving_slo_stays_green(self, drift_result):
        artifact = drift_result.artifact
        assert artifact["slo"]["passed"]
        assert artifact["totals"]["invalid_responses"] == 0

    def test_online_metrics_exported(self, drift_result):
        metrics = drift_result.context.metrics
        assert metrics.counter("rtp_online_retrains_total",
                               labels=("trigger",)).labels(
            trigger="drift").value == 1
        assert metrics.counter("rtp_online_candidates_total",
                               labels=("outcome",)).labels(
            outcome="canaried").value == 1
        assert metrics.counter("rtp_online_ingested_total").value > 0
        assert metrics.counter("rtp_online_dropped_routes_total").value == 0

    def test_loop_state_persisted(self, drift_result):
        registry = drift_result.context.registry
        state = load_loop_state(registry.root / "online_jobs")
        assert state is not None
        assert state["retrains"] == 1
        assert len(state["candidates"]) == 1

    def test_bit_reproducible_across_runs(self, drift_result):
        again = run_scenario("continual_drift", LoadRunConfig(**SMOKE))
        assert json.dumps(again.artifact, sort_keys=True) \
            == json.dumps(drift_result.artifact, sort_keys=True)


class _FeedbackHarness:
    """Minimal serve→quality→loop pump shared by the gate tests."""

    def __init__(self, tmp_path, gate=None):
        self.metrics = MetricsRegistry()
        self.registry = ModelRegistry(tmp_path / "reg")
        parent = small_model(17, 16)
        manifest = self.registry.register(parent, created_at="t0")
        self.registry.activate(manifest.version)
        self.parent_version = manifest.version
        self.controller = DeploymentController(
            self.registry, metrics=self.metrics, initial=manifest.version,
            seed=5,
            policy=RolloutPolicy(canary_fraction=0.5, min_requests=10,
                                 max_quality_mae_ratio=0.95,
                                 min_quality_routes=8))
        self.monitor = QualityMonitor(
            self.metrics, window=32,
            page_hinkley=PageHinkleyDetector(delta=20.0, threshold=240.0,
                                             min_samples=8),
            reference_window=ReferenceWindowDetector(24, 12, 0.75, 3.0))
        self.events = []
        self.loop = OnlineLoop(
            self.registry, self.controller,
            ExperienceBuffer(capacity=48, reservoir=16, max_pending=64,
                             seed=3, metrics=self.metrics),
            # Replay-enabled fine-tunes, mirroring the scenario wiring:
            # the mixture gate scores the clean holdout too, and a
            # no-replay fine-tune forgets the clean regime and fails it.
            OnlineTrainer(self.registry, tmp_path / "jobs",
                          OnlineTrainerConfig(replay_fraction=1.0,
                                              learning_rate=0.012,
                                              epochs=10),
                          metrics=self.metrics),
            RetrainPolicy(RetrainPolicyConfig(
                min_window=24, cooldown_s=1e9, min_new_samples=8,
                post_alarm_samples=28)),
            gate or AntiRegressionGate(),
            OnlineLoopConfig(train_window=32, holdout_every=4),
            metrics=self.metrics,
            on_event=lambda e, d: self.events.append(e))
        self.loop.attach(self.monitor)
        self.stream = RequestStream(_world_pool(), seed=9)

    def pump(self, count, mutate_actual=None):
        for _ in range(count):
            request = self.stream.next()
            instance = self.stream.last_instance
            response = self.controller.handle(request)
            actual = np.asarray(instance.arrival_times, dtype=float)
            route = list(instance.route)
            if mutate_actual is not None:
                actual, route = mutate_actual(actual, route)
            self.monitor.record(CompletedRoute(
                predicted_route=response.route,
                actual_route=route,
                predicted_eta_minutes=response.eta_minutes,
                actual_arrival_minutes=actual,
                labels={"model_version": response.model_version}))
            self.loop.offer(request, response, route, actual)
            self.loop.tick()
            if self.loop.retrains:
                return


class TestPoisonedFineTuneBlocked:
    def test_gate_rejects_poisoned_labels(self, tmp_path):
        harness = _FeedbackHarness(tmp_path)
        # Clean traffic fills the reference window and — by overflowing
        # the window — seeds the pre-shift reservoir the replay and the
        # gate's frozen clean slice both draw from.
        harness.pump(72)
        assert harness.loop.retrains == 0

        # Corrupted ground truth: uniform-noise arrivals, shuffled
        # "actual" routes.  Plenty to alarm on — and nothing learnable.
        poison_rng = np.random.default_rng(23)

        def poison(actual, route):
            noisy = poison_rng.uniform(2000.0, 10000.0, size=len(actual))
            shuffled = list(poison_rng.permutation(route))
            return np.sort(noisy), shuffled

        harness.pump(80, mutate_actual=poison)
        assert harness.loop.retrains == 1, \
            "the poisoned stream must still alarm and trigger a retrain"

        record = harness.loop.candidates[0]
        assert record["canaried"] is False
        assert record["gate"]["passed"] is False
        # Registered for the audit trail, never promoted.
        assert record["version"] in harness.registry.versions()
        assert "online_candidate_rejected" in harness.events
        assert "online_canary_started" not in harness.events
        assert harness.controller.active_version == harness.parent_version
        assert harness.controller.candidate is None
        assert [d.action for d in harness.controller.decisions] == []
        lineage = json.loads(
            harness.registry.manifest(str(record["version"])).notes)
        assert lineage["gate_passed"] is False
        rejected = harness.metrics.counter(
            "rtp_online_candidates_total", labels=("outcome",)).labels(
            outcome="rejected")
        assert rejected.value == 1

    def test_inseparable_shift_rejected_as_forgetting(self, tmp_path):
        # A flat +480 on *every* route is inseparable in features: no
        # student can fit the shifted window without unlearning the
        # clean regime (the replay sample and the shifted majority pull
        # the same inputs toward conflicting targets).  The candidate
        # wins the drift leg decisively — and the mixture gate still
        # rejects it, for forgetting, not for drift.  The separable
        # (weather-conditioned) shift that passes both legs is the
        # ``continual_drift`` scenario above.
        harness = _FeedbackHarness(tmp_path)
        harness.pump(72)

        def shift(actual, route):
            return actual + 480.0, route

        harness.pump(80, mutate_actual=shift)
        assert harness.loop.retrains == 1
        record = harness.loop.candidates[0]
        gate = record["gate"]
        assert gate["passed"] is False
        assert gate["reason"].startswith("forgetting:")
        assert gate["mae_ratio"] < 0.5, \
            "the drift leg alone would have shipped this candidate"
        assert gate["clean_mae_ratio"] > gate["clean_threshold"]
        assert record["canaried"] is False
        assert record["replay_samples"] > 0
        # Registered for the audit trail, active version untouched.
        assert record["version"] in harness.registry.versions()
        assert harness.controller.active_version == harness.parent_version


class TestOneRolloutAtATime:
    def test_trigger_mid_canary_waits_for_the_verdict(self, tmp_path):
        """A retrain trigger that lands while a canary is in flight
        starts no second canary; it fires once the canary resolves."""
        registry = ModelRegistry(tmp_path / "reg")
        parent = registry.register(small_model(17, 16), created_at="t0")
        registry.activate(parent.version)
        controller = DeploymentController(
            registry, initial=parent.version, seed=5,
            policy=RolloutPolicy(min_requests=10_000))
        events = []
        loop = OnlineLoop(
            registry, controller,
            ExperienceBuffer(capacity=16, reservoir=4, max_pending=64,
                             seed=3),
            OnlineTrainer(registry, tmp_path / "jobs",
                          OnlineTrainerConfig(epochs=1)),
            # No cooldown and a low watermark: the policy would fire
            # again on the very next tick after a retrain.
            RetrainPolicy(RetrainPolicyConfig(
                min_window=4, cooldown_s=0.0, min_new_samples=1,
                sample_watermark=4)),
            AntiRegressionGate(GateConfig(max_mae_ratio=1e9)),
            OnlineLoopConfig(train_window=8, holdout_every=4,
                             frozen_holdout_size=0, regime_window=0),
            on_event=lambda event, detail: events.append(event))
        stream = RequestStream(_world_pool(), seed=9)

        def feed(count):
            for _ in range(count):
                request = stream.next()
                instance = stream.last_instance
                loop.buffer.offer(request, list(instance.route),
                                  list(instance.arrival_times))

        feed(8)
        first = loop.tick()
        assert first["canaried"] and loop.retrains == 1
        assert controller.candidate.version == first["version"]

        feed(8)   # the watermark is crossed again mid-canary
        assert loop.tick() is None
        assert loop.retrains == 1
        assert controller.candidate.version == first["version"]
        assert events.count("online_canary_started") == 1

        controller.rollback(reason="test")
        second = loop.tick()
        assert second["canaried"] and loop.retrains == 2
        assert controller.candidate.version == second["version"]
        assert second["version"] != first["version"]
        assert [(d.action, d.version) for d in controller.decisions] == [
            ("rollback", first["version"])]
        assert events.count("online_canary_started") == 2


class TestOnlineTrainerResume:
    def _setup(self, tmp_path, subdir):
        registry = ModelRegistry(tmp_path / subdir / "reg")
        parent = small_model(17, 16)
        manifest = registry.register(parent, created_at="t0")
        instances = _world_pool()
        trainer = OnlineTrainer(registry, tmp_path / subdir / "jobs",
                                OnlineTrainerConfig())
        return trainer, manifest.version, instances

    def test_kill_restart_resume_is_bitwise(self, tmp_path):
        trainer_a, parent, instances = self._setup(tmp_path, "a")
        full = trainer_a.fine_tune(parent, instances, job_id="job")
        assert full.completed and full.epochs_done == 4

        trainer_b, parent_b, instances_b = self._setup(tmp_path, "b")
        paused = trainer_b.fine_tune(parent_b, instances_b, job_id="job",
                                     stop_after_epoch=2)
        assert not paused.completed and paused.epochs_done == 2
        # A fresh trainer instance = a restarted process; only the
        # workdir files carry the job forward.
        trainer_c = OnlineTrainer(trainer_b.registry,
                                  trainer_b.workdir,
                                  OnlineTrainerConfig())
        resumed = trainer_c.fine_tune(parent_b, instances_b, job_id="job")
        assert resumed.completed and resumed.epochs_done == 4

        assert resumed.losses == full.losses
        for p_full, p_resumed in zip(full.model.parameters(),
                                     resumed.model.parameters()):
            assert np.array_equal(p_full.data, p_resumed.data)

    def test_completed_job_is_not_retrained(self, tmp_path):
        trainer, parent, instances = self._setup(tmp_path, "c")
        first = trainer.fine_tune(parent, instances, job_id="done")
        progress = json.loads(
            (trainer.workdir / "done.json").read_text())
        assert progress["completed"] is True
        # Re-running a *completed* job starts a fresh fine-tune (the
        # progress record only resumes unfinished jobs) and reproduces
        # the identical result from the same parent + data.
        again = trainer.fine_tune(parent, instances, job_id="done")
        assert again.losses[-len(first.losses):] == first.losses

    def test_buffer_snapshot_restore_roundtrip(self, tmp_path):
        buffer = ExperienceBuffer(capacity=8, reservoir=4, max_pending=64,
                                  seed=3)
        stream = RequestStream(_world_pool(), seed=9)
        for _ in range(20):
            request = stream.next()
            instance = stream.last_instance
            buffer.offer(request, instance.route,
                         np.asarray(instance.arrival_times, dtype=float))
        buffer.drain()
        path = buffer.snapshot(tmp_path / "buffer.pkl")

        restored = ExperienceBuffer(capacity=8, reservoir=4, max_pending=64,
                                    seed=3)
        restored.restore(path)
        assert restored.stats() == buffer.stats()
        assert restored.window_span() == buffer.window_span()
        before = buffer.training_set()
        after = restored.training_set()
        assert len(before) == len(after)
        for x, y in zip(before, after):
            assert x.seq == y.seq
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.instance.arrival_times,
                                  y.instance.arrival_times)


class TestRetrainPolicyHysteresis:
    def test_flapping_detector_causes_no_retrain_storm(self):
        policy = RetrainPolicy(RetrainPolicyConfig(
            min_window=8, cooldown_s=60.0, min_new_samples=8,
            alarm_quorum=1))
        retrains = 0
        ingested = 0
        # A detector alarming every 4th route for 400 virtual seconds.
        for step in range(400):
            now = float(step)
            ingested += 1
            if step % 4 == 0:
                policy.note_alarm(object())
            trigger = policy.should_retrain(
                now, window_size=min(ingested, 32),
                total_ingested=ingested)
            if trigger is not None:
                retrains += 1
                policy.note_retrained(now, ingested)
        # 400 s / 60 s cooldown -> at most ceil(400/60) = 7 retrains
        # even though ~100 alarms fired.
        assert retrains <= 7
        assert policy.retrains == retrains

    def test_min_window_and_new_samples_gate(self):
        policy = RetrainPolicy(RetrainPolicyConfig(
            min_window=16, cooldown_s=0.0, min_new_samples=8))
        policy.note_alarm(object())
        assert policy.should_retrain(0.0, window_size=8,
                                     total_ingested=8) is None
        assert policy.should_retrain(1.0, window_size=16,
                                     total_ingested=16) is not None
        policy.note_retrained(1.0, 16)
        policy.note_alarm(object())
        # Alarms alone are not enough: the fine-tune needs fresh data.
        assert policy.should_retrain(2.0, window_size=16,
                                     total_ingested=20) is None
        assert policy.should_retrain(3.0, window_size=16,
                                     total_ingested=24) is not None

    def test_post_alarm_samples_arms_before_firing(self):
        policy = RetrainPolicy(RetrainPolicyConfig(
            min_window=4, cooldown_s=0.0, post_alarm_samples=10))
        policy.note_alarm(object())
        assert policy.should_retrain(0.0, window_size=8,
                                     total_ingested=20) is None
        assert policy.should_retrain(1.0, window_size=8,
                                     total_ingested=29) is None
        trigger = policy.should_retrain(2.0, window_size=8,
                                        total_ingested=30)
        assert trigger is not None and trigger.kind == "drift"

    def test_watermark_and_schedule_subordinate_to_drift(self):
        policy = RetrainPolicy(RetrainPolicyConfig(
            min_window=4, cooldown_s=0.0, min_new_samples=0,
            sample_watermark=50, schedule_interval_s=100.0))
        trigger = policy.should_retrain(0.0, window_size=8,
                                        total_ingested=10)
        assert trigger is not None and trigger.kind == "schedule"
        policy.note_retrained(0.0, 10)
        trigger = policy.should_retrain(50.0, window_size=8,
                                        total_ingested=70)
        assert trigger is not None and trigger.kind == "watermark"
        policy.note_retrained(50.0, 70)
        policy.note_alarm(object())
        trigger = policy.should_retrain(200.0, window_size=8,
                                        total_ingested=130)
        assert trigger is not None and trigger.kind == "drift"

    def test_alarm_quorum(self):
        policy = RetrainPolicy(RetrainPolicyConfig(
            min_window=4, cooldown_s=0.0, alarm_quorum=3))
        policy.note_alarm(object())
        policy.note_alarm(object())
        assert policy.should_retrain(0.0, window_size=8,
                                     total_ingested=8) is None
        policy.note_alarm(object())
        trigger = policy.should_retrain(1.0, window_size=8,
                                        total_ingested=8)
        assert trigger is not None and trigger.alarms == 3


class TestBufferBounding:
    def test_overflow_drops_are_counted_not_blocking(self):
        metrics = MetricsRegistry()
        buffer = ExperienceBuffer(capacity=8, reservoir=2, max_pending=4,
                                  seed=0, metrics=metrics)
        stream = RequestStream(_world_pool(), seed=9)
        accepted = 0
        for _ in range(10):
            request = stream.next()
            instance = stream.last_instance
            if buffer.offer(request, instance.route,
                            np.asarray(instance.arrival_times,
                                       dtype=float)):
                accepted += 1
        assert accepted == 4
        assert buffer.dropped == 6
        dropped = metrics.counter("rtp_online_dropped_routes_total")
        assert dropped.value == 6
        # Draining frees the pending lane again.
        assert len(buffer.drain()) == 4
        request = stream.next()
        assert buffer.offer(request, stream.last_instance.route,
                            np.asarray(stream.last_instance.arrival_times,
                                       dtype=float))

    def test_window_and_reservoir_stay_bounded(self):
        buffer = ExperienceBuffer(capacity=8, reservoir=4, max_pending=256,
                                  seed=0)
        stream = RequestStream(_world_pool(), seed=9)
        for _ in range(60):
            request = stream.next()
            instance = stream.last_instance
            buffer.offer(request, instance.route,
                         np.asarray(instance.arrival_times, dtype=float))
            buffer.drain()
        stats = buffer.stats()
        assert stats["window"] == 8
        assert stats["reservoir"] == 4
        assert stats["ingested"] == 60
        assert len(buffer.training_set()) <= 12


class TestClosedLoopComparison:
    def test_closed_loop_hides_the_overload_open_loop_reports(self):
        open_run = run_scenario("surge", LoadRunConfig(**SMOKE))
        closed_run = run_scenario(
            "surge", LoadRunConfig(closed_loop=True, **SMOKE))
        open_surge = [p for p in open_run.artifact["phases"]
                      if p["name"] == "surge"][0]
        closed_surge = [p for p in closed_run.artifact["phases"]
                        if p["name"] == "surge"][0]
        # Same scenario, same seed: the closed-loop generator reports a
        # calm p99 because it only issues as fast as responses return —
        # the backlog the open-loop schedule exposes never forms.
        assert open_surge["latency_ms"]["p99"] \
            > 3.0 * closed_surge["latency_ms"]["p99"]
        assert open_surge["max_backlog"] > 0
        assert closed_surge["max_backlog"] == 0
        assert closed_surge["loop"] == "closed"
        assert "loop" not in open_surge
        assert closed_run.artifact["config"]["closed_loop"] is True
        assert "closed_loop" not in open_run.artifact["config"]
        validate_artifact(closed_run.artifact)

    def test_closed_loop_is_deterministic(self):
        first = run_scenario("steady",
                             LoadRunConfig(closed_loop=True, **SMOKE))
        second = run_scenario("steady",
                              LoadRunConfig(closed_loop=True, **SMOKE))
        assert json.dumps(first.artifact, sort_keys=True) \
            == json.dumps(second.artifact, sort_keys=True)


class _EchoService(ServingStage):
    def handle_batch(self, requests):
        return list(requests)


@dataclasses.dataclass
class _WeatherRequest:
    weather: int


class TestWeatherCoupledSlowdown:
    def test_storm_costs_more_virtual_time(self):
        clock = VirtualClock()
        service = ModeledLatencyService(
            _EchoService(), clock.advance, base_ms=15.0, seed=0,
            weather_factors=WEATHER_SERVICE_SLOWDOWN)
        before = clock.now()
        service.handle(_WeatherRequest(weather=0))
        clear_cost = clock.now() - before

        clock2 = VirtualClock()
        service2 = ModeledLatencyService(
            _EchoService(), clock2.advance, base_ms=15.0, seed=0,
            weather_factors=WEATHER_SERVICE_SLOWDOWN)
        service2.handle(_WeatherRequest(weather=3))
        storm_cost = clock2.now()
        assert storm_cost == pytest.approx(2.0 * clear_cost)

    def test_coupling_never_perturbs_the_rng_stream(self):
        # Same seed, same requests: enabling the coupling on an
        # all-clear stream reproduces the uncoupled costs exactly.
        costs = []
        for factors in (None, WEATHER_SERVICE_SLOWDOWN):
            clock = VirtualClock()
            service = ModeledLatencyService(
                _EchoService(), clock.advance, base_ms=15.0, seed=42,
                weather_factors=factors)
            stamps = []
            for _ in range(16):
                service.handle(_WeatherRequest(weather=0))
                stamps.append(clock.now())
            costs.append(stamps)
        assert costs[0] == costs[1]

    def test_weather_slowdown_scenario_builds_queueing(self):
        result = run_scenario("weather_slowdown", LoadRunConfig(**SMOKE))
        phases = {p["name"]: p for p in result.artifact["phases"]}
        assert phases["storm"]["service_ms"]["p99"] \
            > phases["clear"]["service_ms"]["p99"]
        assert phases["storm"]["latency_ms"]["p99"] \
            > 2.0 * phases["clear"]["latency_ms"]["p99"]
        assert phases["clearing"]["degraded"]["total"] == 0
