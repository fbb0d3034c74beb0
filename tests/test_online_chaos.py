"""Chaos sweep over the online loop: kill it at every event boundary.

A **durable** :class:`repro.online.OnlineLoop` persists its state
(loop record, policy damping, buffer + frozen-holdout snapshots)
*before* notifying each event, so a process death inside any event
callback finds everything the event describes already on disk.  This
suite simulates exactly that: the continual-drift arc is driven
through a feedback harness whose event callback raises at a chosen
boundary — ``drift_alarm``, ``online_retrain_started``,
``online_candidate_registered``, ``online_canary_started`` — the whole
object graph is torn down, rebuilt over the same directories, restored
from ``loop_state.json``, and driven to completion.

Invariants, per boundary:

* the restarted loop finishes the arc (retrain → register → canary →
  promote);
* the student is registered **exactly once** — the deterministic
  ``created_at`` job marker dedupes a replayed registration;
* the student is promoted **exactly once** (ACTIVE_HISTORY shows one
  activation beyond the parent's) — never double-promoted;
* the student's checkpoint is **bitwise identical** to an unkilled
  control run's: the replayed fine-tune resumes (or re-runs) the same
  job id over the same restored window, replay sample and permutation
  stream.
"""

import numpy as np
import pytest

from repro.deploy import DeploymentController, ModelRegistry, RolloutPolicy
from repro.load.scenarios import small_model
from repro.load.stream import RequestStream, build_instance_pool
from repro.data import GeneratorConfig, SyntheticWorld
from repro.obs import disable_tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import (CompletedRoute, PageHinkleyDetector,
                               QualityMonitor, ReferenceWindowDetector)
from repro.online import (AntiRegressionGate, ExperienceBuffer, GateConfig,
                          OnlineLoop, OnlineLoopConfig, OnlineTrainer,
                          OnlineTrainerConfig, RetrainPolicy,
                          RetrainPolicyConfig)

KILL_BOUNDARIES = ("drift_alarm", "online_retrain_started",
                   "online_candidate_registered", "online_canary_started")


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


@pytest.fixture(scope="module")
def pool():
    world = SyntheticWorld(GeneratorConfig(
        num_aois=40, num_couriers=6, num_days=4,
        instances_per_courier_day=2, seed=7))
    return build_instance_pool(world, 24, seed=8)


class _Kill(Exception):
    """Simulated process death inside an event callback."""


class _ChaosRig:
    """One incarnation of the serve→quality→loop object graph.

    All durable state (registry, trainer workdir) lives under
    ``root``; a new incarnation over the same root restores it.
    """

    def __init__(self, root, pool, kill_at=None):
        self.metrics = MetricsRegistry()
        self.registry = ModelRegistry(root / "reg")
        if not self.registry.versions():
            manifest = self.registry.register(
                small_model(17, 16), created_at="t0")
            self.registry.activate(manifest.version)
        self.kill_at = kill_at
        self.killed = False
        self.events = []
        active = self.registry.active()
        self.controller = DeploymentController(
            self.registry, metrics=self.metrics, initial=active, seed=5,
            policy=RolloutPolicy(canary_fraction=0.5, min_requests=10,
                                 max_quality_mae_ratio=0.95,
                                 min_quality_routes=8))
        self.monitor = QualityMonitor(
            self.metrics, window=32,
            page_hinkley=PageHinkleyDetector(delta=20.0, threshold=240.0,
                                             min_samples=8),
            reference_window=ReferenceWindowDetector(24, 12, 0.75, 3.0))
        self.loop = OnlineLoop(
            self.registry, self.controller,
            ExperienceBuffer(capacity=48, reservoir=16, max_pending=64,
                             seed=3, metrics=self.metrics),
            OnlineTrainer(self.registry, root / "jobs",
                          OnlineTrainerConfig(replay_fraction=1.0,
                                              learning_rate=0.012,
                                              epochs=10),
                          metrics=self.metrics),
            RetrainPolicy(RetrainPolicyConfig(
                min_window=24, cooldown_s=1e9, min_new_samples=8,
                post_alarm_samples=28)),
            # The flat +480 shift is feature-inseparable, so the clean
            # budget would (correctly) reject it — this sweep is about
            # durability and exactly-once, so only the drift leg gates.
            AntiRegressionGate(GateConfig(max_clean_regression_ratio=None)),
            OnlineLoopConfig(train_window=32, holdout_every=4,
                             durable=True),
            metrics=self.metrics, on_event=self._on_event)
        self.loop.attach(self.monitor)
        self.monitor.on_alarm(self._on_alarm)
        self.stream = RequestStream(pool, seed=9)

    def _die(self, boundary):
        self.killed = True
        raise _Kill(boundary)

    def _on_event(self, event, detail):
        self.events.append(event)
        if not self.killed and event == self.kill_at:
            self._die(event)

    def _on_alarm(self, alarm):
        self.events.append("drift_alarm")
        if not self.killed and self.kill_at == "drift_alarm":
            self._die("drift_alarm")

    def pump(self, count, shifted=False, stop_on_decision=False):
        for _ in range(count):
            request = self.stream.next()
            instance = self.stream.last_instance
            response = self.controller.handle(request)
            actual = np.asarray(instance.arrival_times, dtype=float)
            if shifted:
                actual = actual + 480.0
            self.monitor.record(CompletedRoute(
                predicted_route=response.route,
                actual_route=list(instance.route),
                predicted_eta_minutes=response.eta_minutes,
                actual_arrival_minutes=actual,
                labels={"model_version": response.model_version}))
            self.loop.offer(request, response, list(instance.route),
                            actual)
            self.loop.tick()
            if stop_on_decision and self.controller.decisions:
                return


def _student_versions(registry):
    return [v for v in registry.versions()
            if registry.manifest(v).created_at != "t0"]


def _activation_history(registry):
    path = registry.root / "ACTIVE_HISTORY"
    if not path.exists():
        return []
    return [line.split()[-1] for line in path.read_text().splitlines()
            if line.strip()]


def _drive_to_completion(rig):
    """Pump the shifted stream until the controller has ruled."""
    rig.pump(200, shifted=True, stop_on_decision=True)
    assert rig.controller.decisions, "the canary never resolved"


@pytest.fixture(scope="module")
def control(tmp_path_factory, pool):
    """The unkilled reference run every chaos run must reproduce."""
    root = tmp_path_factory.mktemp("chaos-control")
    rig = _ChaosRig(root, pool)
    rig.pump(72)
    _drive_to_completion(rig)
    students = _student_versions(rig.registry)
    assert len(students) == 1
    manifest = rig.registry.manifest(students[0])
    decisions = [d.action for d in rig.controller.decisions]
    assert decisions == ["promote"]
    return {
        "checksum": manifest.checkpoint_sha256,
        "history": _activation_history(rig.registry),
    }


class TestChaosKillAtEveryBoundary:
    @pytest.mark.parametrize("boundary", KILL_BOUNDARIES)
    def test_restart_replays_arc_exactly_once(self, boundary, tmp_path,
                                              pool, control):
        root = tmp_path
        first = _ChaosRig(root, pool, kill_at=boundary)
        with pytest.raises(_Kill):
            first.pump(72)
            first.pump(200, shifted=True, stop_on_decision=True)
        assert boundary in first.events
        # The process is gone.  A new incarnation restores from disk.
        second = _ChaosRig(root, pool)
        assert second.loop.restore() is True, (
            f"durable loop left no restorable state at {boundary!r}")
        # The restored policy still holds the armed quorum (or the
        # restored candidates record): the very next ticks finish the
        # interrupted work without waiting for fresh alarms.
        second.loop.tick()
        _drive_to_completion(second)

        # Arc completed across incarnations.
        combined = first.events + second.events
        for milestone in ("online_retrain_started",
                          "online_candidate_registered",
                          "online_canary_started"):
            assert milestone in combined, (
                f"kill at {boundary!r}: {milestone} never fired")

        # Registered exactly once — the job marker deduped the replay.
        students = _student_versions(second.registry)
        assert len(students) == 1, (
            f"kill at {boundary!r} minted duplicate students: {students}")
        # Promoted exactly once, never double-promoted.
        decisions = [d.action for d in second.controller.decisions]
        assert decisions == ["promote"]
        history = _activation_history(second.registry)
        assert history == control["history"], (
            f"kill at {boundary!r}: activation history {history} != "
            f"control {control['history']}")
        assert history.count(students[0]) == 1
        assert second.controller.active_version == students[0]

        # Bitwise-identical student: same window, same replay sample,
        # same permutation stream, same weights.  Only meaningful once
        # the training window is durable — a kill at the alarm boundary
        # loses the dead process's stream position, so the post-restart
        # window is (correctly) built from post-restart traffic.
        if boundary != "drift_alarm":
            manifest = second.registry.manifest(students[0])
            assert manifest.checkpoint_sha256 == control["checksum"], (
                f"kill at {boundary!r}: replayed fine-tune diverged "
                f"from the uninterrupted run")

    @pytest.mark.slow
    def test_double_restart_still_exactly_once(self, tmp_path, pool,
                                               control):
        """Two consecutive kills (register, then canary) on one arc."""
        root = tmp_path
        first = _ChaosRig(root, pool,
                          kill_at="online_candidate_registered")
        with pytest.raises(_Kill):
            first.pump(72)
            first.pump(200, shifted=True, stop_on_decision=True)
        second = _ChaosRig(root, pool, kill_at="online_canary_started")
        assert second.loop.restore() is True
        with pytest.raises(_Kill):
            second.loop.tick()
            _drive_to_completion(second)
        third = _ChaosRig(root, pool)
        assert third.loop.restore() is True
        third.loop.tick()
        _drive_to_completion(third)
        students = _student_versions(third.registry)
        assert len(students) == 1
        assert [d.action for d in third.controller.decisions] == ["promote"]
        assert _activation_history(third.registry) == control["history"]
        manifest = third.registry.manifest(students[0])
        assert manifest.checkpoint_sha256 == control["checksum"]
