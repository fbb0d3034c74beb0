"""The orchestrator that closes the data loop.

``serve → quality → drift → retrain → registry → canary``:

1. the serving path feeds completed routes into the
   :class:`~repro.online.buffer.ExperienceBuffer` (:meth:`OnlineLoop.offer`);
2. the :class:`~repro.obs.quality.QualityMonitor`'s drift alarms land in
   the :class:`~repro.online.policy.RetrainPolicy`
   (:meth:`OnlineLoop.attach`);
3. :meth:`OnlineLoop.tick` — called between requests or on a timer —
   drains the buffer and asks the policy whether to retrain;
4. a triggered retrain shadow-trains a student from the **currently
   active** parent via :class:`~repro.online.trainer.OnlineTrainer`,
   judges it with the
   :class:`~repro.online.policy.AntiRegressionGate` on a held-out
   slice, and registers it in the
   :class:`~repro.deploy.ModelRegistry` with lineage metadata (parent
   version, window span, trigger) whether or not it passed;
5. a gate-passing candidate is handed to the
   :class:`~repro.deploy.DeploymentController` as a canary; the
   controller's own verdict — including the quality-gauge comparison
   added for this loop — auto-promotes or auto-rolls-back.  While that
   candidate is in flight the loop neither retrains nor swaps: one
   rollout at a time, each ending in a recorded verdict.

Everything is deterministic under an injected clock: events carry
counts and versions, never wall timestamps.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import span
from ..training.checkpoint import atomic_write
from .buffer import Experience, ExperienceBuffer
from .policy import AntiRegressionGate, RetrainPolicy, RetrainTrigger
from .trainer import OnlineTrainer
from .zoo import ModelZoo, majority_regime

STATE_FILE = "loop_state.json"
BUFFER_FILE = "buffer.pkl"
HOLDOUT_FILE = "holdout.pkl"


@dataclasses.dataclass
class OnlineLoopConfig:
    """Orchestration knobs of :class:`OnlineLoop`."""

    train_window: int = 32          # experiences per fine-tune
    holdout_every: int = 4          # every k-th window sample is held out
    frozen_holdout_size: int = 8    # first-ingested clean slice kept aside
    canary_fraction: Optional[float] = None  # None -> controller default
    #: Trailing window-slice length voted over to detect the *current*
    #: regime for zoo re-activation; 0 disables regime switching.
    regime_window: int = 12
    #: Persist loop state (and the buffer/holdout snapshots) on every
    #: emitted event, so a kill at any event boundary restarts from
    #: :meth:`OnlineLoop.restore` without losing the in-flight retrain.
    durable: bool = False

    def __post_init__(self) -> None:
        if self.train_window < 2:
            raise ValueError("train_window must be >= 2")
        if self.holdout_every < 2:
            raise ValueError("holdout_every must be >= 2")
        if self.regime_window < 0:
            raise ValueError("regime_window must be non-negative")


class OnlineLoop:
    """Wires buffer, policy, trainer, gate, registry and controller."""

    def __init__(self, registry, controller, buffer: ExperienceBuffer,
                 trainer: OnlineTrainer, policy: RetrainPolicy,
                 gate: Optional[AntiRegressionGate] = None,
                 config: Optional[OnlineLoopConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Optional[Callable[[], float]] = None,
                 on_event: Optional[Callable[[str, str], None]] = None,
                 zoo: Optional[ModelZoo] = None):
        self.registry = registry
        self.controller = controller
        self.buffer = buffer
        self.trainer = trainer
        self.policy = policy
        self.gate = gate or AntiRegressionGate()
        self.config = config or OnlineLoopConfig()
        self.metrics = metrics
        self.clock = clock
        self.on_event = on_event
        self.zoo = zoo if zoo is not None else ModelZoo(registry)
        if clock is not None and getattr(policy, "clock", None) is None:
            # Satellite of the same loop: the policy's cooldown must
            # read the scenario clock, not the wall.
            policy.clock = clock
        self.retrains = 0
        self.reactivations = 0
        self.candidates: List[Dict[str, object]] = []
        self.frozen_holdout: List[Experience] = []
        self._last_trigger: Optional[RetrainTrigger] = None
        self._baseline_regime_tagged = False
        self._zoo_scanned = False
        if metrics is not None:
            self._m_retrains = metrics.counter(
                "rtp_online_retrains_total",
                "Fine-tune jobs started by the online loop",
                labels=("trigger",))
            self._m_candidates = metrics.counter(
                "rtp_online_candidates_total",
                "Fine-tuned candidates by gate/rollout outcome",
                labels=("outcome",))
            self._m_gate_ratio = metrics.gauge(
                "rtp_online_gate_mae_ratio",
                "student/parent held-out ETA MAE of the latest candidate")
            self._m_clean_ratio = metrics.gauge(
                "rtp_online_gate_clean_mae_ratio",
                "student/parent frozen clean-holdout ETA MAE of the "
                "latest candidate")
            self._m_reactivations = metrics.counter(
                "rtp_online_zoo_reactivations_total",
                "Regime returns served from the model zoo (no retrain)",
                labels=("regime",))

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return float(self.clock()) if self.clock is not None else 0.0

    def _event(self, event: str, detail: str) -> None:
        # Persist-then-notify: when the loop is durable, a kill at any
        # event boundary finds state on disk that already includes the
        # work that produced the event.
        if self.config.durable:
            self._persist_state()
        if self.on_event is not None:
            self.on_event(event, detail)

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def attach(self, monitor) -> None:
        """Subscribe to a :class:`QualityMonitor`'s drift alarms.

        A durable loop persists its state right after noting the alarm,
        so a crash at the alarm boundary restarts with the pending
        quorum intact (the monitor itself restarts cold and may never
        re-alarm on an already-shifted stream).
        """
        def _note(alarm) -> None:
            self.policy.note_alarm(alarm)
            if self.config.durable:
                self._persist_state()

        monitor.on_alarm(_note)

    def offer(self, request, response, actual_route,
              actual_arrival_minutes) -> bool:
        """Feed one completed route from the serving path.

        Degraded responses are skipped — the fallback's answer says
        nothing about the model — and the bounded buffer may drop the
        route under backpressure (counted, never blocking serving).
        """
        if getattr(response, "degraded", False):
            return False
        labels = {
            "weather": str(request.weather),
            "courier": str(request.courier.courier_id),
            "model_version": str(
                getattr(response, "model_version", "") or ""),
        }
        return self.buffer.offer(request, actual_route,
                                 actual_arrival_minutes, labels=labels)

    # ------------------------------------------------------------------
    # The loop body
    # ------------------------------------------------------------------
    def tick(self) -> Optional[Dict[str, object]]:
        """Drain feedback, maybe swap or retrain; returns the record."""
        drained = self.buffer.drain()
        if self.config.frozen_holdout_size > 0:
            for experience in drained:
                if len(self.frozen_holdout) \
                        >= self.config.frozen_holdout_size:
                    break
                self.frozen_holdout.append(experience)
            if (not self._baseline_regime_tagged
                    and len(self.frozen_holdout)
                    >= self.config.frozen_holdout_size):
                self._tag_baseline_regime()
        if self._maybe_reactivate() is not None:
            return None
        if self.controller.candidate is not None:
            return None   # one rollout at a time; ask again once it ends
        trigger = self.policy.should_retrain(
            self._now(), window_size=len(self.buffer),
            total_ingested=self.buffer.ingested)
        if trigger is None:
            return None
        return self._retrain(trigger)

    # ------------------------------------------------------------------
    # Regime zoo
    # ------------------------------------------------------------------
    def _tag_baseline_regime(self) -> None:
        """Stamp the serving parent with the clean slice's regime, so a
        later regime *return* can re-activate it from the zoo."""
        self._baseline_regime_tagged = True
        regime = majority_regime(self.frozen_holdout)
        if regime is None or not hasattr(self.registry, "tag_regime"):
            return
        active = self.controller.active_version
        try:
            if not (self.registry.manifest(active).regime or ""):
                self.registry.tag_regime(active, regime)
        except Exception:
            return
        self.zoo.refresh()
        self._zoo_scanned = True

    def _maybe_reactivate(self) -> Optional[str]:
        """Serve a *returning* regime from the zoo instead of retraining.

        Votes over the trailing ``regime_window`` slice of the live
        window; when a strict majority disagrees with the active
        version's regime tag and the zoo holds a gate-approved version
        for it, the controller hot-swaps to that version — no
        fine-tune, no forgetting, and the drift alarms the regime
        change raised are cleared as served.
        """
        cfg = self.config
        if cfg.regime_window <= 0:
            return None
        if not self._zoo_scanned:
            self.zoo.refresh()
            self._zoo_scanned = True
        if len(self.zoo) == 0:
            return None
        if self.controller.candidate is not None:
            return None
        window = self.buffer.window()
        if len(window) < cfg.regime_window:
            return None
        current = majority_regime(window[-cfg.regime_window:])
        if current is None:
            return None
        active = self.controller.active_version
        try:
            active_regime = self.registry.manifest(active).regime or ""
        except Exception:
            return None
        if not active_regime or current == active_regime:
            return None
        version = self.zoo.version_for(current)
        if version is None or version == active:
            return None
        self.controller.swap(version)
        self.reactivations += 1
        self.policy.note_regime_swap()
        if self.metrics is not None:
            self._m_reactivations.labels(regime=current).inc()
        self._event(
            "online_zoo_reactivated",
            f"regime {current} returned: {version} re-activated from "
            f"the zoo (was {active} [{active_regime}], no retrain)")
        self._persist_state()
        return version

    def _split(self) -> (List[Experience], List[Experience]):
        """Deterministic train/holdout split of the training set."""
        experiences = self.buffer.training_set(
            limit=self.config.train_window)
        train: List[Experience] = []
        holdout: List[Experience] = []
        for index, experience in enumerate(experiences):
            if index % self.config.holdout_every \
                    == self.config.holdout_every - 1:
                holdout.append(experience)
            else:
                train.append(experience)
        if not holdout and train:
            holdout.append(train.pop())
        return train, holdout

    def _retrain(self, trigger: RetrainTrigger) -> Dict[str, object]:
        parent = self.controller.active_version
        job_id = f"ft{self.retrains:03d}"
        self.retrains += 1
        span_lo, span_hi = self.buffer.window_span()
        self._event(
            "online_retrain_started",
            f"job {job_id} from {parent} on {trigger.kind}: "
            f"{trigger.reason}")
        if self.metrics is not None:
            self._m_retrains.labels(trigger=trigger.kind).inc()
        train, holdout = self._split()
        holdout_seqs = {e.seq for e in self.frozen_holdout}
        # Pre-shift rehearsal pool: the reservoir tail, minus anything
        # the frozen clean holdout will judge on (never train on the
        # exam) and anything already in the training window.
        window_seqs = {e.seq for e in train} | {e.seq for e in holdout}
        replay_pool = [e for e in self.buffer.reservoir()
                       if e.seq not in holdout_seqs
                       and e.seq not in window_seqs]
        with span("online.retrain", job=job_id, parent=parent,
                  trigger=trigger.kind):
            result = self.trainer.fine_tune(
                parent, [e.instance for e in train], job_id=job_id,
                replay=[e.instance for e in replay_pool])
            parent_model, _ = self.registry.load(parent)
            gate = self.gate.evaluate(
                parent_model, result.model,
                [e.instance for e in holdout],
                trigger_kind=trigger.kind,
                clean_holdout=[e.instance for e in self.frozen_holdout])
        regime = majority_regime(train) or ""
        lineage = {
            "parent": parent,
            "trigger": trigger.kind,
            "trigger_reason": trigger.reason,
            "window_span": [span_lo, span_hi],
            "train_samples": len(train),
            "holdout_samples": len(holdout),
            "replay_samples": result.replay_samples,
            "clean_holdout_samples": gate.clean_holdout_size,
            "regime": regime,
            "job": job_id,
            "gate_passed": gate.passed,
        }
        marker = f"online-{job_id}-of-{parent}"
        manifest = self._find_registered(marker)
        if manifest is None:
            manifest = self.registry.register(
                result.model,
                created_at=marker,
                metrics={
                    "fine_tune_loss": (result.losses[-1]
                                       if result.losses else float("nan")),
                    "gate_parent_mae": gate.parent_mae,
                    "gate_student_mae": gate.student_mae,
                    "gate_mae_ratio": gate.mae_ratio,
                    "gate_clean_parent_mae": gate.clean_parent_mae,
                    "gate_clean_student_mae": gate.clean_student_mae,
                    "gate_clean_mae_ratio": gate.clean_mae_ratio,
                },
                notes=json.dumps(lineage, sort_keys=True),
                regime=regime)
        self.zoo.refresh()
        self._zoo_scanned = True
        self._event(
            "online_candidate_registered",
            f"{manifest.version} (parent {parent}, {trigger.kind}, "
            f"window [{span_lo}, {span_hi}], {len(train)} train / "
            f"{len(holdout)} holdout)")
        if self.metrics is not None:
            self._m_gate_ratio.set(
                gate.mae_ratio if gate.mae_ratio != float("inf") else -1.0)
            if gate.clean_holdout_size:
                self._m_clean_ratio.set(
                    gate.clean_mae_ratio
                    if gate.clean_mae_ratio != float("inf") else -1.0)
        record: Dict[str, object] = {
            "job": job_id, "version": manifest.version, "parent": parent,
            "trigger": trigger.kind, "regime": regime,
            "replay_samples": result.replay_samples,
            "gate": dataclasses.asdict(gate),
            "canaried": False,
        }
        if gate.passed:
            version = self.controller.start_canary(
                manifest.version, self.config.canary_fraction)
            record["canaried"] = True
            self._event(
                "online_canary_started",
                f"gate passed ({gate.reason}); candidate {version} "
                f"canarying")
            if self.metrics is not None:
                self._m_candidates.labels(outcome="canaried").inc()
        else:
            self._event(
                "online_candidate_rejected",
                f"{manifest.version} blocked by anti-regression gate: "
                f"{gate.reason}")
            if self.metrics is not None:
                self._m_candidates.labels(outcome="rejected").inc()
        self.policy.note_retrained(self._now(), self.buffer.ingested)
        self._last_trigger = trigger
        self.candidates.append(record)
        self._persist_state()
        return record

    def _find_registered(self, marker: str):
        """Find a version this loop already registered under ``marker``.

        Registration is keyed on the deterministic ``created_at``
        marker so a retrain replayed after a kill/restart *reuses* the
        version it registered before dying instead of minting a
        duplicate.
        """
        try:
            for version in self.registry.versions():
                manifest = self.registry.manifest(version)
                if manifest.created_at == marker:
                    return manifest
        except Exception:
            return None
        return None

    # ------------------------------------------------------------------
    # Inspection / durability
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Machine-readable loop state (the CLI renders this)."""
        return {
            "active_version": self.controller.active_version,
            "buffer": self.buffer.stats(),
            "retrains": self.retrains,
            "reactivations": self.reactivations,
            "pending_alarms": self.policy.pending_alarms,
            "frozen_holdout": len(self.frozen_holdout),
            "baseline_regime_tagged": self._baseline_regime_tagged,
            "zoo": self.zoo.mapping(),
            "policy": self.policy.state_dict()
            if hasattr(self.policy, "state_dict") else {},
            "candidates": list(self.candidates),
        }

    def persist(self) -> None:
        """Write the current :meth:`status` to the workdir state file."""
        self._persist_state()

    def _persist_state(self) -> None:
        with atomic_write(self.trainer.workdir / STATE_FILE, "w") as handle:
            json.dump(self.status(), handle, sort_keys=True, indent=2)
        if self.config.durable:
            self.snapshot()

    def snapshot(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Persist the buffer (and frozen holdout) for restart durability."""
        target = Path(path) if path is not None \
            else self.trainer.workdir / BUFFER_FILE
        result = self.buffer.snapshot(target)
        if path is None:
            with atomic_write(self.trainer.workdir / HOLDOUT_FILE,
                              "wb") as handle:
                pickle.dump(self.frozen_holdout, handle)
        return result

    def restore(self) -> bool:
        """Rehydrate from a previous incarnation's workdir.

        Reads ``loop_state.json`` plus the buffer/holdout snapshots a
        durable loop wrote at every event boundary.  A retrain that was
        started but whose record never landed in ``candidates`` (the
        process died mid-flight) is re-run under its **original** job
        id, so the trainer resumes its checkpoint and the registration
        marker dedupes — the replayed arc promotes exactly once.
        """
        state = load_loop_state(self.trainer.workdir)
        if state is None:
            return False
        self.candidates = list(state.get("candidates", []))
        self.retrains = len(self.candidates)
        self.reactivations = int(state.get("reactivations", 0))
        self._baseline_regime_tagged = bool(
            state.get("baseline_regime_tagged", False))
        policy_state = state.get("policy")
        if isinstance(policy_state, dict) and policy_state \
                and hasattr(self.policy, "load_state_dict"):
            self.policy.load_state_dict(policy_state)
        buffer_path = self.trainer.workdir / BUFFER_FILE
        if buffer_path.exists():
            self.buffer.restore(buffer_path)
        holdout_path = self.trainer.workdir / HOLDOUT_FILE
        if holdout_path.exists():
            with open(holdout_path, "rb") as handle:
                self.frozen_holdout = pickle.load(handle)
        try:
            self.zoo.refresh()
            self._zoo_scanned = True
        except Exception:
            pass
        return True


def load_loop_state(workdir: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Read the state file a loop persisted in ``workdir`` (or None)."""
    path = Path(workdir) / STATE_FILE
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
