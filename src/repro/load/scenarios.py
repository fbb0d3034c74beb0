"""Composable load scenarios over the resilience and deployment stack.

Each :class:`Scenario` composes the pieces the repo already has — the
synthetic world (request pool), :class:`~repro.deploy.FaultInjector`
(per-phase fault plans), :class:`~repro.deploy.ResilientRTPService`
(deadline/breaker/shedding) and
:class:`~repro.deploy.DeploymentController` (canary rollout) — into a
phased, seeded traffic profile driven by the open-loop
:class:`~repro.load.driver.OpenLoopDriver`:

============================  =========================================
``steady``                    constant-rate baseline; the SLO reference
``surge``                     rush-hour 4× overload between two calm
                              phases; shedding expected mid-surge,
                              recovery must be clean
``courier_churn``             every request from a never-seen courier
``gps_dropout``               coordinate noise + stale courier fixes
``fault_storm``               transient-error burst on the model path;
                              the breaker must open and recover
``checkpoint_corruption``     the on-disk checkpoint rots mid-run; the
                              registry must refuse the reload while
                              the in-memory model keeps serving
``canary_surge``              a faulty candidate canaries during a
                              surge; the controller must roll it back
``quality_drift``             ground-truth labels shift mid-canary; the
                              quality monitor's drift detectors must
                              alarm and the controller must roll the
                              candidate back on the alarm — serving
                              metrics alone never notice
``shard_soak``                diurnal (sine) arrivals over N serving
                              shards; admission control sheds the peak
                              and the steady tail must be SLO-clean
``shard_kill``                a serving shard dies mid-run; the router
                              respawns it from current weights without
                              breaking the SLO
``weather_slowdown``          a storm front inflates weather-coupled
                              service times; shedding must track the
                              weather, recovery as it clears
``continual_drift``           a persistent storm regime shifts labels;
                              the online continual-learning loop must
                              alarm, fine-tune on the experience
                              window, and canary-promote the student
                              through the quality-gated verdict
============================  =========================================

Runs are deterministic at a fixed seed in ``virtual`` mode (simulated
time; see :mod:`repro.load.clock`), which is what makes scenario
outcomes assertable in tier-1 tests; ``wall`` mode exercises real
wall-clock physics for benchmarks and soaks.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core import M2G4RTP, M2G4RTPConfig
from ..core.fallback import FallbackPredictor
from ..data import GeneratorConfig, SyntheticWorld
from ..deploy import (DeploymentController, FaultInjector, FaultPlan,
                      ModeledLatencyService, ModelRegistry, ResilienceConfig,
                      ResilientRTPService, RolloutPolicy, corrupt_checkpoint)
from ..deploy.registry import CheckpointIntegrityError
from ..obs.metrics import MetricsRegistry
from ..obs.quality import (CompletedRoute, FlightRecorder,
                           PageHinkleyDetector, QualityMonitor,
                           ReferenceWindowDetector)
from ..obs.tracing import current_trace_id
from ..online import (AntiRegressionGate, ExperienceBuffer, OnlineLoop,
                      OnlineLoopConfig, OnlineTrainer, OnlineTrainerConfig,
                      RetrainPolicy, RetrainPolicyConfig)
from ..service.rtp_service import RTPService
from ..serving_shard import ShardConfig, ShardRouter
from .artifact import SLOPolicy, build_artifact
from .clock import WEATHER_SERVICE_SLOWDOWN, VirtualClock
from .driver import LoadPhase, OpenLoopDriver, PhaseResult, diurnal_rate
from .stream import (RequestStream, build_instance_pool,
                     courier_churn_mutator, gps_noise_mutator,
                     storm_weather_mutator)

#: Minutes of extra courier lateness per weather code when a scenario
#: couples weather to the ground-truth label stream (storm deliveries
#: run late even when the model's inputs say so too).
WEATHER_ETA_DELAY = {0: 0.0, 1: 5.0, 2: 30.0, 3: 90.0}


@dataclasses.dataclass
class LoadRunConfig:
    """Runtime knobs of one scenario run (all scenarios share these)."""

    rate: float = 40.0              # base arrival rate (requests/second)
    phase_duration_s: float = 5.0   # length of a full-weight phase
    surge_factor: float = 4.0       # rate multiplier for surge phases
    seed: int = 0
    virtual: bool = True            # simulated time (deterministic)
    model_latency_ms: float = 15.0  # modeled service time in virtual mode
    hidden_dim: int = 16
    pool_size: int = 24             # distinct requests in the replay pool
    cache_size: int = 32            # service graph-cache entries
    deadline_ms: float = 250.0
    max_queue_depth: int = 32
    breaker_failure_threshold: int = 3
    breaker_recovery_s: float = 1.0
    canary_fraction: float = 0.3
    canary_min_requests: int = 12
    num_shards: int = 2             # shards in needs_shards scenarios
    #: Minutes added to every actual arrival during the label-shift
    #: phase of ``quality_drift`` — deliberately enormous (couriers
    #: suddenly hours late) so the detectors separate the shifted
    #: stream from baseline variation by a wide deterministic margin.
    quality_shift_minutes: float = 480.0
    #: Drive phases with a naive closed-loop generator instead of the
    #: open-loop schedule (coordinated-omission comparison mode).
    closed_loop: bool = False
    slo: SLOPolicy = dataclasses.field(default_factory=SLOPolicy)

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.phase_duration_s <= 0:
            raise ValueError("rate and phase_duration_s must be positive")
        if self.surge_factor < 1.0:
            raise ValueError("surge_factor must be >= 1")

    @property
    def mode(self) -> str:
        return "virtual" if self.virtual else "wall"


@dataclasses.dataclass
class ScenarioContext:
    """Everything a running scenario (and its hooks) can touch."""

    config: LoadRunConfig
    metrics: MetricsRegistry
    clock: Callable[[], float]
    sleeper: Callable[[float], None]
    stream: RequestStream
    injector: FaultInjector
    driver: OpenLoopDriver
    handler: Callable
    controller: Optional[DeploymentController] = None
    registry: Optional[ModelRegistry] = None
    router: Optional[ShardRouter] = None
    breaker_watch: List[object] = dataclasses.field(default_factory=list)
    events: List[Dict[str, str]] = dataclasses.field(default_factory=list)
    current_phase: str = ""
    quality: Optional[QualityMonitor] = None
    recorder: Optional[FlightRecorder] = None
    online: Optional[OnlineLoop] = None
    # Mutable cell so phase hooks can shift the ground-truth labels the
    # quality feed sees (the handler closure reads it per request).
    eta_shift: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {"minutes": 0.0})
    # Per-weather-code minutes added to actual arrivals when the
    # scenario couples weather to the label stream (``None`` = off).
    weather_delay: Optional[Dict[int, float]] = None
    _tempdir: Optional[tempfile.TemporaryDirectory] = None

    def breaker_opens(self) -> int:
        """Total breaker trips across every watched service."""
        self._watch_shard_breakers()
        return sum(breaker.opens for breaker in self.breaker_watch)

    def _watch_shard_breakers(self) -> None:
        """Add the breakers of shard runtimes built since the last
        sweep (respawns and swaps build new ones) to the watch."""
        if self.router is None:
            return
        for breaker in self.router.breakers:
            if breaker not in self.breaker_watch:
                self.breaker_watch.append(breaker)

    def record_event(self, event: str, detail: str) -> None:
        self.events.append({"phase": self.current_phase, "event": event,
                            "detail": detail})

    def close(self) -> None:
        if self.router is not None:
            self.router.shutdown()   # no-op in inline mode
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


@dataclasses.dataclass
class Scenario:
    """A named, phased traffic profile."""

    name: str
    description: str
    build_phases: Callable[[LoadRunConfig], List[LoadPhase]]
    needs_registry: bool = False    # serve a registry-loaded checkpoint
    needs_controller: bool = False  # route through DeploymentController
    attach_quality: bool = False    # feed a QualityMonitor ground truth
    needs_shards: bool = False      # route through a ShardRouter
    attach_online: bool = False     # close the loop with an OnlineLoop
    weather_coupled: bool = False   # weather slows service + shifts labels


@dataclasses.dataclass
class ScenarioResult:
    """Artifact plus the raw measurements behind it."""

    scenario: str
    artifact: Dict[str, object]
    phases: List[PhaseResult]
    context: ScenarioContext

    @property
    def passed(self) -> bool:
        return bool(self.artifact["slo"]["passed"])


# ----------------------------------------------------------------------
# Stack construction
# ----------------------------------------------------------------------
def small_model(seed: int, hidden_dim: int) -> M2G4RTP:
    """A serving-shaped model; load testing needs shape, not accuracy."""
    model = M2G4RTP(M2G4RTPConfig(
        hidden_dim=hidden_dim, num_heads=2, num_encoder_layers=1,
        continuous_embed_dim=8, discrete_embed_dim=4, position_dim=4,
        courier_embed_dim=4, seed=seed))
    model.eval()
    return model


def build_context(scenario: Scenario, config: LoadRunConfig,
                  metrics: Optional[MetricsRegistry] = None,
                  registry_dir: Optional[Path] = None,
                  model: Optional[M2G4RTP] = None) -> ScenarioContext:
    """Wire the service stack a scenario needs, ready to drive.

    ``model`` overrides the default :func:`small_model` (the CLI passes
    a trained checkpoint here).  ``registry_dir`` pins where
    registry-backed scenarios keep their versions; by default a
    temporary directory is used and cleaned up with the context.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    if config.virtual:
        virtual_clock = VirtualClock()
        clock: Callable[[], float] = virtual_clock
        sleeper: Callable[[float], None] = virtual_clock.sleep
    else:
        virtual_clock = None
        clock = time.perf_counter
        sleeper = time.sleep

    world = SyntheticWorld(GeneratorConfig(
        num_aois=40, num_couriers=6, num_days=4,
        instances_per_courier_day=2, seed=config.seed))
    pool = build_instance_pool(world, config.pool_size, seed=config.seed + 1)
    stream = RequestStream(pool, seed=config.seed + 2)
    injector = FaultInjector(FaultPlan(), seed=config.seed + 3,
                             sleeper=sleeper)
    resilience = ResilienceConfig(
        deadline_ms=config.deadline_ms,
        breaker_failure_threshold=config.breaker_failure_threshold,
        breaker_recovery_seconds=config.breaker_recovery_s,
        max_queue_depth=config.max_queue_depth)
    fallback = FallbackPredictor()

    # The driver exists before the services so its backlog probe can be
    # the admission-control signal; the handler is attached below.
    driver = OpenLoopDriver(None, scenario=scenario.name, clock=clock,
                            sleeper=sleeper, registry=metrics,
                            closed_loop=config.closed_loop)

    def modeled(inner):
        if virtual_clock is None:
            return inner
        return ModeledLatencyService(
            inner, virtual_clock.advance, base_ms=config.model_latency_ms,
            seed=config.seed + 20,
            weather_factors=(WEATHER_SERVICE_SLOWDOWN
                             if scenario.weather_coupled else None))

    context = ScenarioContext(
        config=config, metrics=metrics, clock=clock, sleeper=sleeper,
        stream=stream, injector=injector, driver=driver, handler=None)

    model_registry: Optional[ModelRegistry] = None
    if scenario.needs_registry or scenario.needs_controller:
        if registry_dir is None:
            context._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-load-registry-")
            registry_dir = Path(context._tempdir.name)
        model_registry = ModelRegistry(registry_dir)
        model_registry.register(
            model or small_model(config.seed + 10, config.hidden_dim),
            created_at=f"load-{scenario.name}-v1", data_seed=config.seed)
        if scenario.needs_controller:
            model_registry.register(
                small_model(config.seed + 11, config.hidden_dim),
                created_at=f"load-{scenario.name}-v2",
                data_seed=config.seed)
        context.registry = model_registry

    if scenario.needs_shards:
        _attach_shards(context, scenario, config, resilience,
                       virtual_clock, model)
    elif scenario.needs_controller:
        controller = DeploymentController(
            model_registry, resilience=resilience,
            policy=RolloutPolicy(
                canary_fraction=config.canary_fraction,
                min_requests=config.canary_min_requests),
            metrics=metrics, fallback=fallback, initial="v001",
            seed=config.seed + 4, clock=clock, backlog_probe=driver.probe,
            service_wrapper=lambda inner: modeled(injector.wrap(inner)))
        context.controller = controller
        context.handler = controller.handle
        context.breaker_watch.append(controller.primary.breaker)
    else:
        if model is not None:
            serving_model = model
        elif model_registry is not None:
            serving_model, _ = model_registry.load("v001")
        else:
            serving_model = small_model(config.seed + 10, config.hidden_dim)
        service = RTPService(serving_model, cache_size=config.cache_size)
        resilient = ResilientRTPService(
            modeled(injector.wrap(service)), fallback=fallback,
            config=resilience, backlog_probe=driver.probe,
            registry=metrics, version="v001", clock=clock)
        context.handler = resilient.handle
        context.breaker_watch.append(resilient.breaker)

    if scenario.weather_coupled:
        context.weather_delay = dict(WEATHER_ETA_DELAY)
    driver.handler = context.handler
    if scenario.attach_quality:
        _attach_quality(context)
    if scenario.attach_online:
        _attach_online(context)
    return context


def _attach_shards(context: ScenarioContext, scenario: Scenario,
                   config: LoadRunConfig, resilience: ResilienceConfig,
                   virtual_clock: Optional[VirtualClock],
                   model: Optional[M2G4RTP]) -> None:
    """Route the scenario through a :class:`ShardRouter`.

    Virtual runs use inline shards on the shared virtual clock — one
    deterministic timeline, so shed/respawn/swap outcomes are
    assertable bit-for-bit (capacity does *not* scale with shard count
    here; the wall-mode soak bench is where real-process scaling
    shows).  Wall runs fork real worker processes.  Each shard's inner
    service gets its own seeded :class:`ModeledLatencyService` in
    virtual mode so latency draws differ across shards but replay
    exactly.
    """
    serving_model = model or small_model(config.seed + 10,
                                         config.hidden_dim)

    def shard_wrapper(shard_id: int) -> Callable:
        def wrap(inner):
            return ModeledLatencyService(
                inner, virtual_clock.advance,
                base_ms=config.model_latency_ms,
                seed=config.seed + 20 + shard_id)
        return wrap

    def note_respawn(shard: int) -> None:
        # Called before the runtime is replaced: keep its breaker.
        context._watch_shard_breakers()
        context.record_event(
            "shard_respawned",
            f"shard {shard} rebuilt from version "
            f"{context.router.version}")

    shed_phases: set = set()

    def note_shed(shard: int) -> None:
        if context.current_phase not in shed_phases:
            shed_phases.add(context.current_phase)
            context.record_event(
                "shard_shed",
                f"admission control began shedding on shard {shard}")

    router = ShardRouter(
        serving_model, version="v001",
        config=ShardConfig(
            num_shards=config.num_shards,
            # Each shard owns an equal slice of the global queue
            # budget: admission must trip when one shard's share is
            # exhausted, not when the whole fleet's worth piles up on
            # a single placement.
            max_queue_depth=max(4, config.max_queue_depth
                                // config.num_shards),
            cache_size=config.cache_size),
        resilience=resilience, metrics=context.metrics,
        inline=config.virtual, clock=context.clock,
        service_wrapper=shard_wrapper if config.virtual else None,
        backlog_probe=context.driver.probe,
        on_respawn=note_respawn, on_shed=note_shed)
    context.router = router
    context.handler = router.handle
    context._watch_shard_breakers()
    context.events.append({
        "phase": "setup", "event": "shards_started",
        "detail": f"{config.num_shards} shards serving v001 in "
                  f"{'inline' if config.virtual else 'process'} mode"})


def _attach_quality(context: ScenarioContext) -> None:
    """Join the request/response stream with its ground truth.

    Every non-degraded response is paired with the pool instance that
    produced its request (``stream.last_instance`` — the replay pool
    carries the actual route and arrival times as labels), fed to a
    :class:`QualityMonitor`, and the monitor's alarms are forwarded to
    the deployment controller.  A :class:`FlightRecorder` is attached
    to the driver so latency exemplars resolve to request payloads.

    Detector tuning: the baseline ETA-error stream is a deterministic
    periodic replay, so thresholds sit far above its wander yet far
    below the ~:attr:`LoadRunConfig.quality_shift_minutes` jump a label
    shift causes — the alarm is separated by orders of magnitude, never
    marginal.
    """
    shift = context.config.quality_shift_minutes
    monitor = QualityMonitor(
        context.metrics, window=32, clock=context.clock,
        page_hinkley=PageHinkleyDetector(
            delta=20.0, threshold=shift / 2.0, min_samples=8),
        reference_window=ReferenceWindowDetector(
            reference_size=24, window_size=12,
            ks_threshold=0.75, psi_threshold=3.0))
    context.quality = monitor
    context.recorder = FlightRecorder(capacity=128)
    context.driver.recorder = context.recorder
    inner = context.handler

    def forward_alarm(alarm) -> None:
        context.record_event(
            "drift_alarm",
            f"{alarm.detector} on {alarm.metric}: statistic "
            f"{alarm.statistic:.1f} > {alarm.threshold:.1f} after "
            f"{alarm.observations} routes")
        if context.online is not None:
            # With an online loop attached, drift is the *retrain*
            # signal (the loop subscribes separately); candidate
            # safety comes from the quality-gated canary verdict, so
            # the stream-level alarm must not yank the canary that is
            # fixing the drift.
            return
        if context.controller is not None:
            decision = context.controller.on_drift_alarm(alarm)
            if decision is not None:
                context.record_event(
                    "drift_rollback",
                    f"{decision.version} rolled back: {decision.reason}")

    monitor.on_alarm(forward_alarm)

    def handler(request):
        response = inner(request)
        instance = context.stream.last_instance
        if instance is not None and not getattr(response, "degraded",
                                                False):
            weather = int(getattr(request, "weather", instance.weather))
            shift = context.eta_shift["minutes"]
            if context.weather_delay is not None:
                shift += context.weather_delay.get(weather, 0.0)
            actual = (np.asarray(instance.arrival_times, dtype=float)
                      + shift)
            monitor.record(CompletedRoute(
                predicted_route=[int(i) for i in response.route],
                actual_route=[int(i) for i in instance.route],
                predicted_eta_minutes=[float(v)
                                       for v in response.eta_minutes],
                actual_arrival_minutes=actual,
                labels={
                    "weather": str(weather),
                    "courier": str(instance.courier.courier_id),
                    "model_version": str(
                        getattr(response, "model_version", "") or ""),
                },
                trace_id=current_trace_id()))
            if context.online is not None:
                # The completed route feeds the experience buffer; each
                # request then gives the loop one chance to
                # drain/retrain (synchronous, zero virtual time).
                context.online.offer(
                    request, response, instance.route, actual)
                context.online.tick()
        return response

    context.handler = handler
    context.driver.handler = handler


def _attach_online(context: ScenarioContext) -> None:
    """Close the data loop: buffer → policy → trainer → gate → canary.

    The loop shares the scenario's registry, controller, metrics and
    virtual clock.  The retrain policy's cooldown reads the *scenario*
    clock (virtual seconds in deterministic runs) and is longer than
    any scenario's virtual span, so exactly one drift-triggered
    fine-tune fires per run and the event sequence stays pinned — at
    any host speed.  Fine-tunes interleave a seeded replay sample from
    the reservoir and the gate scores the mixture holdout (frozen
    clean slice + recent window), so adaptation is forgetting-bounded;
    the controller's rollout policy is tightened to require quality
    evidence before promoting, which is what makes the canary verdict
    read the candidate's actual windowed ETA MAE rather than just its
    latency health.
    """
    config = context.config
    workdir = Path(context.registry.root) / "online_jobs"
    buffer = ExperienceBuffer(
        capacity=48, reservoir=16, max_pending=4 * config.max_queue_depth,
        seed=config.seed + 30, metrics=context.metrics,
        clock=context.clock)
    # Cooler and longer than the trainer defaults: with replay in the
    # mix the fine-tune must fit *both* regimes, and lr 0.02 / 4 epochs
    # adapts fast but craters the clean holdout (ratio ~3.5 — gate
    # rejects for forgetting).  0.012 / 10 epochs lands clean ratio
    # ~0.77 and shifted ratio ~0.11 — both gate legs pass and the
    # windowed shifted-stream MAE matches the no-replay student's.
    trainer = OnlineTrainer(context.registry, workdir,
                            OnlineTrainerConfig(replay_fraction=1.0,
                                                learning_rate=0.012,
                                                epochs=10),
                            metrics=context.metrics)
    policy = RetrainPolicy(RetrainPolicyConfig(
        min_window=24, cooldown_s=900.0, min_new_samples=8,
        post_alarm_samples=28), clock=context.clock)
    loop = OnlineLoop(
        context.registry, context.controller, buffer, trainer, policy,
        AntiRegressionGate(),
        OnlineLoopConfig(train_window=32, holdout_every=4),
        metrics=context.metrics, clock=context.clock,
        on_event=context.record_event)
    if context.quality is not None:
        loop.attach(context.quality)
    context.online = loop
    context.controller.policy = dataclasses.replace(
        context.controller.policy,
        max_quality_mae_ratio=0.95, min_quality_routes=8)


# ----------------------------------------------------------------------
# Scenario hooks
# ----------------------------------------------------------------------
def _corrupt_checkpoint_hook(context: ScenarioContext) -> None:
    """Rot the served version's checkpoint; prove the reload is refused."""
    registry = context.registry
    version = registry.versions()[0]
    path = registry.checkpoint_path(version)
    corrupt_checkpoint(path, seed=context.config.seed)
    try:
        registry.load(version)
    except CheckpointIntegrityError as error:
        context.record_event(
            "checkpoint_corruption_rejected",
            f"reload of {version} refused: {error}")
    else:  # pragma: no cover - would be a registry integrity bug
        context.record_event(
            "checkpoint_corruption_missed",
            f"reload of {version} succeeded on a corrupt file")
        raise AssertionError(
            "registry loaded a corrupt checkpoint during the "
            "checkpoint_corruption scenario")


def _start_label_shift_hook(context: ScenarioContext) -> None:
    """Start a clean canary, then silently corrupt the ground truth.

    The candidate is healthy on every serving metric (no faults, normal
    latency), and the canary verdict is disabled by an unreachable
    ``min_requests`` — so if the candidate gets rolled back, it can only
    have been the quality monitor's drift alarm that did it.  The label
    shift itself models couriers arriving hours late while predictions
    are unchanged: invisible to latency/degraded series, glaring in the
    ETA-error stream.
    """
    controller = context.controller
    controller.policy = dataclasses.replace(
        controller.policy, min_requests=10 ** 9)
    version = controller.start_canary("v002")
    context.breaker_watch.append(controller.candidate.breaker)
    context.record_event(
        "canary_started",
        f"healthy candidate {version} took "
        f"{controller.policy.canary_fraction:.0%} of traffic")
    context.eta_shift["minutes"] = context.config.quality_shift_minutes
    context.record_event(
        "label_shift",
        f"actual arrivals shifted by "
        f"{context.config.quality_shift_minutes:.0f} minutes")


def _start_faulty_canary_hook(context: ScenarioContext) -> None:
    """Begin a canary of v002 whose model path is fault-injected."""
    candidate_injector = FaultInjector(
        FaultPlan(error_rate=0.7, spike_rate=0.2,
                  latency_spike_ms=context.config.deadline_ms / 4),
        seed=context.config.seed + 5, sleeper=context.sleeper)
    version = context.controller.start_canary(
        "v002", fault_injector=candidate_injector)
    context.breaker_watch.append(context.controller.candidate.breaker)
    context.record_event("canary_started",
                         f"faulty candidate {version} took "
                         f"{context.config.canary_fraction:.0%} of traffic")


# ----------------------------------------------------------------------
# Phase profiles
# ----------------------------------------------------------------------
def _steady_phases(c: LoadRunConfig) -> List[LoadPhase]:
    return [
        LoadPhase("warmup", 0.25 * c.phase_duration_s, c.rate, slo=False),
        LoadPhase("steady", c.phase_duration_s, c.rate),
    ]


def _surge_phases(c: LoadRunConfig) -> List[LoadPhase]:
    return [
        LoadPhase("baseline", 0.5 * c.phase_duration_s, c.rate),
        # Deliberate overload: excluded from the SLO verdict, but the
        # shed/degraded mix is recorded and recovery must be clean.
        LoadPhase("surge", c.phase_duration_s, c.rate * c.surge_factor,
                  slo=False),
        LoadPhase("recovery", 0.5 * c.phase_duration_s, c.rate),
    ]


def _churn_phases(c: LoadRunConfig) -> List[LoadPhase]:
    return [
        LoadPhase("stable_fleet", 0.5 * c.phase_duration_s, c.rate),
        LoadPhase("churn", c.phase_duration_s, c.rate,
                  mutator=courier_churn_mutator()),
        LoadPhase("settled", 0.5 * c.phase_duration_s, c.rate),
    ]


def _gps_phases(c: LoadRunConfig) -> List[LoadPhase]:
    return [
        LoadPhase("clean_fixes", 0.5 * c.phase_duration_s, c.rate),
        LoadPhase("gps_dropout", c.phase_duration_s, c.rate,
                  mutator=gps_noise_mutator()),
        LoadPhase("fixes_restored", 0.5 * c.phase_duration_s, c.rate),
    ]


def _fault_storm_phases(c: LoadRunConfig) -> List[LoadPhase]:
    storm_plan = FaultPlan(error_rate=0.85, spike_rate=0.2,
                           latency_spike_ms=c.deadline_ms / 4)
    return [
        LoadPhase("calm", 0.5 * c.phase_duration_s, c.rate),
        LoadPhase("storm", c.phase_duration_s, c.rate,
                  fault_plan=storm_plan, slo=False),
        LoadPhase("recovery", 0.5 * c.phase_duration_s, c.rate),
    ]


def _checkpoint_phases(c: LoadRunConfig) -> List[LoadPhase]:
    return [
        LoadPhase("steady", 0.5 * c.phase_duration_s, c.rate),
        # The corruption happens at phase entry; traffic continues on
        # the in-memory model and must be indistinguishable from steady.
        LoadPhase("corrupted_disk", c.phase_duration_s, c.rate,
                  on_enter=_corrupt_checkpoint_hook),
        LoadPhase("steady_after", 0.5 * c.phase_duration_s, c.rate),
    ]


def _canary_surge_phases(c: LoadRunConfig) -> List[LoadPhase]:
    surge_rate = c.rate * max(2.0, c.surge_factor / 2.0)
    return [
        LoadPhase("baseline", 0.5 * c.phase_duration_s, c.rate),
        LoadPhase("canary_surge", c.phase_duration_s, surge_rate,
                  on_enter=_start_faulty_canary_hook, slo=False),
        LoadPhase("recovery", 0.5 * c.phase_duration_s, c.rate),
    ]


def _kill_shard_hook(context: ScenarioContext) -> None:
    """Terminate one shard; the router must respawn it on demand."""
    victim = 1 if context.router.num_shards > 1 else 0
    context.router.kill_shard(victim)
    context.record_event("shard_killed",
                         f"shard {victim} terminated mid-phase")


def _shard_soak_phases(c: LoadRunConfig) -> List[LoadPhase]:
    # One full diurnal cycle squeezed into the phase.  The peak
    # (base·(1+A)) deliberately exceeds the modeled single-timeline
    # capacity so admission control must shed, while the cycle mean
    # stays below it so the backlog fully drains in the trough and the
    # closing steady phase is judged clean.
    period = 2.0 * c.phase_duration_s
    diurnal_base = 1.375 * c.rate
    return [
        LoadPhase("warmup", 0.25 * c.phase_duration_s, c.rate, slo=False),
        LoadPhase("diurnal", period, diurnal_base,
                  rate_profile=diurnal_rate(diurnal_base, amplitude=0.9,
                                            period_s=period),
                  profile_name="diurnal", slo=False),
        LoadPhase("steady", c.phase_duration_s, c.rate),
    ]


def _shard_kill_phases(c: LoadRunConfig) -> List[LoadPhase]:
    # Every phase counts toward the SLO: losing one shard of N must
    # not break the tail because the router respawns it on the next
    # request placed there (zero virtual-time cost, bounded wall cost).
    return [
        LoadPhase("steady", 0.5 * c.phase_duration_s, c.rate),
        LoadPhase("kill", c.phase_duration_s, c.rate,
                  on_enter=_kill_shard_hook),
        LoadPhase("recovered", 0.5 * c.phase_duration_s, c.rate),
    ]


def _quality_drift_phases(c: LoadRunConfig) -> List[LoadPhase]:
    return [
        LoadPhase("baseline", 0.5 * c.phase_duration_s, c.rate),
        # Latency physics are untouched — the phase is excluded from
        # the SLO verdict only because the canary split changes the
        # serving path, not because degradation is expected.
        LoadPhase("label_shift", c.phase_duration_s, c.rate,
                  on_enter=_start_label_shift_hook, slo=False),
        LoadPhase("post_rollback", 0.5 * c.phase_duration_s, c.rate),
    ]


def _start_continual_shift_hook(context: ScenarioContext) -> None:
    """A persistent regime change: couriers run hours late from here on.

    Unlike ``quality_drift`` (a transient corruption that must roll a
    candidate *back*), this shift never reverts — the only way to good
    predictions again is for the online loop to learn it.
    """
    shift = context.config.quality_shift_minutes
    context.eta_shift["minutes"] = shift
    context.record_event(
        "label_shift",
        f"storm regime: actual arrivals shifted by {shift:.0f} minutes "
        f"plus weather-coupled delays")


def _continual_drift_phases(c: LoadRunConfig) -> List[LoadPhase]:
    # Storm phases run at reduced demand (order volume drops in severe
    # weather) so the weather-doubled service time stays just under
    # saturation — the story here is prediction quality, not shedding.
    storm = storm_weather_mutator()
    storm_rate = 0.75 * c.rate
    # The loop needs enough routes to fill the retrain window, ride out
    # post-alarm arming and complete a canary; floor the phase length so
    # short smoke configs still exercise the full drift->promote arc.
    d = max(c.phase_duration_s, 2.5)
    return [
        LoadPhase("baseline", 0.5 * d, c.rate),
        # The storm never clears and the lateness never reverts: the
        # loop must alarm, fine-tune on the shifted window, and canary
        # the student through the quality-gated verdict.  Excluded
        # from the SLO verdict (canary split + slowed service path).
        LoadPhase("storm_shift", 1.5 * d, storm_rate,
                  on_enter=_start_continual_shift_hook, mutator=storm,
                  slo=False),
        # Post-promotion: the student serves the same shifted traffic;
        # its windowed ETA MAE is the before/after comparison.
        LoadPhase("adapted", 0.5 * d, storm_rate,
                  mutator=storm, slo=False),
    ]


def _clear_storm_hook(context: ScenarioContext) -> None:
    """The storm passes: actual arrivals revert to the clean regime."""
    context.eta_shift["minutes"] = 0.0
    context.record_event(
        "regime_revert",
        "storm cleared: actual arrivals back on the baseline regime")


def _regime_cycle_phases(c: LoadRunConfig) -> List[LoadPhase]:
    # Same storm arc as continual_drift, but the storm *clears*: the
    # promoted storm student now mispredicts the returning clean
    # regime, and the loop must swap the regime-matched zoo entry (the
    # original calm model) back in — a reactivation, not a retrain.
    storm = storm_weather_mutator()
    storm_rate = 0.75 * c.rate
    d = max(c.phase_duration_s, 2.5)
    return [
        LoadPhase("baseline", 0.5 * d, c.rate),
        LoadPhase("storm_shift", 1.5 * d, storm_rate,
                  on_enter=_start_continual_shift_hook, mutator=storm,
                  slo=False),
        # The shift reverts with the weather.  The storm student keeps
        # serving until the loop's regime vote flips and the zoo swaps
        # the calm model back; excluded from the SLO verdict while the
        # swap is in flight.
        LoadPhase("storm_clears", 0.75 * d, c.rate,
                  on_enter=_clear_storm_hook, slo=False),
        # Post-reactivation: the original model serves clean traffic.
        LoadPhase("reverted", 0.5 * d, c.rate),
    ]


def _weather_slowdown_phases(c: LoadRunConfig) -> List[LoadPhase]:
    # Storm weather doubles the modeled service time at unchanged
    # demand: the arrival interval (25 ms at the default rate) drops
    # below the storm-inflated cost (~30 ms), so the open-loop backlog
    # grows and admission control must shed — load shape emerging from
    # a *feature* of the traffic, not from a rate knob.
    return [
        LoadPhase("clear", 0.5 * c.phase_duration_s, c.rate),
        LoadPhase("storm", c.phase_duration_s, c.rate,
                  mutator=storm_weather_mutator(), slo=False),
        LoadPhase("clearing", 0.5 * c.phase_duration_s, c.rate,
                  mutator=storm_weather_mutator(severity=1)),
    ]


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in [
        Scenario("steady",
                 "constant-rate steady state; the SLO reference run",
                 _steady_phases),
        Scenario("surge",
                 "rush-hour 4x overload; shedding mid-surge, clean recovery",
                 _surge_phases),
        Scenario("courier_churn",
                 "every request from a never-seen courier (cold caches)",
                 _churn_phases),
        Scenario("gps_dropout",
                 "coordinate noise and stale courier fixes",
                 _gps_phases),
        Scenario("fault_storm",
                 "transient-error burst; breaker must open and recover",
                 _fault_storm_phases),
        Scenario("checkpoint_corruption",
                 "on-disk checkpoint rots mid-run; reload refused, "
                 "serving unaffected",
                 _checkpoint_phases, needs_registry=True),
        Scenario("canary_surge",
                 "faulty candidate canaries during a surge; must roll back",
                 _canary_surge_phases, needs_registry=True,
                 needs_controller=True),
        Scenario("quality_drift",
                 "ground-truth labels shift mid-canary; drift alarm must "
                 "fire and roll the candidate back",
                 _quality_drift_phases, needs_registry=True,
                 needs_controller=True, attach_quality=True),
        Scenario("shard_soak",
                 "diurnal arrivals over N shards; admission sheds the "
                 "peak, steady tail must be SLO-clean",
                 _shard_soak_phases, needs_shards=True),
        Scenario("shard_kill",
                 "a shard dies mid-run; the router respawns it without "
                 "breaking the SLO",
                 _shard_kill_phases, needs_shards=True),
        Scenario("weather_slowdown",
                 "a storm front inflates weather-coupled service times; "
                 "admission must shed the storm and recover as it clears",
                 _weather_slowdown_phases, weather_coupled=True),
        Scenario("continual_drift",
                 "a persistent storm regime shifts the labels; the "
                 "online loop must alarm, fine-tune on the window, and "
                 "canary-promote the student",
                 _continual_drift_phases, needs_registry=True,
                 needs_controller=True, attach_quality=True,
                 attach_online=True, weather_coupled=True),
        Scenario("regime_cycle",
                 "the storm regime shifts the labels, the loop adapts, "
                 "then the storm clears; the zoo must swap the original "
                 "regime's model back in without retraining",
                 _regime_cycle_phases, needs_registry=True,
                 needs_controller=True, attach_quality=True,
                 attach_online=True, weather_coupled=True),
    ]
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(name: str, config: Optional[LoadRunConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 registry_dir: Optional[Path] = None,
                 model: Optional[M2G4RTP] = None) -> ScenarioResult:
    """Run one named scenario end to end; returns result + artifact."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    config = config or LoadRunConfig()
    context = build_context(scenario, config, metrics=metrics,
                            registry_dir=registry_dir, model=model)
    try:
        results: List[PhaseResult] = []
        for phase in scenario.build_phases(config):
            context.current_phase = phase.name
            context.injector.plan = phase.fault_plan or FaultPlan()
            if phase.on_enter is not None:
                phase.on_enter(context)
            opens_before = context.breaker_opens()
            result = context.driver.run_phase(
                phase, lambda: context.stream.next(phase.mutator))
            result.breaker_opens = context.breaker_opens() - opens_before
            results.append(result)
        decisions = []
        if context.controller is not None:
            decisions = [
                {"action": d.action, "version": d.version,
                 "reason": d.reason}
                for d in context.controller.decisions]
        quality_block = None
        if context.quality is not None:
            monitor = context.quality
            quality_block = {
                "observations": int(monitor.observations),
                "drift_metric": monitor.drift_metric,
                "window": int(monitor.window),
                "segments": monitor.segment_summary(),
                "alarms": [alarm.to_dict() for alarm in monitor.alarms],
                "verdict": "drift" if monitor.alarms else "stable",
            }
        config_block = {
            "base_rate_rps": config.rate,
            "phase_duration_s": config.phase_duration_s,
            "surge_factor": config.surge_factor,
            "model_latency_ms": (config.model_latency_ms
                                 if config.virtual else None),
            "deadline_ms": config.deadline_ms,
            "max_queue_depth": config.max_queue_depth,
            "hidden_dim": config.hidden_dim,
        }
        if config.closed_loop:
            # Key present only for comparison runs so earlier
            # baselines keep their exact bytes.
            config_block["closed_loop"] = True
        shards_block = None
        if context.router is not None:
            # Key present only for sharded scenarios so earlier
            # baselines keep their exact bytes.
            config_block["num_shards"] = config.num_shards
            shards_block = context.router.shard_stats()
        artifact = build_artifact(
            scenario=name, description=scenario.description,
            mode=config.mode, seed=config.seed,
            config=config_block,
            phases=results, slo_policy=config.slo, registry=context.metrics,
            events=context.events, decisions=decisions,
            quality=quality_block, shards=shards_block)
        return ScenarioResult(scenario=name, artifact=artifact,
                              phases=results, context=context)
    finally:
        context.close()
