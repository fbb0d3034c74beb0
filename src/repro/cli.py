"""Command-line interface: generate / train / evaluate / serve / deploy / obs.

Installed as ``repro-rtp``::

    repro-rtp generate --out data.csv --aois 60 --couriers 6 --days 10
    repro-rtp train --data data.csv --out model.npz --epochs 12 \\
        --events events.jsonl --trace train_trace.jsonl
    repro-rtp evaluate --data data.csv --model model.npz
    repro-rtp serve --data data.csv --model model.npz --queries 5 \\
        --trace trace.jsonl --metrics-out metrics.prom --profile-ops
    repro-rtp deploy register --registry reg/ --model model.npz
    repro-rtp deploy serve --registry reg/ --data data.csv \\
        --candidate latest --canary-frac 0.2
    repro-rtp load --scenario surge --smoke
    repro-rtp obs --file trace.jsonl

``train`` writes the model config next to the checkpoint
(``model.npz`` + ``model.json``) so ``evaluate``/``serve`` can rebuild
the exact architecture.  ``obs`` summarises a JSONL file produced by
``--trace`` (span trees) or ``--events`` (training telemetry).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .core import FallbackPredictor, M2G4RTP, M2G4RTPConfig
from .data import GeneratorConfig, RTPDataset, SyntheticWorld, read_csv, write_csv
from .deploy import (DeploymentController, FaultInjector, FaultPlan,
                     ModelRegistry, ResilienceConfig, RolloutPolicy)
from .eval import evaluate_method, format_table, model_predictor
from .obs import (EventLog, MetricsRegistry, disable_tracing, enable_tracing,
                  format_span_record, profile_ops, read_jsonl,
                  summarize_events, summarize_spans)
from .service import (ETAService, OrderSortingService, RTPRequest, RTPService,
                      ServiceMonitor)
from .training import Trainer, TrainerConfig, load_checkpoint, save_checkpoint


def _config_path(model_path: Path) -> Path:
    return model_path.with_suffix(".json")


def _save_model(model: M2G4RTP, path: Path) -> None:
    save_checkpoint(model, path)
    _config_path(path).write_text(
        json.dumps(dataclasses.asdict(model.config), indent=2))


def _load_model(path: Path) -> M2G4RTP:
    config_file = _config_path(path)
    if not config_file.exists():
        raise FileNotFoundError(
            f"missing model config {config_file}; train with this CLI "
            "or write the config JSON next to the checkpoint")
    config = M2G4RTPConfig.from_dict(json.loads(config_file.read_text()))
    model = M2G4RTP(config)
    load_checkpoint(model, path)
    model.eval()
    return model


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        num_aois=args.aois, num_couriers=args.couriers, num_days=args.days,
        instances_per_courier_day=args.per_day, seed=args.seed)
    dataset = RTPDataset(SyntheticWorld(config).generate()).filter_paper_scope()
    write_csv(list(dataset), args.out)
    summary = dataset.summary()
    print(f"wrote {summary['num_instances']} instances "
          f"({summary['num_days']} days) to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = read_csv(args.data)
    train, validation, _ = dataset.split_by_day()
    print(f"training on {len(train)} instances "
          f"(validating on {len(validation)})")
    model = M2G4RTP(M2G4RTPConfig(seed=args.seed,
                                  hidden_dim=args.hidden_dim))
    event_log = EventLog(args.events) if args.events else None
    registry = MetricsRegistry() if args.metrics_out else None
    collector = enable_tracing() if args.trace else None
    trainer_config = TrainerConfig(
        epochs=args.epochs, learning_rate=args.lr,
        batch_size=args.batch_size, verbose=not args.quiet)
    trainer = Trainer(model, trainer_config,
                      event_log=event_log, registry=registry)
    try:
        history = trainer.fit(train, validation)
    finally:
        if event_log is not None:
            event_log.close()
        if collector is not None:
            disable_tracing()
    if collector is not None:
        count = collector.write_jsonl(args.trace)
        print(f"wrote {count} trace roots to {args.trace}")
    if registry is not None:
        Path(args.metrics_out).write_text(registry.render() + "\n")
        print(f"wrote metrics exposition to {args.metrics_out}")
    if event_log is not None:
        print(f"wrote training events to {args.events}")
    _save_model(model, Path(args.out))
    best = (f" (best epoch {history.best_epoch})"
            if history.best_epoch >= 0 else "")
    print(f"saved {args.out}{best}; "
          f"final train loss {history.train_loss[-1]:.4f}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = read_csv(args.data)
    _, _, test = dataset.split_by_day()
    model = _load_model(Path(args.model))
    evaluation = evaluate_method("M2G4RTP", model_predictor(model), test)
    print(format_table([evaluation], "route"))
    print()
    print(format_table([evaluation], "time"))
    return 0


def _serve_sharded(args: argparse.Namespace) -> int:
    """``serve --shards N``: replay through the multi-process tier."""
    from .serving_shard import ShardConfig, ShardRouter

    dataset = read_csv(args.data)
    _, _, test = dataset.split_by_day()
    model = _load_model(Path(args.model))
    registry = MetricsRegistry()
    collector = enable_tracing() if args.trace else None
    router = ShardRouter(
        model, version="v001",
        config=ShardConfig(num_shards=args.shards),
        metrics=registry, inline=False)
    served = 0
    try:
        for instance in list(test)[: args.queries]:
            request = RTPRequest.from_instance(instance)
            shard = router.place(request)
            response = router.handle(request)
            served += 1
            flag = " (degraded)" if response.degraded else ""
            print(f"courier {request.courier.courier_id} -> shard {shard}: "
                  f"{request.num_locations} orders, "
                  f"{response.latency_ms:6.1f} ms, "
                  f"version {response.model_version}{flag}")
        print(f"\nserved {served} queries over {args.shards} shards:")
        for entry in router.shard_stats():
            print(f"  shard {entry['shard']}: {entry['requests']:4d} "
                  f"requests, {entry['shed']} shed, "
                  f"p99 {entry['p99_ms']:.1f} ms")
    finally:
        router.shutdown()
        if collector is not None:
            disable_tracing()
    if collector is not None:
        count = collector.write_jsonl(args.trace)
        print(f"wrote {count} trace roots to {args.trace}")
    if args.metrics_out:
        Path(args.metrics_out).write_text(registry.render() + "\n")
        print(f"wrote metrics exposition to {args.metrics_out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.shards > 0:
        return _serve_sharded(args)
    dataset = read_csv(args.data)
    _, _, test = dataset.split_by_day()
    model = _load_model(Path(args.model))
    service = RTPService(model)
    registry = MetricsRegistry()
    monitor = ServiceMonitor(service, registry=registry)
    sorting = OrderSortingService(monitor)
    eta = ETAService(monitor)
    collector = enable_tracing() if args.trace else None
    profiler = None
    try:
        if args.profile_ops:
            from .obs import OpProfiler
            profiler = OpProfiler().start()
        for instance in list(test)[: args.queries]:
            request = RTPRequest.from_instance(instance)
            orders = sorting.sort_orders(request)
            entries = {entry.location_id: entry for entry in eta.etas(request)}
            print(f"\ncourier {request.courier.courier_id} "
                  f"({request.num_locations} orders):")
            for order in orders:
                entry = entries[order.location_id]
                flag = " !" if entry.overdue_risk else ""
                print(f"  {order.position:2d}. order {order.location_id} "
                      f"(AOI {order.aoi_id}) ETA {order.eta_minutes:5.1f} min"
                      f"{flag}")
    finally:
        if profiler is not None:
            profiler.stop()
        if collector is not None:
            disable_tracing()
    if profiler is not None:
        profiler.publish(registry)
        print("\ntop autodiff ops by self time:")
        print(profiler.report(top_k=args.top_ops))
    if collector is not None:
        count = collector.write_jsonl(args.trace)
        print(f"\nwrote {count} trace roots to {args.trace}")
    if args.metrics_out:
        Path(args.metrics_out).write_text(monitor.render_metrics() + "\n")
        print(f"wrote metrics exposition to {args.metrics_out}")
    print(f"\nserved {service.queries_served} queries")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    if args.file is None:
        print("obs: --file is required (or use `obs report`)",
              file=sys.stderr)
        return 2
    records = read_jsonl(args.file)
    if not records:
        print(f"{args.file}: empty")
        return 1
    if "duration_ms" in records[0]:
        print(f"trace: {len(records)} root spans\n")
        print(summarize_spans(records))
        show = min(args.show_trees, len(records))
        for record in records[:show]:
            print()
            print(format_span_record(record))
    else:
        print(f"events: {len(records)} records\n")
        print(summarize_events(records))
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Serve a query stream, join it with ground truth, emit the
    schema-pinned quality/drift artifact."""
    from .obs.quality import (CompletedRoute, PageHinkleyDetector,
                              QualityMonitor, ReferenceWindowDetector,
                              build_quality_artifact,
                              write_quality_artifact)
    if args.data:
        instances = list(read_csv(args.data))
        source = str(args.data)
    else:
        world = SyntheticWorld(GeneratorConfig(
            num_aois=40, num_couriers=6, num_days=4,
            instances_per_courier_day=2, seed=args.seed))
        instances = list(
            RTPDataset(world.generate()).filter_paper_scope())
        source = "synthetic"
    if not instances:
        print("obs report: no instances to serve", file=sys.stderr)
        return 1
    if args.model:
        model = _load_model(Path(args.model))
    else:
        model = M2G4RTP(M2G4RTPConfig(seed=args.seed, hidden_dim=16,
                                      num_heads=2, num_encoder_layers=1))
        model.eval()
    service = RTPService(model)
    registry = MetricsRegistry()
    shift = float(args.shift_minutes)
    monitor = QualityMonitor(
        registry, window=args.window,
        page_hinkley=PageHinkleyDetector(
            delta=20.0, threshold=max(shift / 2.0, 60.0), min_samples=8),
        reference_window=ReferenceWindowDetector(
            reference_size=24, window_size=12,
            ks_threshold=0.75, psi_threshold=3.0))
    for index in range(args.queries):
        instance = instances[index % len(instances)]
        response = service.handle(RTPRequest.from_instance(instance))
        actual = np.asarray(instance.arrival_times, dtype=float)
        if args.shift_after is not None and index >= args.shift_after:
            actual = actual + shift
        monitor.record(CompletedRoute(
            predicted_route=[int(i) for i in response.route],
            actual_route=[int(i) for i in instance.route],
            predicted_eta_minutes=[float(v) for v in response.eta_minutes],
            actual_arrival_minutes=actual,
            labels={"weather": str(instance.weather),
                    "courier": str(instance.courier.courier_id),
                    "model_version": "cli"}))
    artifact = build_quality_artifact(monitor, source=source,
                                      seed=args.seed)
    write_quality_artifact(artifact, args.out)
    rollup = artifact["segments"].get("all", {}).get("all", {})
    print(f"quality report: {artifact['observations']} routes, "
          f"verdict {artifact['verdict']}")
    if rollup:
        print(f"  windowed: krc {rollup['route_krc']:.3f} "
              f"lsd {rollup['route_lsd']:.2f} "
              f"eta_mae {rollup['eta_mae']:.2f} min "
              f"eta_mape {rollup['eta_mape']:.3f}")
    for alarm in artifact["alarms"]:
        print(f"  alarm: {alarm['detector']} on {alarm['metric']} at "
              f"route {alarm['observations']} "
              f"(statistic {alarm['statistic']:.1f} > "
              f"{alarm['threshold']:.1f})")
    print(f"wrote {args.out}")
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    action = args.deploy_command

    if action == "list":
        active = registry.active()
        pinned = registry.pinned()
        if not registry.versions():
            print(f"registry {args.registry}: empty")
            return 0
        for version in registry.versions():
            manifest = registry.manifest(version)
            flags = "".join([
                " [active]" if version == active else "",
                " [pinned]" if version == pinned else "",
            ])
            metrics = ", ".join(f"{k}={v:.3g}"
                                for k, v in sorted(manifest.metrics.items()))
            print(f"{version:12s} seq={manifest.sequence:<3d} "
                  f"created={manifest.created_at or '-':20s} "
                  f"sha256={manifest.checkpoint_sha256[:12]} "
                  f"{metrics}{flags}")
        return 0

    if action == "register":
        model = _load_model(Path(args.model))
        metrics = json.loads(args.metrics) if args.metrics else {}
        manifest = registry.register(
            model, version=args.version, metrics=metrics,
            data_seed=args.data_seed, created_at=args.created_at,
            notes=args.notes)
        print(f"registered {manifest.version} "
              f"(sha256 {manifest.checkpoint_sha256[:12]})")
        return 0

    if action == "promote":
        registry.activate(args.version)
        print(f"active -> {registry.active()}")
        return 0

    if action == "rollback":
        previous = registry.rollback_active()
        print(f"rolled back; active -> {previous}")
        return 0

    if action == "serve":
        dataset = read_csv(args.data)
        _, _, test = dataset.split_by_day()
        resilience = ResilienceConfig(
            deadline_ms=args.deadline_ms,
            max_queue_depth=args.max_queue_depth)
        policy = RolloutPolicy(
            canary_fraction=args.canary_frac,
            min_requests=args.min_requests)
        initial = None
        if args.candidate and registry.active() is None:
            # No ACTIVE pointer yet: serve the newest non-candidate
            # version so the rollout compares two distinct versions.
            candidate_version = registry.resolve(args.candidate)
            others = [v for v in registry.versions()
                      if v != candidate_version]
            if not others:
                print(f"error: {candidate_version} is the only registered "
                      "version; nothing to roll out over", file=sys.stderr)
                return 1
            initial = others[-1]
        controller = DeploymentController(
            registry, resilience=resilience, policy=policy,
            fallback=FallbackPredictor.from_dataset(dataset),
            initial=initial, seed=args.seed)
        fault_injector = None
        if args.fault_error_rate > 0 or args.fault_spike_rate > 0:
            fault_injector = FaultInjector(FaultPlan(
                error_rate=args.fault_error_rate,
                spike_rate=args.fault_spike_rate,
                latency_spike_ms=args.fault_spike_ms), seed=args.seed)
        if args.candidate:
            if args.shadow:
                controller.start_shadow(args.candidate, fault_injector)
            else:
                controller.start_canary(args.candidate,
                                        fault_injector=fault_injector)
            print(f"{'shadow' if args.shadow else 'canary'} rollout of "
                  f"{args.candidate} over primary {controller.active_version}")
        instances = list(test)
        degraded = 0
        for index in range(args.queries):
            instance = instances[index % len(instances)]
            response = controller.handle(RTPRequest.from_instance(instance))
            degraded += int(response.degraded)
        print(f"served {args.queries} queries, active {controller.active_version}, "
              f"degraded {degraded} "
              f"({100.0 * degraded / max(args.queries, 1):.1f}%)")
        for decision in controller.decisions:
            print(f"decision: {decision.action} {decision.version} "
                  f"({decision.reason})")
        if args.shadow and controller.shadow_stats.requests:
            stats = controller.shadow_stats
            print(f"shadow divergence: route mismatch "
                  f"{100.0 * stats.route_mismatch_rate:.1f}%, "
                  f"ETA MAE {stats.eta_mae:.2f} min "
                  f"over {stats.requests} requests")
        if args.metrics_out:
            Path(args.metrics_out).write_text(
                controller.render_metrics() + "\n")
            print(f"wrote metrics exposition to {args.metrics_out}")
        return 0

    raise ValueError(f"unknown deploy action {action!r}")


def cmd_load(args: argparse.Namespace) -> int:
    from . import load as load_harness

    if args.list:
        for name, scenario in sorted(load_harness.SCENARIOS.items()):
            print(f"{name:24s} {scenario.description}")
        return 0
    if args.scenario is None:
        print("error: --scenario is required (or use --list)",
              file=sys.stderr)
        return 2
    virtual = args.mode == "virtual" or (args.smoke and args.mode is None)
    rate = args.rate
    duration = args.duration
    if args.smoke:
        rate = rate if rate is not None else 40.0
        duration = duration if duration is not None else 1.0
    config = load_harness.LoadRunConfig(
        rate=rate if rate is not None else 40.0,
        phase_duration_s=duration if duration is not None else 5.0,
        seed=args.seed, virtual=virtual,
        deadline_ms=args.deadline_ms,
        max_queue_depth=args.max_queue_depth,
        num_shards=args.shards,
        closed_loop=args.closed_loop,
        slo=load_harness.SLOPolicy(
            p99_ms=args.slo_p99_ms,
            max_degraded_fraction=args.slo_max_degraded))
    model = _load_model(Path(args.model)) if args.model else None
    result = load_harness.run_scenario(args.scenario, config, model=model)

    artifact = result.artifact
    print(f"scenario {args.scenario} ({config.mode} clock, "
          f"seed {config.seed})")
    header = (f"{'phase':18s} {'rate':>7s} {'req':>6s} {'p50ms':>8s} "
              f"{'p95ms':>8s} {'p99ms':>8s} {'degr%':>7s} {'shed':>5s} "
              f"{'backlog':>7s}")
    print(header)
    for phase in artifact["phases"]:
        latency = phase["latency_ms"]
        mark = "" if phase["slo"] else "  (no SLO)"
        print(f"{phase['name']:18s} {phase['rate_rps']:>7.1f} "
              f"{phase['requests']:>6d} {latency['p50']:>8.1f} "
              f"{latency['p95']:>8.1f} {latency['p99']:>8.1f} "
              f"{100.0 * phase['degraded']['fraction']:>6.1f}% "
              f"{phase['degraded']['by_reason'].get('shed', 0):>5d} "
              f"{phase['max_backlog']:>7d}{mark}")
    for event in artifact["events"]:
        print(f"event [{event['phase']}] {event['event']}: "
              f"{event['detail']}")
    for decision in artifact["decisions"]:
        print(f"decision: {decision['action']} {decision['version']} "
              f"({decision['reason']})")
    slo = artifact["slo"]
    verdict = "PASS" if slo["passed"] else "FAIL"
    print(f"SLO {verdict}: p99 {slo['p99_ms']:.1f} ms "
          f"(bound {slo['policy']['p99_ms']:.0f}), degraded "
          f"{100.0 * slo['degraded_fraction']:.1f}% "
          f"(bound {100.0 * slo['policy']['max_degraded_fraction']:.0f}%)"
          + (f"; violations: {'; '.join(slo['violations'])}"
             if slo["violations"] else ""))
    out = args.out or f"load_{args.scenario}.json"
    load_harness.write_artifact(artifact, Path(out))
    print(f"wrote artifact to {out}")
    if args.enforce_slo and not slo["passed"]:
        return 1
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    from . import load as load_harness
    from .online import load_loop_state

    registry_dir = Path(args.registry)

    if args.online_action == "run":
        config = load_harness.LoadRunConfig(
            phase_duration_s=1.0 if args.smoke else args.duration,
            seed=args.seed, virtual=args.mode != "wall")
        result = load_harness.run_scenario(
            args.scenario, config, registry_dir=registry_dir)
        artifact = result.artifact
        for event in artifact["events"]:
            print(f"event [{event['phase']}] {event['event']}: "
                  f"{event['detail']}")
        for decision in artifact["decisions"]:
            print(f"decision: {decision['action']} {decision['version']} "
                  f"({decision['reason']})")
        result.context.online.persist()
        status = result.context.online.status()
        print(f"active version {status['active_version']}, "
              f"{status['retrains']} retrain(s), "
              f"{len(status['candidates'])} candidate(s)")
        if args.out:
            load_harness.write_artifact(artifact, Path(args.out))
            print(f"wrote artifact to {args.out}")
        return 0

    if args.online_action == "status":
        state = load_loop_state(registry_dir / "online_jobs")
        if state is None:
            print(f"no online-loop state under {registry_dir} "
                  f"(run `repro-rtp online run --registry ...` first)")
            return 1
        buffer = state["buffer"]
        print(f"active version   {state['active_version']}")
        print(f"retrains         {state['retrains']}")
        print(f"pending alarms   {state['pending_alarms']}")
        print(f"experience buffer {buffer['window']} window / "
              f"{buffer['reservoir']} reservoir "
              f"({buffer['ingested']} ingested, {buffer['dropped']} dropped)")
        registry = ModelRegistry(registry_dir)
        for record in state["candidates"]:
            gate = record["gate"]
            verdict = ("canaried" if record["canaried"]
                       else "rejected by gate")
            print(f"  candidate {record['version']} "
                  f"(job {record['job']}, parent {record['parent']}, "
                  f"{record['trigger']}): {verdict}; "
                  f"holdout mae {gate['student_mae']:.1f} vs parent "
                  f"{gate['parent_mae']:.1f}")
            manifest = registry.manifest(str(record["version"]))
            if manifest.notes:
                lineage = json.loads(manifest.notes)
                print(f"    lineage: window {lineage['window_span']}, "
                      f"{lineage['train_samples']} train / "
                      f"{lineage['holdout_samples']} holdout, "
                      f"trigger {lineage['trigger_reason']!r}")
        return 0

    if args.online_action == "zoo":
        from .online.zoo import ModelZoo

        if not registry_dir.exists():
            print(f"no registry under {registry_dir} "
                  f"(run `repro-rtp online run --registry ...` first)")
            return 1
        registry = ModelRegistry(registry_dir)
        zoo = ModelZoo(registry)
        zoo.refresh()
        active = registry.active()
        print(f"registry         {registry_dir}")
        print(f"active version   {active or '(none)'}")
        print(f"zoo entries      {len(zoo)}")
        for regime in zoo.regimes():
            version = zoo.version_for(regime)
            manifest = registry.manifest(version)
            marker = " (active)" if version == active else ""
            line = f"  {regime:16s} -> {version}{marker}"
            clean = manifest.metrics.get("gate_clean_mae_ratio")
            shifted = manifest.metrics.get("gate_mae_ratio")
            if shifted is not None:
                line += f"  gate shifted ratio {shifted:.3f}"
            if clean is not None:
                line += f", clean ratio {clean:.3f}"
            print(line)
        untagged = [v for v in registry.versions()
                    if not registry.manifest(v).regime]
        if untagged:
            print(f"untagged         {', '.join(sorted(untagged))}")
        return 0

    raise ValueError(f"unknown online action {args.online_action!r}")


def cmd_info(args: argparse.Namespace) -> int:
    dataset = read_csv(args.data)
    for key, value in dataset.summary().items():
        print(f"{key:28s} {value}")
    return 0


# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rtp",
        description="M2G4RTP route-and-time prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    generate.add_argument("--out", required=True)
    generate.add_argument("--aois", type=int, default=60)
    generate.add_argument("--couriers", type=int, default=6)
    generate.add_argument("--days", type=int, default=10)
    generate.add_argument("--per-day", type=int, default=2)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="train M2G4RTP on a CSV dataset")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--epochs", type=_positive_int, default=12)
    train.add_argument("--lr", type=float, default=3e-3)
    train.add_argument("--hidden-dim", type=_positive_int, default=32)
    train.add_argument("--batch-size", type=_positive_int, default=1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--quiet", action="store_true")
    train.add_argument("--events", default=None, metavar="PATH",
                       help="write per-epoch telemetry JSONL here")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="enable tracing; write span JSONL here")
    train.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write Prometheus exposition here after training")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="evaluate a trained model")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.set_defaults(func=cmd_evaluate)

    serve = sub.add_parser("serve", help="replay requests through the service")
    serve.add_argument("--data", required=True)
    serve.add_argument("--model", required=True)
    serve.add_argument("--queries", type=int, default=3)
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="enable tracing; write span JSONL here")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write Prometheus exposition here after serving")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve through N worker-process shards "
                            "(0 = single in-process service)")
    serve.add_argument("--profile-ops", action="store_true",
                       help="profile autodiff ops and print the top-k "
                            "table (served requests run the fused kernels, "
                            "which it cannot see; served stages appear as "
                            "kernel.* spans under --trace)")
    serve.add_argument("--top-ops", type=int, default=10,
                       help="rows in the op-profile table")
    serve.set_defaults(func=cmd_serve)

    obs = sub.add_parser(
        "obs", help="summarise a trace/event JSONL, or emit a quality "
                    "report (obs report)")
    obs.add_argument("--file",
                     help="JSONL written by --trace or --events")
    obs.add_argument("--show-trees", type=int, default=1,
                     help="number of span trees to print for traces")
    obs.set_defaults(func=cmd_obs)
    obs_sub = obs.add_subparsers(dest="obs_command")
    obs_report = obs_sub.add_parser(
        "report", help="serve queries against ground truth and emit the "
                       "schema-pinned quality/drift JSON artifact")
    obs_report.add_argument("--data",
                            help="dataset CSV (default: synthetic pool)")
    obs_report.add_argument("--model",
                            help="trained checkpoint (default: untrained "
                                 "serving-shaped model)")
    obs_report.add_argument("--out", default="obs_quality.json",
                            help="artifact path (default: %(default)s)")
    obs_report.add_argument("--queries", type=int, default=96,
                            help="routes to serve (default: %(default)s)")
    obs_report.add_argument("--window", type=int, default=32,
                            help="quality rollup window "
                                 "(default: %(default)s)")
    obs_report.add_argument("--shift-after", type=int, default=None,
                            help="inject a label shift after this many "
                                 "routes (default: no shift)")
    obs_report.add_argument("--shift-minutes", type=float, default=480.0,
                            help="size of the injected shift "
                                 "(default: %(default)s)")
    obs_report.add_argument("--seed", type=int, default=0)
    obs_report.set_defaults(func=cmd_obs_report)

    deploy = sub.add_parser(
        "deploy", help="model registry and canary/shadow rollout")
    deploy_sub = deploy.add_subparsers(dest="deploy_command", required=True)

    deploy_list = deploy_sub.add_parser("list", help="list registry versions")
    deploy_list.add_argument("--registry", required=True)
    deploy_list.set_defaults(func=cmd_deploy)

    deploy_register = deploy_sub.add_parser(
        "register", help="register a trained checkpoint as a new version")
    deploy_register.add_argument("--registry", required=True)
    deploy_register.add_argument("--model", required=True,
                                 help="checkpoint written by `train`")
    deploy_register.add_argument("--version", default=None)
    deploy_register.add_argument("--metrics", default=None,
                                 help='JSON dict, e.g. \'{"mae": 22.4}\'')
    deploy_register.add_argument("--data-seed", type=int, default=None)
    deploy_register.add_argument("--created-at", default="",
                                 help="timestamp string stored verbatim")
    deploy_register.add_argument("--notes", default="")
    deploy_register.set_defaults(func=cmd_deploy)

    deploy_promote = deploy_sub.add_parser(
        "promote", help="point ACTIVE at a version")
    deploy_promote.add_argument("--registry", required=True)
    deploy_promote.add_argument("--version", required=True)
    deploy_promote.set_defaults(func=cmd_deploy)

    deploy_rollback = deploy_sub.add_parser(
        "rollback", help="re-activate the previously active version")
    deploy_rollback.add_argument("--registry", required=True)
    deploy_rollback.set_defaults(func=cmd_deploy)

    deploy_serve = deploy_sub.add_parser(
        "serve", help="replay queries through the deployment controller")
    deploy_serve.add_argument("--registry", required=True)
    deploy_serve.add_argument("--data", required=True)
    deploy_serve.add_argument("--queries", type=int, default=50)
    deploy_serve.add_argument("--candidate", default=None,
                              help="version ref to canary/shadow")
    deploy_serve.add_argument("--canary-frac", type=float, default=0.2)
    deploy_serve.add_argument("--shadow", action="store_true",
                              help="duplicate traffic instead of splitting")
    deploy_serve.add_argument("--min-requests", type=int, default=20)
    deploy_serve.add_argument("--deadline-ms", type=float, default=250.0)
    deploy_serve.add_argument("--max-queue-depth", type=int, default=64)
    deploy_serve.add_argument("--fault-error-rate", type=float, default=0.0)
    deploy_serve.add_argument("--fault-spike-rate", type=float, default=0.0)
    deploy_serve.add_argument("--fault-spike-ms", type=float, default=0.0)
    deploy_serve.add_argument("--seed", type=int, default=0)
    deploy_serve.add_argument("--metrics-out", default=None, metavar="PATH")
    deploy_serve.set_defaults(func=cmd_deploy)

    load_cmd = sub.add_parser(
        "load", help="constant-rate load & scenario replay (repro.load)")
    load_cmd.add_argument("--scenario", default=None,
                          help="scenario name (see --list)")
    load_cmd.add_argument("--list", action="store_true",
                          help="list available scenarios and exit")
    load_cmd.add_argument("--rate", type=float, default=None,
                          help="base arrival rate, requests/s (default 40)")
    load_cmd.add_argument("--duration", type=float, default=None,
                          help="full-weight phase duration, s (default 5)")
    load_cmd.add_argument("--seed", type=int, default=0)
    load_cmd.add_argument("--mode", choices=["wall", "virtual"], default=None,
                          help="clock: wall (real time) or virtual "
                               "(deterministic; default with --smoke)")
    load_cmd.add_argument("--smoke", action="store_true",
                          help="short deterministic run (1 s phases, "
                               "virtual clock unless --mode wall)")
    load_cmd.add_argument("--model", default=None, metavar="PATH",
                          help="trained checkpoint to serve (default: "
                               "small fresh model)")
    load_cmd.add_argument("--out", default=None, metavar="PATH",
                          help="artifact path (default load_<scenario>.json)")
    load_cmd.add_argument("--deadline-ms", type=float, default=250.0)
    load_cmd.add_argument("--max-queue-depth", type=int, default=32)
    load_cmd.add_argument("--shards", type=int, default=2,
                          help="shard count for shard_* scenarios")
    load_cmd.add_argument("--closed-loop", action="store_true",
                          help="naive closed-loop generator instead of the "
                               "open-loop schedule (coordinated-omission "
                               "comparison mode)")
    load_cmd.add_argument("--slo-p99-ms", type=float, default=250.0)
    load_cmd.add_argument("--slo-max-degraded", type=float, default=0.2)
    load_cmd.add_argument("--enforce-slo", action="store_true",
                          help="exit non-zero when the SLO verdict fails")
    load_cmd.set_defaults(func=cmd_load)

    online = sub.add_parser(
        "online",
        help="online continual-learning loop (repro.online)")
    online_sub = online.add_subparsers(dest="online_action", required=True)
    online_run = online_sub.add_parser(
        "run", help="drive a continual-learning scenario: serve, drift, "
                    "fine-tune, gate, canary-promote (and, for "
                    "regime_cycle, zoo-reactivate on regime return)")
    online_run.add_argument("--registry", required=True,
                            help="model registry directory (created if "
                                 "missing; loop state persists under "
                                 "<registry>/online_jobs)")
    online_run.add_argument("--scenario",
                            choices=["continual_drift", "regime_cycle"],
                            default="continual_drift")
    online_run.add_argument("--seed", type=int, default=0)
    online_run.add_argument("--duration", type=float, default=5.0,
                            help="full-weight phase duration, s")
    online_run.add_argument("--smoke", action="store_true",
                            help="short deterministic run (1 s phases)")
    online_run.add_argument("--mode", choices=["wall", "virtual"],
                            default="virtual")
    online_run.add_argument("--out", default=None, metavar="PATH",
                            help="also write the JSON run artifact here")
    online_run.set_defaults(func=cmd_online)
    online_status = online_sub.add_parser(
        "status", help="inspect persisted loop state and candidate lineage")
    online_status.add_argument("--registry", required=True)
    online_status.set_defaults(func=cmd_online)
    online_zoo = online_sub.add_parser(
        "zoo", help="show the per-regime model zoo: which registered "
                    "version serves each weather regime")
    online_zoo.add_argument("--registry", required=True)
    online_zoo.set_defaults(func=cmd_online)

    info = sub.add_parser("info", help="summarise a CSV dataset")
    info.add_argument("--data", required=True)
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
