"""End-to-end observability tests: traced requests, shared registry,
trainer telemetry, and the ``repro-rtp obs`` CLI.

Includes the PR's acceptance check: a traced single-request span tree
contains graph-build, encoder, route-decode and time-decode spans whose
durations sum to within 10% of the recorded request latency.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import M2G4RTP, M2G4RTPConfig
from repro.eval import LatencyReport, model_predictor, profile_method
from repro.obs import (
    EventLog,
    MetricsRegistry,
    TraceCollector,
    disable_tracing,
    enable_tracing,
    read_jsonl,
)
from repro.service import RTPRequest, RTPService, ServiceMonitor
from repro.training import Trainer, TrainerConfig


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


@pytest.fixture(scope="module")
def model():
    return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                 num_encoder_layers=1))


def _span_names(span, acc=None):
    acc = [] if acc is None else acc
    acc.append(span.name)
    for child in span.children:
        _span_names(child, acc)
    return acc


# ----------------------------------------------------------------------
# Traced request path
# ----------------------------------------------------------------------
class TestTracedRequests:
    def test_single_request_span_tree(self, model, dataset):
        """Acceptance criterion: the request span tree has graph-build,
        encoder, route-decode and time-decode spans, and their durations
        sum to within 10% of the recorded request latency."""
        service = RTPService(model)
        request = RTPRequest.from_instance(dataset[0])
        service.handle(request)  # warm up outside the trace
        collector = enable_tracing()
        response = service.handle(request)
        disable_tracing()

        assert len(collector.roots) == 1
        root = collector.roots[0]
        assert root.name == "rtp.request"
        assert root.attrs["batch_size"] == 1
        names = _span_names(root)
        for required in ("graph_build", "encoder", "route_decode",
                         "time_decode"):
            assert required in names, f"missing span {required!r}"

        build = next(c for c in root.children if c.name == "graph_build")
        assert build.attrs["num_locations"] == request.num_locations
        infer = next(c for c in root.children if c.name == "infer")
        stage_sum = build.duration_ms + infer.duration_ms
        assert stage_sum == pytest.approx(response.latency_ms, rel=0.10), (
            f"span durations {stage_sum:.3f}ms vs recorded latency "
            f"{response.latency_ms:.3f}ms")
        # Decoder spans nest under infer and cover both levels.
        infer_names = _span_names(infer)
        assert infer_names.count("route_decode") == 2
        assert infer_names.count("time_decode") == 2
        # A single request is a batch of one on the kernel-backed engine.
        for kernel in ("kernel.level_embed", "kernel.gat_encoder",
                       "kernel.pointer_decode", "kernel.sort_rnn"):
            assert kernel in infer_names, f"missing span {kernel!r}"
        assert build.attrs["cache_hit"] is False
        assert response.batch_size == 1

    def test_batch_span_tree(self, model, dataset):
        service = RTPService(model)
        requests = [RTPRequest.from_instance(i) for i in list(dataset)[:3]]
        collector = enable_tracing()
        service.handle_batch(requests)
        disable_tracing()
        root = collector.roots[0]
        assert root.name == "rtp.request"
        assert root.attrs["batch_size"] == 3
        names = _span_names(root)
        assert names.count("graph_build") == 3
        assert [c.attrs["num_locations"] for c in root.children
                if c.name == "graph_build"] == [
            r.num_locations for r in requests]
        assert "encoder" in names

    def test_untraced_requests_produce_no_spans(self, model, dataset):
        service = RTPService(model)
        service.handle(RTPRequest.from_instance(dataset[0]))
        collector = enable_tracing()
        disable_tracing()
        assert collector.roots == []


# ----------------------------------------------------------------------
# Monitor metrics through the shared registry
# ----------------------------------------------------------------------
class TestMonitorMetrics:
    def test_batch_error_counts_every_request(self, dataset):
        class FailingService:
            def handle_batch(self, requests):
                raise RuntimeError("engine down")

        monitor = ServiceMonitor(FailingService())
        requests = [RTPRequest.from_instance(i) for i in list(dataset)[:4]]
        with pytest.raises(RuntimeError):
            monitor.handle_batch(requests)
        # One error per enqueued request, not one per batch.
        assert monitor.stats().errors == 4

    def test_batch_size_and_route_length_exported(self, model, dataset):
        monitor = ServiceMonitor(RTPService(model))
        requests = [RTPRequest.from_instance(i) for i in list(dataset)[:3]]
        monitor.handle_batch(requests)
        text = monitor.render_metrics()
        assert "rtp_route_length_sum" in text
        assert "rtp_route_length_count 3" in text
        assert 'rtp_batch_size_bucket{le="4"} 1' in text
        assert "rtp_batch_size_count 1" in text

    def test_shared_registry_across_subsystems(self, model, dataset):
        """Monitor and trainer both emit through one registry → one
        exposition."""
        registry = MetricsRegistry()
        monitor = ServiceMonitor(RTPService(model), registry=registry)
        monitor.handle(RTPRequest.from_instance(dataset[0]))

        small = M2G4RTP(M2G4RTPConfig(hidden_dim=8, num_heads=2,
                                      num_encoder_layers=1))
        trainer = Trainer(small, TrainerConfig(epochs=1), registry=registry)
        subset = type(dataset)(list(dataset)[:2])
        trainer.fit(subset)
        monitor.handle(RTPRequest.from_instance(dataset[1]))

        text = monitor.render_metrics()
        assert "rtp_queries_total 2" in text
        assert "rtp_train_epochs_total 1" in text
        assert "rtp_train_loss" in text


# ----------------------------------------------------------------------
# Trainer telemetry
# ----------------------------------------------------------------------
class TestTrainerTelemetry:
    def test_event_log_and_registry(self, dataset, tmp_path):
        path = tmp_path / "events.jsonl"
        model = M2G4RTP(M2G4RTPConfig(hidden_dim=8, num_heads=2,
                                      num_encoder_layers=1))
        registry = MetricsRegistry()
        subset = type(dataset)(list(dataset)[:3])
        val = type(dataset)(list(dataset)[3:5])
        with EventLog(path) as log:
            Trainer(model, TrainerConfig(epochs=2),
                    event_log=log, registry=registry).fit(subset, val)
        records = read_jsonl(path)
        epochs = [r for r in records if r["type"] == "epoch"]
        fits = [r for r in records if r["type"] == "fit"]
        assert len(epochs) == 2 and len(fits) == 1
        for record in epochs:
            for field in ("train_loss", "val_loss", "grad_norm", "lr",
                          "seconds", "sigmas"):
                assert field in record
        assert epochs[0]["grad_norm"] > 0
        assert fits[0]["epochs"] == 2
        text = registry.render()
        assert "rtp_train_epochs_total 2" in text
        assert "rtp_train_grad_norm" in text
        assert 'rtp_train_sigma{task="aoi_route"}' in text
        assert "rtp_train_epoch_seconds_count 2" in text


# ----------------------------------------------------------------------
# Eval profiler
# ----------------------------------------------------------------------
class TestEvalProfiler:
    def test_p99_present_and_ordered(self, model, dataset):
        report = profile_method("M2G4RTP", model_predictor(model),
                                list(dataset)[:5], warmup=1)
        assert isinstance(report, LatencyReport)
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        assert "p99" not in report.row()  # row is values only
        assert f"{report.p99_ms:8.3f}" in report.row()

    def test_profiling_does_not_leak_global_tracing(self, model, dataset):
        """profile_method uses its own collector — the global one stays
        empty."""
        collector = enable_tracing()
        profile_method("M2G4RTP", model_predictor(model),
                       list(dataset)[:2], warmup=0)
        disable_tracing()
        assert all(root.name != "profile.predict"
                   for root in collector.roots)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs_cli")
    csv = root / "data.csv"
    model = root / "model.npz"
    assert main(["generate", "--out", str(csv), "--aois", "20",
                 "--couriers", "3", "--days", "5", "--seed", "11"]) == 0
    assert main(["train", "--data", str(csv), "--out", str(model),
                 "--epochs", "2", "--quiet"]) == 0
    return root, csv, model


class TestCLI:
    def test_train_with_telemetry_flags(self, workspace, capsys):
        root, csv, _ = workspace
        events = root / "train_events.jsonl"
        metrics = root / "train_metrics.prom"
        out_model = root / "telemetry_model.npz"
        assert main(["train", "--data", str(csv), "--out", str(out_model),
                     "--epochs", "2", "--quiet",
                     "--events", str(events),
                     "--metrics-out", str(metrics)]) == 0
        records = read_jsonl(events)
        assert sum(r["type"] == "epoch" for r in records) == 2
        assert "rtp_train_epochs_total 2" in metrics.read_text()

    def test_serve_with_trace_and_metrics(self, workspace):
        root, csv, model = workspace
        trace = root / "serve_trace.jsonl"
        metrics = root / "serve_metrics.prom"
        assert main(["serve", "--data", str(csv), "--model", str(model),
                     "--queries", "2", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        roots = read_jsonl(trace)
        assert roots and all(r["name"] == "rtp.request" for r in roots)
        assert "rtp_queries_total" in metrics.read_text()

    def test_obs_summarizes_trace(self, workspace, capsys):
        root, csv, model = workspace
        trace = root / "obs_trace.jsonl"
        main(["serve", "--data", str(csv), "--model", str(model),
              "--queries", "1", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["obs", "--file", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "rtp.request" in out
        assert "graph_build" in out and "encoder" in out

    def test_obs_summarizes_events(self, workspace, capsys):
        root, csv, _ = workspace
        events = root / "obs_events.jsonl"
        out_model = root / "obs_events_model.npz"
        main(["train", "--data", str(csv), "--out", str(out_model),
              "--epochs", "2", "--quiet", "--events", str(events)])
        capsys.readouterr()
        assert main(["obs", "--file", str(events)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out and "epoch" in out

    def test_obs_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "--file", str(empty)]) == 1
        assert "empty" in capsys.readouterr().out

    def test_obs_without_file_or_subcommand_errors(self, capsys):
        assert main(["obs"]) == 2
        assert "obs report" in capsys.readouterr().err

    def test_obs_report_detects_injected_shift(self, workspace, capsys):
        from repro.obs import validate_quality_artifact
        root, csv, model = workspace
        out = root / "quality_drift.json"
        assert main(["obs", "report", "--data", str(csv),
                     "--model", str(model), "--queries", "64",
                     "--window", "16", "--shift-after", "32",
                     "--shift-minutes", "480", "--out", str(out),
                     "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        assert "verdict drift" in printed
        artifact = json.loads(out.read_text())
        validate_quality_artifact(artifact)
        assert artifact["verdict"] == "drift"
        assert artifact["observations"] == 64
        assert artifact["alarms"]
        assert artifact["alarms"][0]["observations"] > 32

    def test_obs_report_stable_without_shift(self, workspace, capsys):
        from repro.obs import validate_quality_artifact
        root, csv, model = workspace
        out = root / "quality_stable.json"
        assert main(["obs", "report", "--data", str(csv),
                     "--model", str(model), "--queries", "48",
                     "--window", "16", "--out", str(out),
                     "--seed", "3"]) == 0
        assert "verdict stable" in capsys.readouterr().out
        artifact = json.loads(out.read_text())
        validate_quality_artifact(artifact)
        assert artifact["alarms"] == []

    def test_obs_report_deterministic(self, workspace, capsys):
        root, csv, model = workspace
        first = root / "quality_a.json"
        second = root / "quality_b.json"
        for out in (first, second):
            assert main(["obs", "report", "--data", str(csv),
                         "--model", str(model), "--queries", "48",
                         "--window", "16", "--shift-after", "24",
                         "--out", str(out), "--seed", "7"]) == 0
        capsys.readouterr()
        assert first.read_text() == second.read_text()
