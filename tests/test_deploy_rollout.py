"""End-to-end rollout: canary auto-rollback/promote, shadow, CLI.

The acceptance scenario of the deployment subsystem: register ``v1``
and a ``v2`` in a real on-disk registry, drive real traffic through
the :class:`~repro.deploy.DeploymentController`, and check that

* a fault-injected ``v2`` canary is **auto-rolled-back** while
  availability stays 100% and degraded responses are flagged;
* a clean ``v2`` canary is **auto-promoted** under the same policy and
  persisted as the registry's ACTIVE version;
* shadow mode answers every request from the primary while recording
  candidate divergence.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import M2G4RTP, M2G4RTPConfig
from repro.deploy import (
    DeploymentController,
    FaultInjector,
    FaultPlan,
    ModelRegistry,
    ResilienceConfig,
    RolloutPolicy,
)
from repro.deploy import controller as controller_module
from repro.service import RTPRequest


def tiny_model(seed: int) -> M2G4RTP:
    model = M2G4RTP(M2G4RTPConfig(
        hidden_dim=16, num_heads=2, num_encoder_layers=1,
        continuous_embed_dim=8, discrete_embed_dim=4, position_dim=4,
        courier_embed_dim=4, seed=seed))
    model.eval()
    return model


@pytest.fixture()
def registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(tiny_model(seed=11), created_at="t1", data_seed=123)
    registry.register(tiny_model(seed=29), created_at="t2", data_seed=123)
    return registry


@pytest.fixture(scope="module")
def trace(dataset):
    instances = list(dataset)
    return [RTPRequest.from_instance(instances[i % len(instances)])
            for i in range(60)]


def make_controller(registry, **policy_overrides):
    settings = dict(canary_fraction=0.5, min_requests=8,
                    max_degraded_rate=0.2)
    settings.update(policy_overrides)
    policy = RolloutPolicy(**settings)
    resilience = ResilienceConfig(deadline_ms=10_000.0,
                                  breaker_recovery_seconds=0.01)
    return DeploymentController(registry, policy=policy,
                                resilience=resilience,
                                initial="v001", seed=5)


def assert_valid(response, request):
    assert (sorted(int(i) for i in response.route)
            == list(range(request.num_locations)))
    assert len(response.eta_minutes) == request.num_locations
    assert np.all(np.isfinite(response.eta_minutes))


class TestCanaryRollout:
    def test_faulty_candidate_rolled_back_availability_100(self, registry,
                                                           trace):
        controller = make_controller(registry)
        injector = FaultInjector(FaultPlan(error_rate=0.9), seed=13)
        controller.start_canary("v002", fault_injector=injector)

        degraded_responses = 0
        for request in trace:
            response = controller.handle(request)
            assert_valid(response, request)       # availability: every one
            if response.degraded:
                degraded_responses += 1
                assert response.degraded_reason in (
                    "error", "breaker_open", "deadline", "shed")
                assert response.model_version == "v002"

        assert degraded_responses > 0, "faults must surface as degraded"
        actions = [d.action for d in controller.decisions]
        assert actions == ["rollback"]
        assert controller.active_version == "v001"
        assert registry.active() == "v001"
        assert controller.mode is None  # canary dismantled

    def test_clean_candidate_auto_promoted(self, registry, trace):
        controller = make_controller(registry)
        controller.start_canary("v002")
        for request in trace:
            response = controller.handle(request)
            assert_valid(response, request)
            assert not response.degraded
        actions = [d.action for d in controller.decisions]
        assert actions == ["promote"]
        assert controller.active_version == "v002"
        assert registry.active() == "v002"
        # A fresh controller comes back serving the promoted version.
        fresh = DeploymentController(registry, seed=0)
        assert fresh.active_version == "v002"

    def test_decision_records_metrics(self, registry, trace):
        controller = make_controller(registry)
        injector = FaultInjector(FaultPlan(error_rate=0.9), seed=13)
        controller.start_canary("v002", fault_injector=injector)
        for request in trace:
            controller.handle(request)
        decision = controller.decisions[0]
        assert decision.version == "v002"
        assert decision.candidate_requests >= 8
        assert decision.candidate_degraded_rate > 0.2
        text = controller.render_metrics()
        assert 'rtp_rollout_decisions_total{action="rollback"} 1' in text
        assert 'rtp_model_requests_total{version="v001"}' in text
        assert 'rtp_model_requests_total{version="v002"}' in text

    def test_recanary_after_rollback_judged_on_fresh_traffic(self, registry,
                                                             trace):
        # The shared registry's counters are cumulative; a second canary
        # of the same version must not inherit the degraded history of
        # the rolled-back first attempt.
        controller = make_controller(registry)
        injector = FaultInjector(FaultPlan(error_rate=0.9), seed=13)
        controller.start_canary("v002", fault_injector=injector)
        for request in trace:
            controller.handle(request)
        assert [d.action for d in controller.decisions] == ["rollback"]

        controller.start_canary("v002")  # same version, now healthy
        for request in trace:
            controller.handle(request)
        assert [d.action for d in controller.decisions] == [
            "rollback", "promote"]
        assert controller.active_version == "v002"
        assert registry.active() == "v002"

    def test_candidate_equal_to_primary_rejected(self, registry):
        controller = make_controller(registry)
        with pytest.raises(ValueError, match="already the serving primary"):
            controller.start_canary("v001")
        with pytest.raises(ValueError, match="already the serving primary"):
            controller.start_shadow("v001")
        assert controller.mode is None

    @pytest.mark.parametrize("first", ["canary", "shadow"])
    def test_second_rollout_refused_while_candidate_in_flight(
            self, registry, first):
        # Overwriting an in-flight candidate would make its rollout
        # vanish with no verdict; the running one must end first.
        registry.register(tiny_model(seed=41), created_at="t3",
                          data_seed=123)
        controller = make_controller(registry, min_requests=10_000)
        getattr(controller, f"start_{first}")("v002")
        with pytest.raises(RuntimeError, match="in flight"):
            controller.start_canary("v003")
        with pytest.raises(RuntimeError, match="in flight"):
            controller.start_shadow("v003")
        assert controller.candidate.version == "v002"
        assert controller.mode == first
        controller.rollback(reason="test")
        assert [(d.action, d.version) for d in controller.decisions] == [
            ("rollback", "v002")]
        assert controller.start_canary("v003") == "v003"

    def test_decisions_keep_the_newest_verdicts(self, registry,
                                                monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_DECISIONS", 3)
        controller = make_controller(registry, min_requests=10_000)
        for index in range(5):
            controller.start_canary("v002")
            controller.rollback(reason=f"r{index}")
        assert isinstance(controller.decisions, list)
        assert [d.reason for d in controller.decisions] == [
            "r2", "r3", "r4"]
        assert ('rtp_rollout_decisions_total{action="rollback"} 5'
                in controller.render_metrics())

    def test_canary_split_roughly_matches_fraction(self, registry, trace):
        controller = make_controller(registry, min_requests=10_000)
        controller.start_canary("v002")
        for request in trace:
            controller.handle(request)
        candidate_share = (controller.candidate.counts["requests"]
                           / len(trace))
        assert 0.25 < candidate_share < 0.75  # fraction is 0.5


class TestShadowRollout:
    def test_shadow_answers_from_primary_and_records_divergence(
            self, registry, trace):
        controller = make_controller(registry)
        controller.start_shadow("v002")
        for request in trace[:20]:
            response = controller.handle(request)
            assert_valid(response, request)
            assert response.model_version == "v001"  # client sees primary
        stats = controller.shadow_stats
        assert stats.requests == 20
        assert 0.0 <= stats.route_mismatch_rate <= 1.0
        assert stats.eta_mae >= 0.0
        # Differently-seeded weights should disagree somewhere.
        assert stats.route_mismatches > 0

    def test_shadow_candidate_faults_never_reach_client(self, registry,
                                                        trace):
        controller = make_controller(registry)
        injector = FaultInjector(FaultPlan(error_rate=1.0), seed=3)
        controller.start_shadow("v002", fault_injector=injector)
        for request in trace[:10]:
            response = controller.handle(request)
            assert_valid(response, request)
            assert not response.degraded  # primary path untouched
        assert controller.shadow_stats.degraded_candidate == 10


class TestDeployCLI:
    def test_register_list_promote_serve(self, registry, tmp_path, dataset,
                                         capsys):
        from repro.data import write_csv
        from repro.training import save_checkpoint
        import dataclasses as dc
        import json

        data_path = tmp_path / "data.csv"
        write_csv(list(dataset), data_path)
        model = tiny_model(seed=41)
        model_path = tmp_path / "model.npz"
        save_checkpoint(model, model_path)
        (tmp_path / "model.json").write_text(
            json.dumps(dc.asdict(model.config)))
        registry_dir = str(registry.root)

        assert main(["deploy", "register", "--registry", registry_dir,
                     "--model", str(model_path), "--version", "v003",
                     "--created-at", "t3",
                     "--metrics", '{"val_mae": 20.0}']) == 0
        assert main(["deploy", "list", "--registry", registry_dir]) == 0
        listing = capsys.readouterr().out
        assert "v003" in listing and "val_mae=20" in listing

        assert main(["deploy", "promote", "--registry", registry_dir,
                     "--version", "v001"]) == 0
        assert main(["deploy", "promote", "--registry", registry_dir,
                     "--version", "v003"]) == 0
        assert main(["deploy", "rollback", "--registry", registry_dir]) == 0
        assert registry.active() == "v001"
        capsys.readouterr()

        metrics_path = tmp_path / "deploy_metrics.prom"
        assert main(["deploy", "serve", "--registry", registry_dir,
                     "--data", str(data_path), "--queries", "30",
                     "--candidate", "v003", "--canary-frac", "0.5",
                     "--min-requests", "8",
                     "--metrics-out", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "served 30 queries" in out
        assert "promote" in out
        assert registry.active() == "v003"
        assert "rtp_model_requests_total" in metrics_path.read_text()

    def test_serve_shadow_mode(self, registry, tmp_path, dataset, capsys):
        from repro.data import write_csv
        data_path = tmp_path / "data.csv"
        write_csv(list(dataset), data_path)
        assert main(["deploy", "serve", "--registry", str(registry.root),
                     "--data", str(data_path), "--queries", "10",
                     "--candidate", "v002", "--shadow"]) == 0
        out = capsys.readouterr().out
        assert "shadow divergence" in out


# ----------------------------------------------------------------------
# Benchmark smoke mode (CI-sized)
# ----------------------------------------------------------------------
def test_rollout_bench_smoke_mode(tmp_path, monkeypatch):
    """--smoke replays the rollout quickly and reports both rates."""
    import pathlib
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    import bench_deployment_rollout as bench

    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    report = bench.run(num_requests=40, smoke=True)
    assert "availability" in report and "degraded" in report
    assert "rolled back : True" in report
    assert "promoted    : True" in report
