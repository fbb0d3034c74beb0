"""Service-layer batching: stage contract, graph cache, latency split.

Covers the serving additions around the batched engine:

* ``RTPService.handle`` and ``handle_batch`` (both on the kernel-backed
  batched engine) answer like the per-instance Tensor spec,
  ``M2G4RTP.predict``: routes identical, ETAs within 1e-6, across
  every decode variant;
* a malformed decoded route raises on the served path exactly like
  the spec, so the resilience layer degrades instead of serving it;
* every serving stage answers an empty batch with ``[]`` and moves no
  counter, fault draw or clock;
* ``GraphCache`` LRU semantics with hit/miss accounting, and the cache
  never changes predictions;
* ``RTPResponse.latency_ms`` always equals ``build_ms + infer_ms``;
* ``ServiceMonitor`` exposes the build/infer split and cache counters.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import M2G4RTP, M2G4RTPConfig, make_variant
from repro.deploy import (FaultInjector, FaultPlan, ModeledLatencyService,
                          ResilientRTPService)
from repro.load import VirtualClock
from repro.obs import MetricsRegistry
from repro.service import (
    GraphCache,
    RTPRequest,
    RTPService,
    ServiceMonitor,
    request_fingerprint,
)


@pytest.fixture(scope="module")
def model():
    return M2G4RTP(M2G4RTPConfig(
        hidden_dim=16, num_heads=2, num_encoder_layers=1,
        continuous_embed_dim=8, discrete_embed_dim=4, position_dim=4,
        courier_embed_dim=4, seed=17))


@pytest.fixture(scope="module")
def requests(dataset):
    return [RTPRequest.from_instance(instance)
            for instance in list(dataset)[:10]]


@pytest.fixture
def service(model):
    return RTPService(model)


def assert_matches_spec(model, builder, request, response):
    """``response`` equals the per-instance Tensor ``model.predict``."""
    expected = model.predict(builder.build(request))
    np.testing.assert_array_equal(response.route, expected.route)
    np.testing.assert_allclose(response.eta_minutes, expected.arrival_times,
                               rtol=0.0, atol=1e-6)
    if expected.aoi_route is None:
        assert response.aoi_route is None
    else:
        np.testing.assert_array_equal(response.aoi_route, expected.aoi_route)
        np.testing.assert_allclose(response.aoi_eta_minutes,
                                   expected.aoi_arrival_times,
                                   rtol=0.0, atol=1e-6)


# ----------------------------------------------------------------------
# handle_batch parity and latency accounting
# ----------------------------------------------------------------------
class TestHandleBatch:
    def test_batch_matches_sequential(self, model, service, requests):
        """Batched and single answers both equal sequential spec calls."""
        batched = service.handle_batch(requests[:6])
        for request, bat in zip(requests[:6], batched):
            single = service.handle(request)
            assert_matches_spec(model, service.builder, request, bat)
            assert_matches_spec(model, service.builder, request, single)
            assert bat.batch_size == 6 and single.batch_size == 1

    def test_empty_batch(self, service):
        assert service.handle_batch([]) == []

    def test_latency_is_build_plus_infer(self, service, requests):
        """Regression: the stage breakdown must sum to the total."""
        responses = [service.handle(requests[0])]
        responses += service.handle_batch(requests[:5])
        for response in responses:
            assert response.build_ms >= 0.0
            assert response.infer_ms > 0.0
            assert response.latency_ms == pytest.approx(
                response.build_ms + response.infer_ms, abs=1e-9)

    def test_queries_served_counts_batch_members(self, service, requests):
        service.handle(requests[0])
        service.handle_batch(requests[:4])
        assert service.queries_served == 5


#: Decode variants ``handle`` must serve like the spec: the default
#: model, the AOI-less location decode and the BiLSTM encoder (a no-grad
#: ``LSTMCell.unroll``).
SPEC_CONFIGS = {
    "default": M2G4RTPConfig(),
    "w/o aoi": make_variant("w/o aoi"),
    "w/o graph": make_variant("w/o graph"),
}


@pytest.fixture(scope="module")
def sized_requests(world):
    """One request per size from 3 to 20 locations (the paper's scope)."""
    return [RTPRequest.from_instance(world.simulate_courier_day(
                courier_index=n % 4, day=n % 6, num_locations=n,
                num_aois=max(1, n // 3), seed=2000 + n))
            for n in range(3, 21)]


class TestHandleMatchesSpec:
    @pytest.mark.parametrize("name", list(SPEC_CONFIGS))
    def test_size_sweep(self, name, sized_requests):
        model = M2G4RTP(SPEC_CONFIGS[name])
        service = RTPService(model)
        assert ([r.num_locations for r in sized_requests]
                == list(range(3, 21)))
        for request in sized_requests:
            assert_matches_spec(model, service.builder, request,
                                service.handle(request))


class TestMalformedRoute:
    """NaN weights make every decode step pick node 0; the spec raises
    on that non-permutation and so must the served path."""

    @pytest.fixture(scope="class")
    def nan_model(self, model):
        broken = M2G4RTP(model.config)
        for parameter in broken.parameters():
            parameter.data[...] = np.nan
        return broken

    def test_handle_and_handle_batch_raise_like_the_spec(self, nan_model,
                                                          requests):
        service = RTPService(nan_model)
        with pytest.raises(ValueError, match="permutation"):
            nan_model.predict(service.builder.build(requests[0]))
        with pytest.raises(ValueError, match="permutation"):
            service.handle(requests[0])
        with pytest.raises(ValueError, match="permutation"):
            service.handle_batch(requests[:3])

    def test_resilient_service_degrades(self, nan_model, requests):
        resilient = ResilientRTPService(RTPService(nan_model))
        answers = [resilient.handle(requests[0])]
        answers += resilient.handle_batch(requests[1:4])
        for request, answer in zip(requests[:4], answers):
            assert answer.degraded and answer.degraded_reason == "error"
            np.testing.assert_array_equal(
                np.sort(answer.route), np.arange(request.num_locations))
            assert np.all(np.isfinite(answer.eta_minutes))


# ----------------------------------------------------------------------
# Stage contract: an empty batch is a no-op in every stage
# ----------------------------------------------------------------------
def _stage_and_probe(name, model):
    """A stage over a real service, and a probe of every counter and
    clock it could move (a fault draw advances ``injector.calls``, a
    modeled charge moves the virtual clock)."""
    service = RTPService(model, cache_size=4)
    if name == "RTPService":
        return service, lambda: (service.queries_served,
                                 service.cache_misses)
    if name == "ServiceMonitor":
        monitor = ServiceMonitor(service)
        return monitor, monitor.render_metrics
    if name == "ResilientRTPService":
        registry = MetricsRegistry()
        resilient = ResilientRTPService(service, registry=registry)
        return resilient, lambda: (resilient.snapshot(), registry.render())
    if name == "FaultyService":
        # fail_first=1: a consumed draw would also raise.
        injector = FaultInjector(FaultPlan(fail_first=1), seed=0)
        return injector.wrap(service), lambda: injector.calls
    clock = VirtualClock()
    shim = ModeledLatencyService(service, clock.advance, base_ms=10.0)
    return shim, clock.now


@pytest.mark.parametrize("name", [
    "RTPService", "ServiceMonitor", "ResilientRTPService", "FaultyService",
    "ModeledLatencyService"])
def test_empty_batch_is_a_no_op(name, model):
    stage, probe = _stage_and_probe(name, model)
    before = probe()
    assert stage.handle_batch([]) == []
    assert probe() == before


# ----------------------------------------------------------------------
# Graph cache
# ----------------------------------------------------------------------
class TestGraphCache:
    def test_hit_and_miss_accounting(self, model, requests):
        service = RTPService(model, cache_size=8)
        service.handle(requests[0])
        assert (service.cache_hits, service.cache_misses) == (0, 1)
        repeat = service.handle(requests[0])
        assert (service.cache_hits, service.cache_misses) == (1, 1)
        assert repeat.cache_hit
        service.handle_batch([requests[0], requests[1]])
        assert (service.cache_hits, service.cache_misses) == (2, 2)

    def test_lru_eviction_order(self):
        cache = GraphCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh "a": now b is LRU
        cache.put("c", 3)                   # evicts "b"
        assert cache.keys() == ["a", "c"]
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_cache_disabled_identical_outputs(self, model, requests):
        plain = RTPService(model)
        cached = RTPService(model, cache_size=4)
        for request in (requests[0], requests[1], requests[0]):
            assert_matches_spec(model, plain.builder, request,
                                plain.handle(request))
            assert_matches_spec(model, cached.builder, request,
                                cached.handle(request))
        assert plain.cache_hits == 0 and cached.cache_hits == 1

    def test_fingerprint_sensitivity(self, requests):
        base = requests[0]
        assert request_fingerprint(base) == request_fingerprint(base)
        moved = dataclasses.replace(
            base, request_time=base.request_time + 1.0)
        assert request_fingerprint(moved) != request_fingerprint(base)
        reweathered = dataclasses.replace(base, weather=base.weather + 1)
        assert request_fingerprint(reweathered) != request_fingerprint(base)

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            GraphCache(max_size=0)


# ----------------------------------------------------------------------
# Monitoring split counters
# ----------------------------------------------------------------------
class TestMonitoringSplit:
    def test_stats_expose_split_and_cache(self, model, requests):
        monitor = ServiceMonitor(RTPService(model, cache_size=4))
        monitor.handle(requests[0])
        monitor.handle(requests[0])
        monitor.handle_batch(requests[:3])
        stats = monitor.stats()
        assert stats.queries == 5
        assert stats.mean_build_ms >= 0.0
        assert stats.mean_infer_ms > 0.0
        assert stats.cache_hits == 2        # repeat handle + batch member
        assert stats.cache_misses == 3
        metrics = monitor.render_metrics()
        assert "rtp_build_ms_sum" in metrics
        assert "rtp_infer_ms_sum" in metrics
        assert "rtp_cache_hits_total 2" in metrics
        assert "rtp_cache_misses_total 3" in metrics


# ----------------------------------------------------------------------
# Benchmark smoke mode (CI-sized)
# ----------------------------------------------------------------------
def test_bench_smoke_mode(tmp_path, monkeypatch):
    """The benchmark's --smoke mode runs quickly and reports parity OK."""
    import pathlib
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    import bench_batched_inference as bench

    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    report = bench.run(num_requests=8, batch_size=4, smoke=True)
    assert "mode=smoke" in report
    assert "parity" in report and "FAILED" not in report
    assert (tmp_path / "batched_inference_smoke.txt").exists()


# ----------------------------------------------------------------------
# GraphCache counters in the shared metrics exposition
# ----------------------------------------------------------------------
class TestGraphCacheMetricsExport:
    def test_eviction_counting(self):
        cache = GraphCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.evictions == 1
        assert cache.keys() == ["b", "c"]
        cache.clear()
        assert cache.evictions == 0

    def test_counters_rendered_through_monitor_registry(self, model,
                                                        requests):
        monitor = ServiceMonitor(RTPService(model, cache_size=2))
        monitor.handle(requests[0])      # miss
        monitor.handle(requests[0])      # hit
        monitor.handle(requests[1])      # miss
        monitor.handle(requests[2])      # miss -> evicts requests[0]
        text = monitor.render_metrics()
        assert "rtp_graph_cache_hits_total 1" in text
        assert "rtp_graph_cache_misses_total 3" in text
        assert "rtp_graph_cache_evictions_total 1" in text
        assert "rtp_graph_cache_size 2" in text

    def test_bind_backfills_preexisting_counts(self, model, requests):
        service = RTPService(model, cache_size=4)
        service.handle(requests[0])
        service.handle(requests[0])
        registry = MetricsRegistry()
        service.cache.bind_registry(registry)
        text = registry.render()
        assert "rtp_graph_cache_hits_total 1" in text
        assert "rtp_graph_cache_misses_total 1" in text

    def test_unbound_cache_keeps_local_counts_only(self, model, requests):
        service = RTPService(model, cache_size=4)
        service.handle(requests[0])
        service.handle(requests[0])
        assert service.cache.hits == 1
        assert service.cache.misses == 1
        assert service.cache.evictions == 0
