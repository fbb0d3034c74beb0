"""Sharded serving tier: placement, admission, isolation, swap, respawn.

The properties that make :mod:`repro.serving_shard` trustworthy:

* placement is a pure function of courier identity — stable across
  router instances and process boundaries (sha256, never ``hash()``);
* admission control sheds at the per-shard depth bound through the
  degraded fallback path, never with an error;
* two shards never share mutable serving state: each runtime owns its
  graph cache and breaker (the fused kernels keep no scratch between
  calls), and process workers rebuild everything post-fork from plain
  spec data;
* a router serves one version at a time, and a hot swap is a
  *drain* — every in-flight request is answered by a coherent
  installed version, versions are FIFO-monotonic per shard, and
  nothing is dropped;
* a killed worker is respawned (from current weights) and outstanding
  work resubmitted — the caller just sees answers;
* an idle worker blocks on its task queue and sends nothing; the
  router finds a dead one with ``process.is_alive()``.
"""

import pickle
import queue
import threading
import time

import numpy as np
import pytest

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.deploy import ModeledLatencyService
from repro.load import VirtualClock
from repro.obs import disable_tracing, enable_tracing
from repro.service import RTPRequest, ServingStage
from repro.service.monitoring import PERCENTILE_WINDOW
from repro.serving_shard import (ShardConfig, ShardRouter, ShardRuntime,
                                 build_model, shard_worker_main)


def tiny_model(seed: int = 3) -> M2G4RTP:
    model = M2G4RTP(M2G4RTPConfig(
        hidden_dim=16, num_heads=2, num_encoder_layers=1,
        continuous_embed_dim=8, discrete_embed_dim=4, position_dim=4,
        courier_embed_dim=4, seed=seed))
    model.eval()
    return model


@pytest.fixture(scope="module")
def requests(dataset):
    instances = list(dataset)
    return [RTPRequest.from_instance(instances[i % len(instances)])
            for i in range(24)]


def make_router(num_shards=2, **kwargs) -> ShardRouter:
    kwargs.setdefault("inline", True)
    return ShardRouter(tiny_model(), version="v001",
                       config=ShardConfig(num_shards=num_shards), **kwargs)


def assert_valid(response, request):
    assert (sorted(int(i) for i in response.route)
            == list(range(request.num_locations)))
    assert len(response.eta_minutes) == request.num_locations
    assert np.all(np.isfinite(response.eta_minutes))


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_consistent_across_router_instances(self, requests):
        a = make_router(num_shards=3)
        b = make_router(num_shards=3)
        for request in requests:
            assert a.place(request) == b.place(request)
            assert 0 <= a.place(request) < 3

    def test_same_courier_same_shard(self, requests):
        router = make_router(num_shards=4)
        by_courier = {}
        for request in requests:
            shard = router.place(request)
            previous = by_courier.setdefault(request.courier.courier_id,
                                             shard)
            assert previous == shard

    def test_known_pinned_values(self, requests):
        """sha256 placement must never drift (a resharding event)."""
        import hashlib

        router = make_router(num_shards=2)
        for request in requests[:4]:
            cid = int(request.courier.courier_id)
            digest = hashlib.sha256(
                cid.to_bytes(8, "little", signed=True)).digest()
            assert router.place(request) == int.from_bytes(
                digest[:8], "big") % 2


# ----------------------------------------------------------------------
# Inline serving + admission control
# ----------------------------------------------------------------------
class TestInlineServing:
    def test_round_trip_and_version_stamp(self, requests):
        router = make_router(num_shards=2)
        for request in requests[:8]:
            response = router.handle(request)
            assert_valid(response, request)
            assert response.model_version == "v001"
            assert not response.degraded

    def test_admission_sheds_via_fallback(self, requests):
        class Backlog:
            pending = 10_000

        router = make_router(num_shards=2, backlog_probe=Backlog())
        response = router.handle(requests[0])
        assert_valid(response, requests[0])   # degraded, never an error
        assert response.degraded and response.degraded_reason == "shed"
        stats = router.shard_stats()
        assert sum(s["shed"] for s in stats) == 1
        assert sum(s["requests"] for s in stats) == 0

    def test_shed_callback_fires(self, requests):
        class Backlog:
            pending = 10_000

        shed_shards = []
        router = make_router(num_shards=2, backlog_probe=Backlog(),
                             on_shed=shed_shards.append)
        router.handle(requests[0])
        assert shed_shards == [router.place(requests[0])]

    def test_latency_window_is_bounded(self):
        """The p99 reads the last PERCENTILE_WINDOW answers; the request
        count stays exact however many answers a shard records."""
        router = make_router(num_shards=2)
        total = PERCENTILE_WINDOW + 500
        for index in range(total):
            router._record_answer(0, float(index))
        assert len(router._tallies[0].latencies_ms) == PERCENTILE_WINDOW
        stats = router.shard_stats()[0]
        assert stats["requests"] == total
        recent = np.arange(total - PERCENTILE_WINDOW, total, dtype=float)
        assert stats["p99_ms"] == float(np.percentile(recent, 99))


# ----------------------------------------------------------------------
# Isolation (satellite: no fork sharing, no per-shard state aliasing)
# ----------------------------------------------------------------------
class TestShardIsolation:
    def test_inline_shards_own_caches_and_batchers(self, requests):
        router = make_router(num_shards=2)
        lanes = [runtime.primary for runtime in router.runtimes]
        assert lanes[0].service is not lanes[1].service
        assert lanes[0].service.cache is not lanes[1].service.cache
        assert lanes[0].breaker is not lanes[1].breaker

    def test_spec_is_plain_data(self):
        """The worker spec must cross fork as pickled values — no live
        model or cache objects smuggled through."""
        router = make_router(num_shards=1)
        spec = router._spec()
        rebuilt = pickle.loads(pickle.dumps(spec))
        assert rebuilt["version"] == "v001"
        model = build_model(rebuilt["model_config"], rebuilt["state"])
        assert isinstance(model, M2G4RTP)

    def test_runtime_rebuild_matches_original_outputs(self, requests):
        router = make_router(num_shards=1)
        spec = pickle.loads(pickle.dumps(router._spec()))
        runtime = ShardRuntime(0, spec["model_config"], spec["state"],
                               spec["version"])
        [(kind, _shard, _req, response, _spans)] = runtime.process(
            ("request", 0, requests[0], None))
        assert kind == "response"
        direct = router.handle(requests[0])
        np.testing.assert_allclose(response.eta_minutes,
                                   direct.eta_minutes, rtol=1e-9)
        assert list(response.route) == list(direct.route)


# ----------------------------------------------------------------------
# Hot swap (inline: deterministic drain semantics)
# ----------------------------------------------------------------------
class TestInlineSwap:
    def test_swap_to_changes_stamp_everywhere(self, requests):
        router = make_router(num_shards=2)
        before = router.handle(requests[0])
        assert before.model_version == "v001"
        router.swap_to("v002", tiny_model(seed=9))
        for request in requests[:6]:
            assert router.handle(request).model_version == "v002"
        assert all(s["swaps"] == 1 for s in router.shard_stats())

    def test_flush_counters_survive_swap(self, requests):
        """Flush counts belong to the runtime, not to one installed
        version: a swap never resets them."""
        router = make_router(num_shards=1)
        seen = []

        def record():
            stats = router.worker_stats()[0]
            seen.append((stats["batches_flushed"],
                         stats["requests_flushed"]))

        for request in requests[:3]:
            router.handle(request)
        record()
        router.swap_to("v002", tiny_model(seed=9))
        for request in requests[3:6]:
            router.handle(request)
        record()
        assert seen == [(3, 3), (6, 6)]

    def test_inline_kill_respawns_from_current_version(self, requests):
        router = make_router(num_shards=2)
        router.swap_to("v002", tiny_model(seed=9))
        victim = router.place(requests[0])
        router.kill_shard(victim)
        respawned = []
        router.on_respawn = respawned.append
        response = router.handle(requests[0])
        assert_valid(response, requests[0])
        assert response.model_version == "v002", (
            "respawn must rebuild from the *current* weights, not v001")
        assert respawned == [victim]
        assert router.shard_stats()[victim]["respawns"] == 1


# ----------------------------------------------------------------------
# Span stitching
# ----------------------------------------------------------------------
class TestSpanStitching:
    def test_worker_spans_nest_under_route_span(self, requests):
        collector = enable_tracing()
        try:
            router = make_router(num_shards=2)
            router.handle(requests[0])
        finally:
            disable_tracing()
        roots = collector.roots
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "shard.route"
        child_names = [c.name for c in root.children]
        assert "shard.serve" in child_names
        serve = root.children[child_names.index("shard.serve")]
        assert serve.trace_id == root.trace_id, (
            "worker spans must be stitched into the router's trace")

    def test_process_worker_spans_ship_and_stitch(self, requests):
        """Spans opened in a shard worker process travel back with the
        answer and land under the router's span, in its trace."""
        collector = enable_tracing()
        try:
            router = ShardRouter(tiny_model(), version="v001",
                                 config=ShardConfig(num_shards=2),
                                 inline=False)
            try:
                router.handle(requests[0])
            finally:
                router.shutdown()
        finally:
            disable_tracing()
        [root] = [r for r in collector.roots if r.name == "shard.route"]
        serves = [c for c in root.children if c.name == "shard.serve"]
        assert serves, "the worker's shard.serve span must ship back"
        assert serves[0].trace_id == root.trace_id
        assert serves[0].duration_ms > 0


# ----------------------------------------------------------------------
# Process mode (real workers; small but end-to-end)
# ----------------------------------------------------------------------
class TestProcessMode:
    def test_round_trip_kill_respawn_and_swap_drain(self, requests):
        router = ShardRouter(tiny_model(), version="v001",
                             config=ShardConfig(num_shards=2), inline=False)
        try:
            parent_pid = __import__("os").getpid()
            pids = {s["pid"] for s in router.worker_stats()}
            assert len(pids) == 2 and parent_pid not in pids, (
                "every shard must serve from its own process")

            for request in requests[:4]:
                response = router.handle(request)
                assert_valid(response, request)
                assert response.model_version == "v001"

            # Pipelined stream with a swap in the middle: versions must
            # be coherent and FIFO-monotonic per shard, nothing dropped.
            tickets = []
            for i, request in enumerate(requests):
                if i == len(requests) // 2:
                    router.swap_to("v002", tiny_model(seed=9))
                tickets.append((router.place(request),
                                router.submit(request)))
            responses = router.wait_all([t for _, t in tickets])
            seen = {}
            for (shard, _), response in zip(tickets, responses):
                assert response.model_version in ("v001", "v002")
                if seen.get(shard) == "v002":
                    assert response.model_version == "v002", (
                        "a shard must never step back to the old "
                        "version after the swap drained")
                seen[shard] = response.model_version
            assert set(seen.values()) == {"v002"}

            victim = router.place(requests[0])
            router.kill_shard(victim)
            response = router.handle(requests[0])
            assert_valid(response, requests[0])
            assert response.model_version == "v002"
            assert router.shard_stats()[victim]["respawns"] == 1
            live = {s["shard"]: s["pid"] for s in router.worker_stats()}
            assert sorted(live) == [0, 1]
            assert len(set(live.values())) == 2
        finally:
            router.shutdown()

    def test_sleep_latency_spec_reaches_workers(self, requests):
        router = ShardRouter(
            tiny_model(), version="v001",
            config=ShardConfig(num_shards=1, sleep_latency_ms=5.0),
            inline=False)
        try:
            import time

            start = time.perf_counter()
            router.handle(requests[0])
            assert (time.perf_counter() - start) >= 0.004
        finally:
            router.shutdown()


# ----------------------------------------------------------------------
# Worker loop (driven on a thread, so queue traffic is observable)
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_idle_worker_is_silent_and_stop_sends_nothing(self):
        """An idle worker blocks on its task queue: after ``ready`` it
        sends nothing until asked, and ``stop`` ends it without a
        reply."""
        tasks, results = queue.Queue(), queue.Queue()
        worker = threading.Thread(
            target=shard_worker_main,
            args=(0, make_router(num_shards=1)._spec(), tasks, results),
            daemon=True)
        worker.start()
        assert results.get(timeout=30)[0] == "ready"
        time.sleep(0.7)
        assert results.empty(), f"idle worker sent {results.get()!r}"
        tasks.put(("stop",))
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert results.empty(), f"stopped worker sent {results.get()!r}"


# ----------------------------------------------------------------------
# ModeledLatencyService: the one latency model, on either clock
# ----------------------------------------------------------------------
class _Inner(ServingStage):
    def handle_batch(self, batch):
        return [("many", r) for r in batch]

    extra = "passthrough"


class TestModeledLatencyService:
    def test_one_charge_per_batch_and_delegation(self):
        sleeps = []
        service = ModeledLatencyService(_Inner(), sleeps.append,
                                        base_ms=10.0, sigma=0.25, seed=1)
        assert service.handle("a") == ("many", "a")
        assert service.handle_batch(["b", "c"]) == [("many", "b"),
                                                    ("many", "c")]
        assert len(sleeps) == 2, "one modeled cost per call, not per item"
        assert all(s > 0 for s in sleeps)
        assert service.extra == "passthrough"

    def test_seeded_costs_reproducible(self):
        def costs(seed):
            sleeps = []
            service = ModeledLatencyService(_Inner(), sleeps.append,
                                            base_ms=10.0, sigma=0.25,
                                            seed=seed)
            for _ in range(5):
                service.handle(None)
            return sleeps

        assert costs(3) == costs(3)
        assert costs(3) != costs(4)

    @pytest.mark.parametrize("sigma", [0.2, 0.25])
    def test_virtual_clock_and_wall_sleeper_charge_identical_seconds(
            self, sigma):
        """The load scenarios charge the virtual clock, shard workers
        sleep: same seed, sigma and base cost must charge the same
        seconds, bitwise, through handle and handle_batch alike."""
        clock = VirtualClock()
        sleeps = []
        virtual = ModeledLatencyService(_Inner(), clock.advance,
                                        base_ms=15.0, sigma=sigma, seed=7)
        wall = ModeledLatencyService(_Inner(), sleeps.append,
                                     base_ms=15.0, sigma=sigma, seed=7)
        expected_now = 0.0
        for call in range(12):
            if call % 3 == 2:
                virtual.handle_batch(["x", "y"])
                wall.handle_batch(["x", "y"])
            else:
                virtual.handle("x")
                wall.handle("x")
            assert len(sleeps) == call + 1
            expected_now += sleeps[-1]
            assert clock.now() == expected_now
        assert clock.sleeps == [], "advance charges time, never a sleep"


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestShardConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(num_shards=0),
        dict(max_queue_depth=0),
        dict(max_respawns=-1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)
