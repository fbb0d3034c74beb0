"""Tests for service monitoring, courier splits and batched training."""

import collections
import sys
import threading

import numpy as np
import pytest

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.data import cold_start_protocol, split_by_courier
from repro.service import (
    DEFAULT_BUCKETS,
    RTPRequest,
    RTPResponse,
    RTPService,
    ServiceMonitor,
    monitoring,
)
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def monitor(dataset):
    model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                  num_encoder_layers=1))
    return ServiceMonitor(RTPService(model))


class TestServiceMonitor:
    def test_counts_queries(self, monitor, dataset):
        before = monitor.stats().queries
        monitor.handle(RTPRequest.from_instance(dataset[0]))
        monitor.handle(RTPRequest.from_instance(dataset[1]))
        assert monitor.stats().queries == before + 2

    def test_latency_percentiles_ordered(self, monitor, dataset):
        for instance in list(dataset)[:5]:
            monitor.handle(RTPRequest.from_instance(instance))
        stats = monitor.stats()
        assert 0 < stats.p50_latency_ms <= stats.p95_latency_ms
        assert stats.p95_latency_ms <= stats.max_latency_ms

    def test_render_metrics_format(self, monitor, dataset):
        monitor.handle(RTPRequest.from_instance(dataset[0]))
        text = monitor.render_metrics()
        assert "rtp_queries_total" in text
        assert 'rtp_latency_ms_bucket{le="+Inf"}' in text
        # Cumulative histogram: the +Inf bucket equals the count.
        inf_line = [l for l in text.splitlines() if '+Inf' in l][0]
        count_line = [l for l in text.splitlines()
                      if l.startswith("rtp_latency_ms_count")][0]
        assert inf_line.split()[-1] == count_line.split()[-1]

    def test_unsorted_buckets_rejected(self, monitor):
        with pytest.raises(ValueError):
            ServiceMonitor(monitor.service, buckets=(5.0, 1.0))

    def test_default_buckets_end_with_inf(self):
        assert DEFAULT_BUCKETS[-1] == float("inf")

    def test_memory_bounded_and_totals_exact(self, monkeypatch):
        """A long-running monitor keeps a fixed window of samples while
        counts, means and max still cover every request."""

        class FakeTime:
            now = 0.0

            def perf_counter(self):
                return self.now

        fake = FakeTime()

        class StubService:
            """Request ``i`` takes ``1 + i % 7`` ms and routes ``i % 5``
            locations; values are dyadic so sums are exact."""

            def __init__(self):
                self.calls = 0

            def handle_batch(self, requests):
                latency = 1 + self.calls % 7
                fake.now += latency / 1024.0
                n = self.calls % 5
                self.calls += 1
                return [RTPResponse(route=np.arange(n),
                                    eta_minutes=np.zeros(n),
                                    aoi_route=None, aoi_eta_minutes=None,
                                    latency_ms=float(latency),
                                    build_ms=0.5, infer_ms=latency - 0.5)]

        monkeypatch.setattr(monitoring, "time", fake)
        monitor = ServiceMonitor(StubService())
        window = monitoring.PERCENTILE_WINDOW
        total = window + 1000
        for _ in range(total):
            monitor.handle(None)
        stored = sum(len(value) for value in vars(monitor).values()
                     if isinstance(value, (list, collections.deque)))
        assert stored <= window
        latencies = np.array([(1 + i % 7) * 1000.0 / 1024.0
                              for i in range(total)])
        stats = monitor.stats()
        assert stats.queries == total
        assert stats.mean_latency_ms == pytest.approx(latencies.mean(),
                                                      rel=1e-12)
        assert stats.max_latency_ms == latencies.max()
        assert stats.mean_route_length == pytest.approx(
            np.mean([i % 5 for i in range(total)]), rel=1e-12)
        assert stats.mean_build_ms == 0.5
        assert stats.p50_latency_ms == np.percentile(latencies[-window:], 50)
        assert stats.p95_latency_ms == np.percentile(latencies[-window:], 95)

    def test_concurrent_totals_are_exact(self):
        """Threads sharing one monitor lose no update to the totals."""

        class StubService:
            def handle_batch(self, requests):
                return [RTPResponse(route=np.arange(3),
                                    eta_minutes=np.zeros(3),
                                    aoi_route=None, aoi_eta_minutes=None,
                                    latency_ms=1.0, build_ms=0.25,
                                    infer_ms=0.75) for _ in requests]

        monitor = ServiceMonitor(StubService())
        threads_n, per_thread = 8, 400
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda: [monitor.handle(None)
                                for _ in range(per_thread)])
                for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        stats = monitor.stats()
        assert stats.queries == threads_n * per_thread
        assert stats.mean_route_length == 3.0
        assert stats.mean_build_ms == 0.25 and stats.mean_infer_ms == 0.75


class TestCourierSplits:
    def test_split_disjoint_couriers(self, dataset):
        seen, unseen = split_by_courier(dataset, holdout_fraction=0.25,
                                        seed=1)
        seen_ids = {i.courier.courier_id for i in seen}
        unseen_ids = {i.courier.courier_id for i in unseen}
        assert seen_ids and unseen_ids
        assert not seen_ids & unseen_ids
        assert len(seen) + len(unseen) == len(dataset)

    def test_invalid_fraction(self, dataset):
        with pytest.raises(ValueError):
            split_by_courier(dataset, holdout_fraction=0.0)

    def test_cold_start_protocol(self, dataset):
        train, seen_test, unseen_test = cold_start_protocol(dataset, seed=2)
        train_couriers = {i.courier.courier_id for i in train}
        unseen_couriers = {i.courier.courier_id for i in unseen_test}
        assert not train_couriers & unseen_couriers
        # Seen test shares couriers with training but (mostly) not days.
        seen_couriers = {i.courier.courier_id for i in seen_test}
        assert seen_couriers <= train_couriers
        assert len(train) > 0 and len(seen_test) > 0 and len(unseen_test) > 0

    def test_deterministic_given_seed(self, dataset):
        a1, b1 = split_by_courier(dataset, seed=3)
        a2, b2 = split_by_courier(dataset, seed=3)
        assert len(a1) == len(a2) and len(b1) == len(b2)


class TestBatchedTraining:
    def test_batch_size_trains(self, splits):
        train, _, _ = splits
        model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                      num_encoder_layers=1))
        config = TrainerConfig(epochs=3, batch_size=4)
        history = Trainer(model, config).fit(train[:12])
        assert history.num_epochs == 3
        assert history.train_loss[-1] < history.train_loss[0]

    def test_batch_equals_online_when_size_one(self, splits):
        """batch_size=1 must match the historical per-instance path."""
        train, _, _ = splits

        def run(batch_size):
            model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                          num_encoder_layers=1, seed=8))
            config = TrainerConfig(epochs=2, batch_size=batch_size,
                                   shuffle_seed=4)
            history = Trainer(model, config).fit(train[:8])
            return history.train_loss

        assert np.allclose(run(1), run(1))
