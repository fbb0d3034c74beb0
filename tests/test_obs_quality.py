"""Prediction-quality telemetry: detectors, monitor, exemplars,
flight recorder, label-cardinality guard and the quality artifact.

Drift detectors are deterministic by construction (no internal RNG, an
injectable clock), so the tests assert exact firing observations for
seeded streams, and that stationary streams never alarm — the false
positives are the expensive failure mode for an auto-rollback consumer.
"""

import json

import numpy as np
import pytest

from repro.obs import (
    CompletedRoute,
    FlightRecorder,
    MetricsRegistry,
    PageHinkleyDetector,
    QualityMonitor,
    ReferenceWindowDetector,
    build_quality_artifact,
    disable_tracing,
    enable_tracing,
    validate_quality_artifact,
    write_quality_artifact,
)
from repro.obs import quality as quality_module
from repro.obs.metrics import OVERFLOW_LABEL_VALUE
from repro.obs.quality import QualityArtifactError


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


def stationary_stream(seed=0, n=300, loc=10.0, scale=1.0):
    return np.random.default_rng(seed).normal(loc, scale, n)


def shifted_stream(seed=0, n=200, shift_at=100, shift=50.0):
    values = stationary_stream(seed, n)
    values[shift_at:] += shift
    return values


# ----------------------------------------------------------------------
class TestPageHinkley:
    def test_stationary_stream_never_fires(self):
        detector = PageHinkleyDetector()
        for seed in range(4):
            detector.reset()
            fired = [detector.update(v)
                     for v in stationary_stream(seed=seed)]
            assert all(f is None for f in fired)

    def test_mean_shift_fires_and_is_deterministic(self):
        firing_indices = []
        for _ in range(2):
            detector = PageHinkleyDetector()
            fired_at = None
            for index, value in enumerate(shifted_stream()):
                if detector.update(value) is not None:
                    fired_at = index
                    break
            firing_indices.append(fired_at)
        assert firing_indices[0] is not None
        # Caught within a handful of observations of the shift point.
        assert 100 <= firing_indices[0] <= 110
        # Same stream, same firing observation — bit-reproducible.
        assert firing_indices[0] == firing_indices[1]

    def test_resets_after_firing_so_next_shift_realarm(self):
        # Reset-after-fire re-baselines on the post-shift level: one
        # shift yields one alarm, and a *further* shift alarms again.
        detector = PageHinkleyDetector(min_samples=5, threshold=10.0)
        fires = sum(
            detector.update(v) is not None
            for v in [0.0] * 10 + [100.0] * 30 + [500.0] * 30)
        assert fires == 2

    def test_min_samples_suppresses_early_fire(self):
        detector = PageHinkleyDetector(min_samples=50, threshold=1.0)
        assert all(detector.update(v) is None
                   for v in [0.0] * 10 + [100.0] * 10)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            PageHinkleyDetector(threshold=0.0)


class TestReferenceWindow:
    def test_stationary_stream_never_fires(self):
        for seed in range(4):
            detector = ReferenceWindowDetector()
            fired = [detector.update(v)
                     for v in stationary_stream(seed=seed)]
            assert all(f is None for f in fired)

    def test_reference_freezes_after_reference_size(self):
        detector = ReferenceWindowDetector(reference_size=8, window_size=4)
        for value in stationary_stream(n=7):
            detector.update(value)
        assert not detector.reference_ready
        detector.update(10.0)
        assert detector.reference_ready

    def test_distribution_shift_fires_ks(self):
        detector = ReferenceWindowDetector(reference_size=16, window_size=8)
        fired = None
        for value in shifted_stream(n=80, shift_at=40):
            fired = detector.update(value)
            if fired is not None:
                break
        assert fired is not None
        assert fired["detector"] in ("ks", "psi")
        assert fired["statistic"] > fired["threshold"]

    def test_window_cleared_after_firing(self):
        detector = ReferenceWindowDetector(reference_size=8, window_size=4)
        fires = 0
        for value in [10.0] * 8 + [500.0] * 12:
            if detector.update(value) is not None:
                fires += 1
        # One alarm per window *fill*, not one per observation: 12
        # shifted values through a 4-wide window is at most 3 alarms.
        assert 1 <= fires <= 3

    def test_tiny_windows_rejected(self):
        with pytest.raises(ValueError):
            ReferenceWindowDetector(reference_size=2)
        with pytest.raises(ValueError):
            ReferenceWindowDetector(window_size=3)


# ----------------------------------------------------------------------
def completed(eta_error=0.0, labels=None, trace_id=None):
    """A 4-stop route predicted perfectly except a uniform ETA error."""
    actual = [10.0, 20.0, 30.0, 40.0]
    return CompletedRoute(
        predicted_route=[0, 1, 2, 3],
        actual_route=[0, 1, 2, 3],
        predicted_eta_minutes=[a + eta_error for a in actual],
        actual_arrival_minutes=actual,
        labels=labels or {}, trace_id=trace_id)


class TestQualityMonitor:
    def make_monitor(self, registry, **overrides):
        kwargs = dict(
            window=8,
            page_hinkley=PageHinkleyDetector(
                delta=1.0, threshold=30.0, min_samples=4),
            reference_window=ReferenceWindowDetector(
                reference_size=8, window_size=4,
                ks_threshold=0.8, psi_threshold=4.0),
        )
        kwargs.update(overrides)
        return QualityMonitor(registry, **kwargs)

    def test_route_scores(self):
        krc, lsd, eta_mae, eta_mape = QualityMonitor.route_scores(
            completed(eta_error=5.0))
        assert krc == pytest.approx(1.0)
        assert lsd == pytest.approx(0.0)
        assert eta_mae == pytest.approx(5.0)
        assert eta_mape == pytest.approx(
            np.mean([5 / 10, 5 / 20, 5 / 30, 5 / 40]))

    def test_gauges_published_per_segment(self):
        registry = MetricsRegistry()
        monitor = self.make_monitor(registry)
        monitor.record(completed(
            eta_error=3.0,
            labels={"weather": "2", "courier": "7",
                    "model_version": "v001"}))
        gauge = registry.get("rtp_quality_eta_mae")
        assert gauge.labels(segment="all", key="all").value == \
            pytest.approx(3.0)
        assert gauge.labels(segment="weather", key="2").value == \
            pytest.approx(3.0)
        assert gauge.labels(segment="courier", key="7").value == \
            pytest.approx(3.0)
        counter = registry.get("rtp_quality_routes_total")
        assert counter.labels(segment="model_version",
                              key="v001").value == 1

    def test_windowed_means_slide(self):
        registry = MetricsRegistry()
        monitor = self.make_monitor(registry, window=2)
        monitor.record(completed(eta_error=10.0))
        monitor.record(completed(eta_error=2.0))
        monitor.record(completed(eta_error=4.0))
        # Window of 2: the 10-minute route has slid out.
        gauge = registry.get("rtp_quality_eta_mae")
        assert gauge.labels(segment="all", key="all").value == \
            pytest.approx(3.0)

    def test_shift_raises_alarm_and_notifies_subscribers(self):
        registry = MetricsRegistry()
        monitor = self.make_monitor(registry)
        seen = []
        monitor.on_alarm(seen.append)
        for _ in range(12):
            monitor.record(completed(eta_error=2.0))
        raised = []
        for _ in range(8):
            raised += monitor.record(completed(eta_error=120.0))
        assert raised and monitor.alarms
        assert seen == monitor.alarms
        alarm = monitor.alarms[0]
        assert alarm.metric == "eta_mae"
        assert alarm.statistic > alarm.threshold
        assert registry.get(
            "rtp_quality_drift_alarms_total").labels(
                metric=alarm.metric, detector=alarm.detector,
                segment="all", key="all").value >= 1

    def test_alarm_list_keeps_the_newest(self, monkeypatch):
        monkeypatch.setattr(quality_module, "MAX_ALARMS", 3)
        registry = MetricsRegistry()
        monitor = self.make_monitor(registry)
        seen = []
        monitor.on_alarm(seen.append)
        for _ in range(4):   # a flapping stream: every shift re-alarms
            for _ in range(12):
                monitor.record(completed(eta_error=2.0))
            for _ in range(8):
                monitor.record(completed(eta_error=120.0))
        assert len(seen) > 3
        assert isinstance(monitor.alarms, list)
        assert monitor.alarms == seen[-3:]

    def test_clock_stamps_alarms(self):
        registry = MetricsRegistry()
        ticks = iter(range(100, 1000))
        monitor = self.make_monitor(
            registry, clock=lambda: float(next(ticks)))
        for _ in range(12):
            monitor.record(completed(eta_error=2.0))
        for _ in range(8):
            monitor.record(completed(eta_error=120.0))
        assert monitor.alarms[0].at >= 100.0

    def test_segment_summary_shape(self):
        registry = MetricsRegistry()
        monitor = self.make_monitor(registry)
        monitor.record(completed(eta_error=1.0, labels={"weather": "0"}))
        summary = monitor.segment_summary()
        assert set(summary) == {"all", "weather"}
        entry = summary["weather"]["0"]
        assert entry["routes"] == 1
        assert set(entry) == {"route_krc", "route_lsd", "eta_mae",
                              "eta_mape", "routes"}


# ----------------------------------------------------------------------
class TestCardinalityGuard:
    def test_overflow_clamps_and_warns_once(self):
        registry = MetricsRegistry()
        counter = registry.counter("per_courier_total", "unbounded labels",
                                   labels=("courier",), max_label_sets=3)
        counter.labels(courier="a").inc()
        counter.labels(courier="b").inc()
        counter.labels(courier="c").inc()
        with pytest.warns(RuntimeWarning, match="cardinality"):
            counter.labels(courier="d").inc()
        # Second overflow is silent (warned once per instrument).
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            counter.labels(courier="e").inc()
        overflow = counter.labels(courier=OVERFLOW_LABEL_VALUE)
        assert overflow.value == 2
        # Existing label sets keep updating normally past the cap.
        counter.labels(courier="a").inc()
        assert counter.labels(courier="a").value == 2
        rendered = registry.render()
        assert 'courier="__overflow__"' in rendered
        assert 'courier="d"' not in rendered

    def test_quality_monitor_survives_unbounded_couriers(self):
        registry = MetricsRegistry()
        monitor = QualityMonitor(
            registry, window=4, segments=("courier",),
            page_hinkley=PageHinkleyDetector(min_samples=10 ** 9),
            reference_window=ReferenceWindowDetector())
        with pytest.warns(RuntimeWarning):
            for courier in range(400):
                monitor.record(completed(
                    eta_error=1.0, labels={"courier": str(courier)}))
        counter = registry.get("rtp_quality_routes_total")
        assert counter.labels(segment="courier",
                              key=OVERFLOW_LABEL_VALUE).value > 0


# ----------------------------------------------------------------------
class TestExemplars:
    def test_keeps_k_largest_with_trace_ids(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_ms", "t", exemplars=3)
        for index, value in enumerate([5.0, 50.0, 1.0, 99.0, 7.0, 80.0]):
            histogram.observe(value, trace_id=f"t{index:06d}")
        entries = histogram.exemplars()
        assert [e["value"] for e in entries] == [99.0, 80.0, 50.0]
        assert entries[0]["trace_id"] == "t000003"

    def test_auto_captures_active_trace(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_ms", "t", exemplars=2)
        collector = enable_tracing()
        with collector.span("request") as request_span:
            histogram.observe(42.0)
        entries = histogram.exemplars()
        assert entries[0]["trace_id"] == request_span.trace_id

    def test_no_trace_no_exemplar(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_ms", "t", exemplars=2)
        histogram.observe(42.0)
        assert histogram.exemplars() == []
        assert histogram.count == 1


class TestFlightRecorder:
    def test_lookup_and_bound(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record(f"t{index}", {"payload": index})
        assert len(recorder) == 3
        assert "t0" not in recorder and "t1" not in recorder
        assert recorder.lookup("t4") == {"payload": 4}
        assert recorder.lookup("t0") is None

    def test_none_trace_id_is_noop(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(None, {"payload": 1})
        assert len(recorder) == 0

    def test_rerecord_refreshes_eviction_order(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record("a", 1)
        recorder.record("b", 2)
        recorder.record("a", 3)
        recorder.record("c", 4)
        assert "a" in recorder and "b" not in recorder
        assert recorder.lookup("a") == 3


# ----------------------------------------------------------------------
class TestQualityArtifact:
    def make_monitor(self):
        registry = MetricsRegistry()
        monitor = QualityMonitor(
            registry, window=8,
            page_hinkley=PageHinkleyDetector(
                delta=1.0, threshold=30.0, min_samples=4),
            reference_window=ReferenceWindowDetector(
                reference_size=8, window_size=4))
        for _ in range(12):
            monitor.record(completed(eta_error=2.0,
                                     labels={"weather": "1"}))
        for _ in range(8):
            monitor.record(completed(eta_error=120.0,
                                     labels={"weather": "1"}))
        return monitor

    def test_round_trip(self, tmp_path):
        artifact = build_quality_artifact(
            self.make_monitor(), source="unit", seed=7)
        assert artifact["verdict"] == "drift"
        assert artifact["observations"] == 20
        assert artifact["alarms"]
        path = write_quality_artifact(artifact, tmp_path / "quality.json")
        loaded = json.loads(path.read_text())
        validate_quality_artifact(loaded)
        assert loaded == json.loads(
            json.dumps(artifact))  # JSON-stable (no float drift)

    def test_stable_verdict_without_alarms(self):
        registry = MetricsRegistry()
        monitor = QualityMonitor(registry, window=8)
        monitor.record(completed(eta_error=1.0))
        artifact = build_quality_artifact(monitor, source="unit", seed=0)
        assert artifact["verdict"] == "stable"
        assert artifact["alarms"] == []

    def test_validation_rejects_corruption(self):
        artifact = build_quality_artifact(
            self.make_monitor(), source="unit", seed=0)
        wrong_kind = dict(artifact, kind="something.else")
        with pytest.raises(QualityArtifactError):
            validate_quality_artifact(wrong_kind)
        missing = dict(artifact)
        del missing["verdict"]
        with pytest.raises(QualityArtifactError):
            validate_quality_artifact(missing)
        bad_verdict = dict(artifact, verdict="meh")
        with pytest.raises(QualityArtifactError):
            validate_quality_artifact(bad_verdict)
        bad_alarm = dict(artifact)
        bad_alarm["alarms"] = [dict(artifact["alarms"][0],
                                    detector="vibes")]
        with pytest.raises(QualityArtifactError):
            validate_quality_artifact(bad_alarm)
