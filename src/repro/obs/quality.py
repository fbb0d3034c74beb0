"""Streaming prediction-quality telemetry and drift detection.

Serving metrics (latency, error rate) tell you the service is *up*;
they say nothing about whether the model is still *right*.  Ground
truth for route-and-time prediction arrives late — a courier finishes
the route minutes after the prediction was served — so quality is a
second stream joined after the fact.  This module consumes that stream:

* :class:`CompletedRoute` — one prediction paired with its outcome
  (predicted vs. actual visit order, predicted ETAs vs. actual
  arrivals, plus the labels the prediction was served under);
* :class:`QualityMonitor` — maintains windowed route KRC/LSD and ETA
  MAE/MAPE per label segment (weather, courier, model version, and an
  ``all`` rollup), published as ``rtp_quality_*`` gauges in the shared
  :class:`~repro.obs.metrics.MetricsRegistry`;
* :class:`PageHinkleyDetector` / :class:`ReferenceWindowDetector` —
  deterministic streaming change detectors (Page-Hinkley cumulative
  deviation; Kolmogorov-Smirnov + Population Stability Index against a
  frozen reference window) watching the per-route error streams;
* :class:`DriftAlarm` — the event a detector raises; subscribers
  (notably ``DeploymentController.on_drift_alarm``) receive it
  synchronously so a drifting canary can be rolled back before the
  window fills with bad routes;
* :class:`FlightRecorder` — bounded ring buffer keying request
  payloads by trace id, so a p99 latency exemplar resolves to the
  offending trace *and* the request that caused it;
* :func:`build_quality_artifact` — schema-pinned JSON report
  (``repro-rtp obs report``) for CI upload and offline diffing.

Everything is seeded/deterministic: detectors hold no RNG state, and
timestamps come from an injected clock, so a replayed scenario raises
the same alarm at the same observation count, bit for bit.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import pathlib
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, \
    Tuple

import numpy as np

from ..metrics.route import kendall_rank_correlation, \
    location_square_deviation
from ..metrics.time import mae
from .metrics import MetricsRegistry
from .schema import check_schema

__all__ = [
    "CompletedRoute", "DriftAlarm",
    "PageHinkleyDetector", "ReferenceWindowDetector",
    "QualityMonitor", "FlightRecorder",
    "QUALITY_ARTIFACT_KIND", "QUALITY_SCHEMA_VERSION",
    "QualityArtifactError", "build_quality_artifact",
    "validate_quality_artifact", "write_quality_artifact",
    "load_quality_schema",
]

QUALITY_ARTIFACT_KIND = "repro.obs.quality"
QUALITY_SCHEMA_VERSION = 1

_SCHEMA_PATH = pathlib.Path(__file__).with_name("quality_schema.json")

#: Fraction of an ETA treated as the floor denominator for MAPE, so a
#: near-zero actual arrival cannot blow the percentage up to infinity.
_MAPE_FLOOR_MINUTES = 1.0

#: Newest drift alarms kept in :attr:`QualityMonitor.alarms` — far
#: above any run's count, so a monitor that runs forever holds bounded
#: memory while every run's artifact keeps all of them.
MAX_ALARMS = 1024


class QualityArtifactError(ValueError):
    """The quality artifact does not match the pinned schema."""


# ---------------------------------------------------------------------------
# Ground-truth records and alarms


@dataclasses.dataclass
class CompletedRoute:
    """One served prediction joined with its late-arriving ground truth."""

    predicted_route: Sequence[int]
    actual_route: Sequence[int]
    predicted_eta_minutes: Sequence[float]
    actual_arrival_minutes: Sequence[float]
    labels: Dict[str, str] = dataclasses.field(default_factory=dict)
    trace_id: Optional[str] = None


@dataclasses.dataclass
class DriftAlarm:
    """A detector decided the quality stream changed distribution."""

    metric: str          # which quality stream (e.g. "eta_mae")
    detector: str        # "page_hinkley" | "ks" | "psi"
    segment: str         # label dimension ("all", "model_version", ...)
    key: str             # label value within the segment
    statistic: float     # the detector statistic that crossed
    threshold: float     # the configured firing threshold
    observations: int    # completed routes seen when it fired
    at: float            # clock reading when it fired
    reference_size: int = 0
    window_size: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Streaming detectors (deterministic, no RNG)


class PageHinkleyDetector:
    """Page-Hinkley test for an upward mean shift in a scalar stream.

    Tracks the running mean and the cumulative deviation
    ``cum += x - mean - delta``; the test statistic is
    ``cum - min(cum)``, which stays near zero while the stream is
    stationary and climbs linearly once the mean rises.  Fires when the
    statistic exceeds ``threshold`` after ``min_samples`` observations,
    then resets so a persistent shift re-alarms rather than saturating.
    """

    name = "page_hinkley"

    def __init__(self, delta: float = 0.1, threshold: float = 12.0,
                 min_samples: int = 20):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cum = 0.0
        self._cum_min = 0.0

    def update(self, value: float) -> Optional[Dict[str, Any]]:
        """Feed one observation; returns firing info or ``None``."""
        value = float(value)
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._cum += value - self._mean - self.delta
        self._cum_min = min(self._cum_min, self._cum)
        statistic = self._cum - self._cum_min
        if self._count >= self.min_samples and statistic > self.threshold:
            fired = {
                "statistic": statistic,
                "threshold": self.threshold,
                "detail": f"mean drifted to {self._mean:.4f} "
                          f"after {self._count} samples",
            }
            self.reset()
            return fired
        return None


class ReferenceWindowDetector:
    """Two-sample KS + PSI test of a sliding window against a frozen
    reference.

    The first ``reference_size`` observations are frozen as the
    reference distribution (the healthy baseline); afterwards a sliding
    window of the most recent ``window_size`` observations is compared
    against it whenever the window is full.  Fires on whichever of the
    two statistics crosses first:

    * KS — max vertical distance between the empirical CDFs;
    * PSI — population stability index over the reference's decile
      bins, with epsilon smoothing so empty bins stay finite.

    The window is cleared after firing so one shift yields one alarm
    per window-fill, not one per observation.
    """

    def __init__(self, reference_size: int = 32, window_size: int = 24,
                 ks_threshold: float = 0.6, psi_threshold: float = 2.0):
        # Small-sample note: with ~24-sample windows over 10 bins the
        # sampling-noise floor of PSI is already ~0.65 and the 5% KS
        # critical value ~0.36, so the defaults sit well above both.
        if reference_size < 4 or window_size < 4:
            raise ValueError("reference and window need >= 4 samples")
        self.reference_size = int(reference_size)
        self.window_size = int(window_size)
        self.ks_threshold = float(ks_threshold)
        self.psi_threshold = float(psi_threshold)
        self._reference: List[float] = []
        self._ref_sorted: Optional[np.ndarray] = None
        self._bin_edges: Optional[np.ndarray] = None
        self._ref_fractions: Optional[np.ndarray] = None
        self._window: Deque[float] = collections.deque(
            maxlen=self.window_size)

    @property
    def reference_ready(self) -> bool:
        return self._ref_sorted is not None

    def _freeze_reference(self) -> None:
        reference = np.asarray(self._reference, dtype=float)
        self._ref_sorted = np.sort(reference)
        # Decile edges; interior only — the outer bins are open-ended so
        # out-of-range live values still land somewhere.
        edges = np.quantile(reference, np.linspace(0.0, 1.0, 11)[1:-1])
        self._bin_edges = np.unique(edges)
        counts = np.bincount(
            np.searchsorted(self._bin_edges, reference, side="right"),
            minlength=self._bin_edges.size + 1).astype(float)
        self._ref_fractions = counts / counts.sum()

    def _ks_statistic(self, window: np.ndarray) -> float:
        assert self._ref_sorted is not None
        window_sorted = np.sort(window)
        grid = np.concatenate([self._ref_sorted, window_sorted])
        ref_cdf = np.searchsorted(self._ref_sorted, grid, side="right") \
            / self._ref_sorted.size
        win_cdf = np.searchsorted(window_sorted, grid, side="right") \
            / window_sorted.size
        return float(np.max(np.abs(ref_cdf - win_cdf)))

    def _psi_statistic(self, window: np.ndarray) -> float:
        assert self._bin_edges is not None \
            and self._ref_fractions is not None
        counts = np.bincount(
            np.searchsorted(self._bin_edges, window, side="right"),
            minlength=self._bin_edges.size + 1).astype(float)
        # Half-count (Laplace) smoothing: a handful of empty decile bins
        # in a ~24-sample window is expected noise, not drift, so bins
        # are smoothed with pseudo-counts rather than a raw epsilon.
        bins = counts.size
        actual = (counts + 0.5) / (counts.sum() + 0.5 * bins)
        expected = (self._ref_fractions * self.reference_size + 0.5) \
            / (self.reference_size + 0.5 * bins)
        return float(np.sum((actual - expected) * np.log(actual / expected)))

    def update(self, value: float) -> Optional[Dict[str, Any]]:
        """Feed one observation; returns firing info or ``None``."""
        value = float(value)
        if not self.reference_ready:
            self._reference.append(value)
            if len(self._reference) >= self.reference_size:
                self._freeze_reference()
            return None
        self._window.append(value)
        if len(self._window) < self.window_size:
            return None
        window = np.asarray(self._window, dtype=float)
        ks = self._ks_statistic(window)
        psi = self._psi_statistic(window)
        fired: Optional[Dict[str, Any]] = None
        if ks > self.ks_threshold:
            fired = {"statistic": ks, "threshold": self.ks_threshold,
                     "detector": "ks",
                     "detail": f"KS {ks:.3f} vs reference "
                               f"(psi {psi:.3f})"}
        elif psi > self.psi_threshold:
            fired = {"statistic": psi, "threshold": self.psi_threshold,
                     "detector": "psi",
                     "detail": f"PSI {psi:.3f} vs reference "
                               f"(ks {ks:.3f})"}
        if fired is not None:
            self._window.clear()
        return fired


# ---------------------------------------------------------------------------
# Flight recorder: trace id -> payload, bounded


class FlightRecorder:
    """Bounded ring buffer mapping trace ids to request payloads.

    The exemplar on a latency histogram gives you a trace id; the
    flight recorder turns that id back into the request that produced
    the tail observation.  Oldest entries are evicted first; capacity
    bounds memory regardless of traffic volume.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: "collections.OrderedDict[str, Any]" = \
            collections.OrderedDict()

    def record(self, trace_id: Optional[str], payload: Any) -> None:
        if trace_id is None:
            return
        if trace_id in self._entries:
            self._entries.pop(trace_id)
        self._entries[trace_id] = payload
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def lookup(self, trace_id: str) -> Optional[Any]:
        return self._entries.get(trace_id)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._entries


# ---------------------------------------------------------------------------
# The monitor


_DEFAULT_SEGMENTS = ("weather", "courier", "model_version")

_GAUGE_SPECS = (
    ("rtp_quality_route_krc", "Windowed mean Kendall rank correlation"),
    ("rtp_quality_route_lsd", "Windowed mean location square deviation"),
    ("rtp_quality_eta_mae", "Windowed mean ETA absolute error (minutes)"),
    ("rtp_quality_eta_mape",
     "Windowed mean ETA absolute percentage error"),
)


class _SegmentWindow:
    """Per-(segment, key) sliding window of per-route quality tuples."""

    __slots__ = ("rows", "count")

    def __init__(self, window: int):
        self.rows: Deque[Tuple[float, float, float, float]] = \
            collections.deque(maxlen=window)
        self.count = 0

    def push(self, row: Tuple[float, float, float, float]) -> None:
        self.rows.append(row)
        self.count += 1

    def means(self) -> Tuple[float, float, float, float]:
        block = np.asarray(self.rows, dtype=float)
        means = block.mean(axis=0)
        return (float(means[0]), float(means[1]),
                float(means[2]), float(means[3]))


class QualityMonitor:
    """Streaming per-segment quality rollups plus drift detection.

    Feed :meth:`record` one :class:`CompletedRoute` per finished route.
    The monitor computes the per-route KRC/LSD/ETA-MAE/ETA-MAPE,
    updates the windowed gauges for every configured label segment (and
    the ``all`` rollup), then pushes the route's ETA MAE into the drift
    detectors.  Alarms are appended to :attr:`alarms` (the newest
    :data:`MAX_ALARMS` are kept) and delivered synchronously to every
    callback registered via :meth:`on_alarm`.
    """

    def __init__(self, registry: MetricsRegistry, *, window: int = 64,
                 segments: Sequence[str] = _DEFAULT_SEGMENTS,
                 clock: Optional[Callable[[], float]] = None,
                 page_hinkley: Optional[PageHinkleyDetector] = None,
                 reference_window: Optional[ReferenceWindowDetector] = None,
                 drift_metric: str = "eta_mae"):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.registry = registry
        self.window = int(window)
        self.segments = tuple(segments)
        self.clock = clock
        self.drift_metric = drift_metric
        self.page_hinkley = page_hinkley if page_hinkley is not None \
            else PageHinkleyDetector()
        self.reference_window = reference_window \
            if reference_window is not None else ReferenceWindowDetector()
        self.observations = 0
        self.alarms: List[DriftAlarm] = []
        self._callbacks: List[Callable[[DriftAlarm], None]] = []
        self._windows: Dict[Tuple[str, str], _SegmentWindow] = {}

        self._routes_total = registry.counter(
            "rtp_quality_routes_total",
            "Completed routes folded into quality windows",
            labels=("segment", "key"))
        self._gauges = {
            name: registry.gauge(name, help_text,
                                 labels=("segment", "key"))
            for name, help_text in _GAUGE_SPECS
        }
        self._alarms_total = registry.counter(
            "rtp_quality_drift_alarms_total",
            "Drift alarms raised by quality detectors",
            labels=("metric", "detector", "segment", "key"))

    # -- subscriptions ----------------------------------------------------

    def on_alarm(self, callback: Callable[[DriftAlarm], None]) -> None:
        """Register a synchronous alarm subscriber."""
        self._callbacks.append(callback)

    # -- ingestion --------------------------------------------------------

    @staticmethod
    def route_scores(completed: CompletedRoute) \
            -> Tuple[float, float, float, float]:
        """(krc, lsd, eta_mae, eta_mape) for one completed route."""
        krc = kendall_rank_correlation(completed.predicted_route,
                                       completed.actual_route)
        lsd = location_square_deviation(completed.predicted_route,
                                        completed.actual_route)
        eta_mae = mae(completed.predicted_eta_minutes,
                      completed.actual_arrival_minutes)
        predicted = np.asarray(completed.predicted_eta_minutes, dtype=float)
        actual = np.asarray(completed.actual_arrival_minutes, dtype=float)
        denominator = np.maximum(np.abs(actual), _MAPE_FLOOR_MINUTES)
        eta_mape = float(np.mean(np.abs(predicted - actual) / denominator))
        return krc, lsd, eta_mae, eta_mape

    def record(self, completed: CompletedRoute) -> List[DriftAlarm]:
        """Fold one completed route in; returns alarms raised by it."""
        row = self.route_scores(completed)
        self.observations += 1
        self._fold(("all", "all"), row)
        for segment in self.segments:
            value = completed.labels.get(segment)
            if value is not None:
                self._fold((segment, str(value)), row)
        return self._detect(row)

    def _fold(self, key: Tuple[str, str],
              row: Tuple[float, float, float, float]) -> None:
        segment_window = self._windows.get(key)
        if segment_window is None:
            segment_window = self._windows[key] = \
                _SegmentWindow(self.window)
        segment_window.push(row)
        segment, label = key
        self._routes_total.labels(segment=segment, key=label).inc()
        means = segment_window.means()
        for (name, _), value in zip(_GAUGE_SPECS, means):
            self._gauges[name].labels(segment=segment, key=label).set(value)

    def _detect(self, row: Tuple[float, float, float, float]) \
            -> List[DriftAlarm]:
        # Detectors watch one scalar stream: the per-route drift metric.
        index = {"route_krc": 0, "route_lsd": 1,
                 "eta_mae": 2, "eta_mape": 3}[self.drift_metric]
        value = row[index]
        raised: List[DriftAlarm] = []
        fired = self.page_hinkley.update(value)
        if fired is not None:
            raised.append(self._raise_alarm(
                detector=self.page_hinkley.name, fired=fired))
        fired = self.reference_window.update(value)
        if fired is not None:
            raised.append(self._raise_alarm(
                detector=fired.pop("detector"), fired=fired,
                reference_size=self.reference_window.reference_size,
                window_size=self.reference_window.window_size))
        return raised

    def _raise_alarm(self, *, detector: str, fired: Dict[str, Any],
                     reference_size: int = 0,
                     window_size: int = 0) -> DriftAlarm:
        alarm = DriftAlarm(
            metric=self.drift_metric, detector=detector,
            segment="all", key="all",
            statistic=float(fired["statistic"]),
            threshold=float(fired["threshold"]),
            observations=self.observations,
            at=float(self.clock()) if self.clock is not None
            else float(self.observations),
            reference_size=reference_size, window_size=window_size,
            detail=str(fired.get("detail", "")))
        self.alarms.append(alarm)
        del self.alarms[:-MAX_ALARMS]
        self._alarms_total.labels(
            metric=alarm.metric, detector=alarm.detector,
            segment=alarm.segment, key=alarm.key).inc()
        for callback in self._callbacks:
            callback(alarm)
        return alarm

    # -- reporting --------------------------------------------------------

    def segment_summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{segment: {key: {metric: windowed mean, routes: n}}}``."""
        summary: Dict[str, Dict[str, Dict[str, float]]] = {}
        metric_names = ("route_krc", "route_lsd", "eta_mae", "eta_mape")
        for (segment, key), window in sorted(self._windows.items()):
            means = window.means()
            entry = {name: round(value, 6)
                     for name, value in zip(metric_names, means)}
            entry["routes"] = float(window.count)
            summary.setdefault(segment, {})[key] = entry
        return summary


# ---------------------------------------------------------------------------
# Schema-pinned quality artifact


def load_quality_schema() -> Dict[str, Any]:
    """The checked-in quality artifact schema."""
    with open(_SCHEMA_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build_quality_artifact(monitor: QualityMonitor, *, source: str,
                           seed: int,
                           extra: Optional[Dict[str, Any]] = None) \
        -> Dict[str, Any]:
    """Assemble and validate the quality/drift report for ``monitor``."""
    artifact: Dict[str, Any] = {
        "kind": QUALITY_ARTIFACT_KIND,
        "schema_version": QUALITY_SCHEMA_VERSION,
        "source": source,
        "seed": int(seed),
        "observations": int(monitor.observations),
        "drift_metric": monitor.drift_metric,
        "window": int(monitor.window),
        "segments": monitor.segment_summary(),
        "alarms": [alarm.to_dict() for alarm in monitor.alarms],
        "verdict": "drift" if monitor.alarms else "stable",
    }
    if extra:
        artifact["extra"] = dict(extra)
    validate_quality_artifact(artifact)
    return artifact


def validate_quality_artifact(artifact: Dict[str, Any]) -> None:
    """Raise :class:`QualityArtifactError` unless schema-conformant."""
    check_schema(artifact, load_quality_schema(), "$",
                 error_cls=QualityArtifactError)
    if artifact["kind"] != QUALITY_ARTIFACT_KIND:
        raise QualityArtifactError(
            f"$.kind: expected {QUALITY_ARTIFACT_KIND!r}, "
            f"got {artifact['kind']!r}")
    if artifact["schema_version"] != QUALITY_SCHEMA_VERSION:
        raise QualityArtifactError(
            f"$.schema_version: expected {QUALITY_SCHEMA_VERSION}, "
            f"got {artifact['schema_version']}")


def write_quality_artifact(artifact: Dict[str, Any],
                           path: "pathlib.Path | str") -> pathlib.Path:
    """Validate and write the artifact as stable, diff-friendly JSON."""
    validate_quality_artifact(artifact)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
