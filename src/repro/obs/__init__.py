"""Unified observability layer: tracing, metrics, events.

Zero-dependency (stdlib-only) subsystem threaded through every layer of
the stack:

* :mod:`~repro.obs.tracing` — hierarchical :class:`Span` trees on the
  monotonic clock, with a process-wide on/off switch and JSONL export;
* :mod:`~repro.obs.metrics` — named Counter/Gauge/Histogram/Summary
  instruments in a :class:`MetricsRegistry` with Prometheus-exposition
  rendering;
* :mod:`~repro.obs.events` — append-only JSONL :class:`EventLog` used
  for per-epoch training telemetry;
* :mod:`~repro.obs.propagate` — span-context propagation across
  process/thread boundaries (worker sessions, stitch-on-collect);
* :mod:`~repro.obs.quality` — streaming prediction-quality windows,
  drift detectors (:class:`DriftAlarm` events) and the flight recorder
  that resolves latency exemplars back to request payloads.

Everything is off by default and adds near-zero overhead when disabled,
so the instrumentation lives permanently in the hot paths.
"""

from .tracing import (
    Span,
    TraceCollector,
    current_span,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    format_span_record,
    get_collector,
    span,
    summarize_spans,
    tracing_enabled,
)
from .metrics import (
    DEFAULT_HISTOGRAM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
)
from .events import EventLog, read_jsonl, summarize_events
from .propagate import (
    SpanContext,
    capture_context,
    current_context,
    merge_worker_spans,
    worker_span_session,
)
from .quality import (
    CompletedRoute,
    DriftAlarm,
    FlightRecorder,
    PageHinkleyDetector,
    QualityMonitor,
    ReferenceWindowDetector,
    build_quality_artifact,
    validate_quality_artifact,
    write_quality_artifact,
)
from .schema import SchemaValidationError, check_schema

__all__ = [
    "Span", "TraceCollector", "span", "current_span", "current_trace_id",
    "enable_tracing", "disable_tracing", "tracing_enabled", "get_collector",
    "summarize_spans", "format_span_record",
    "Counter", "Gauge", "Histogram", "Summary", "MetricsRegistry",
    "DEFAULT_HISTOGRAM_BUCKETS",
    "EventLog", "read_jsonl", "summarize_events",
    "SpanContext", "current_context", "capture_context",
    "worker_span_session", "merge_worker_spans",
    "CompletedRoute", "DriftAlarm", "PageHinkleyDetector",
    "ReferenceWindowDetector", "QualityMonitor", "FlightRecorder",
    "build_quality_artifact", "validate_quality_artifact",
    "write_quality_artifact",
    "SchemaValidationError", "check_schema",
]
