"""Trace-context propagation across process and thread boundaries.

A trace that crosses a queue — the shard router dispatching a request
to a serving worker process — would otherwise fall apart into
disconnected process-local fragments (or, worse, the worker-side spans
would land in the worker's own collector and be silently dropped when
the process exits).  This module is the wire protocol that keeps the
tree whole:

* :class:`SpanContext` — the (trace id, span id) pair identifying "the
  span this work logically belongs under"; :meth:`SpanContext.to_wire`
  is a plain picklable tuple, matching the tuple messages of
  :mod:`repro.serving_shard.runtime`;
* :func:`capture_context` — snapshot the caller's innermost active
  span as a wire tuple (``None`` when tracing is off), taken at
  dispatch time and shipped with the task;
* :class:`worker_span_session` — worker-side context manager: installs
  a fresh process-local collector for the duration of one task so the
  worker's spans are captured even though the parent's collector lives
  in another address space, then :meth:`~worker_span_session.export`-s
  them as plain dicts to ship back with the result;
* :func:`merge_worker_spans` — coordinator-side stitch: rebuilds the
  shipped spans and attaches them under the span that dispatched the
  work (fresh local ids, durations preserved), yielding one
  cross-process tree.

The round trip::

    # coordinator, at dispatch                 # worker process
    ctx = capture_context()                    with worker_span_session(ctx) as s:
    queue.put((task, ctx))                         with span("worker.step"):
                                                       ...work...
    # coordinator, at collect                      result = (data, s.export())
    data, spans = queue.get()
    merge_worker_spans(spans, ctx)

Everything degrades to no-ops when tracing is disabled on the
coordinator: ``capture_context`` returns ``None``, the worker session
stays inactive (unless the worker itself has tracing on), ``export``
returns ``[]`` and ``merge_worker_spans`` does nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import tracing
from .tracing import Span, TraceCollector

__all__ = [
    "SpanContext", "current_context", "capture_context",
    "worker_span_session", "merge_worker_spans",
]

#: Wire form of a span context: a plain picklable (trace_id, span_id).
WireContext = Tuple[str, str]


@dataclasses.dataclass(frozen=True)
class SpanContext:
    """Identity of a span that work on another thread/process joins."""

    trace_id: str
    span_id: str

    def to_wire(self) -> WireContext:
        """Plain-tuple form for queue messages (picklable, no class)."""
        return (self.trace_id, self.span_id)

    @staticmethod
    def from_wire(wire: Optional[Sequence[str]]) -> Optional["SpanContext"]:
        """Rebuild from :meth:`to_wire` output; ``None`` passes through."""
        if wire is None:
            return None
        trace_id, span_id = wire
        return SpanContext(trace_id, span_id)


def current_context() -> Optional[SpanContext]:
    """Context of the innermost active span, or ``None`` (tracing off /
    no span open on this thread)."""
    active = tracing.current_span()
    if active is None or active.span_id is None:
        return None
    return SpanContext(active.trace_id, active.span_id)


def capture_context() -> Optional[WireContext]:
    """:func:`current_context` in wire form, ready to put on a queue."""
    context = current_context()
    return context.to_wire() if context is not None else None


class worker_span_session:
    """Capture spans opened while one worker task runs.

    Active when the task shipped a parent context *or* the worker
    process already has tracing enabled (e.g. inherited via ``fork`` —
    writing into the inherited collector would be invisible to the
    parent, so a fresh one is installed either way and the previous
    collector is restored on exit).  Inactive sessions cost one global
    read and export nothing.
    """

    def __init__(self, wire_context: Optional[Sequence[str]] = None):
        self.context = SpanContext.from_wire(wire_context)
        self._collector: Optional[TraceCollector] = None
        self._previous: Optional[TraceCollector] = None

    def __enter__(self) -> "worker_span_session":
        self._previous = tracing.get_collector()
        if self.context is not None or self._previous is not None:
            self._collector = TraceCollector()
            tracing.enable_tracing(self._collector)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._collector is not None:
            if self._previous is not None:
                tracing.enable_tracing(self._previous)
            else:
                tracing.disable_tracing()
        return False

    @property
    def active(self) -> bool:
        return self._collector is not None

    def export(self) -> List[Dict[str, Any]]:
        """The session's root spans as plain dicts (queue payload)."""
        if self._collector is None:
            return []
        with self._collector._lock:
            return [root.to_dict() for root in self._collector.roots]


def merge_worker_spans(records: Sequence[Dict[str, Any]],
                       wire_context: Optional[Sequence[str]] = None,
                       collector: Optional[TraceCollector] = None) -> int:
    """Stitch shipped span records into the (local) active collector.

    Each record is rebuilt into a :class:`Span` tree (durations frozen
    to the exported values) and attached under the span named by
    ``wire_context`` when that span lives in the target collector —
    else as a new root.  Returns the number of roots merged; a no-op
    (0) when tracing is off here or there is nothing to merge.
    """
    if not records:
        return 0
    collector = collector if collector is not None else \
        tracing.get_collector()
    if collector is None:
        return 0
    context = SpanContext.from_wire(wire_context)
    parent_id = context.span_id if context is not None else None
    for record in records:
        collector.attach(Span.from_dict(record), parent_id=parent_id)
    return len(records)
