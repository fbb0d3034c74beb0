"""Cross-process/thread trace propagation and collector concurrency.

Covers the wire protocol (:mod:`repro.obs.propagate`), the worker-side
span session and coordinator-side stitch, and the
:class:`TraceCollector` concurrency contract (N threads opening nested
spans while another thread renders).  End-to-end span shipping from
real shard worker processes is tested in ``test_serving_shard.py``.
"""

import json
import threading

import pytest

from repro.obs import (
    Span,
    SpanContext,
    TraceCollector,
    capture_context,
    current_context,
    disable_tracing,
    enable_tracing,
    merge_worker_spans,
    worker_span_session,
)
from repro.obs import tracing


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


# ----------------------------------------------------------------------
class TestSpanContext:
    def test_wire_round_trip(self):
        context = SpanContext("t000001", "s000042")
        assert context.to_wire() == ("t000001", "s000042")
        assert SpanContext.from_wire(context.to_wire()) == context

    def test_none_passes_through(self):
        assert SpanContext.from_wire(None) is None

    def test_current_context_requires_active_span(self):
        assert current_context() is None
        assert capture_context() is None
        collector = enable_tracing()
        assert current_context() is None  # tracing on, no span open
        with collector.span("work") as active:
            context = current_context()
            assert context == SpanContext(active.trace_id, active.span_id)
            assert capture_context() == (active.trace_id, active.span_id)
        assert current_context() is None


class TestWorkerSpanSession:
    def test_inactive_without_context_or_tracing(self):
        with worker_span_session(None) as session:
            assert not session.active
            with tracing.span("worker.step"):
                pass
            assert session.export() == []

    def test_active_with_shipped_context(self):
        with worker_span_session(("t000001", "s000001")) as session:
            assert session.active
            with tracing.span("worker.step", shard=3):
                with tracing.span("worker.inner"):
                    pass
            records = session.export()
        assert len(records) == 1
        assert records[0]["name"] == "worker.step"
        assert records[0]["attrs"]["shard"] == 3
        assert records[0]["children"][0]["name"] == "worker.inner"
        # Session torn down: process-wide tracing is off again.
        assert tracing.get_collector() is None

    def test_fork_inherited_collector_is_shielded_and_restored(self):
        inherited = enable_tracing()
        with worker_span_session(None) as session:
            assert session.active
            with tracing.span("worker.step"):
                pass
            assert session.export()
        # The inherited collector is restored untouched: worker spans
        # must ship via export(), never leak into the parent's tree.
        assert tracing.get_collector() is inherited
        assert inherited.roots == []

    def test_merge_attaches_under_dispatching_span(self):
        with worker_span_session(("t", "s")) as session:
            with tracing.span("worker.step"):
                pass
            records = session.export()
        collector = enable_tracing()
        with collector.span("shard.route") as route_span:
            wire = (route_span.trace_id, route_span.span_id)
            merged = merge_worker_spans(records, wire)
        assert merged == 1
        [root] = collector.roots
        [child] = root.children
        assert child.name == "worker.step"
        # Adopted into the dispatching trace with fresh local ids.
        assert child.trace_id == route_span.trace_id
        assert child.span_id != records[0]["span_id"]
        # Shipped durations preserved verbatim.
        assert child.duration_ms == records[0]["duration_ms"]

    def test_merge_unknown_parent_becomes_root(self):
        collector = enable_tracing()
        record = Span("worker.step").freeze(1.5).to_dict()
        assert merge_worker_spans([record], ("tX", "sX")) == 1
        assert [r.name for r in collector.roots] == ["worker.step"]

    def test_merge_noop_when_tracing_off_or_empty(self):
        record = Span("worker.step").freeze(1.0).to_dict()
        assert merge_worker_spans([record], ("t", "s")) == 0
        enable_tracing()
        assert merge_worker_spans([], ("t", "s")) == 0


# ----------------------------------------------------------------------
class TestCollectorConcurrency:
    THREADS = 8
    TRACES_PER_THREAD = 40

    def _worker(self, collector, tag, failures):
        try:
            for index in range(self.TRACES_PER_THREAD):
                with collector.span(f"root_{tag}", iteration=index):
                    with collector.span(f"mid_{tag}"):
                        with collector.span(f"leaf_{tag}"):
                            pass
        except Exception as error:  # pragma: no cover
            failures.append(error)

    def test_nesting_correct_under_contention(self):
        collector = TraceCollector()
        failures = []
        threads = [
            threading.Thread(target=self._worker,
                             args=(collector, tag, failures))
            for tag in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(collector.roots) == self.THREADS * self.TRACES_PER_THREAD
        trace_ids = set()
        for root in collector.roots:
            tag = root.name.split("_")[1]
            [mid] = root.children
            [leaf] = mid.children
            # Thread-local stacks: never a child from another thread.
            assert mid.name == f"mid_{tag}"
            assert leaf.name == f"leaf_{tag}"
            assert {s.trace_id for s in root.iter_spans()} == \
                {root.trace_id}
            trace_ids.add(root.trace_id)
        assert len(trace_ids) == len(collector.roots)

    def test_render_and_jsonl_never_tear_during_writes(self):
        collector = TraceCollector()
        stop = threading.Event()
        failures = []

        def serialise_loop():
            try:
                while not stop.is_set():
                    collector.render(max_roots=10)
                    for line in collector.to_jsonl().splitlines():
                        record = json.loads(line)  # every line valid JSON
                        assert "name" in record
            except Exception as error:  # pragma: no cover
                failures.append(error)

        reader = threading.Thread(target=serialise_loop)
        reader.start()
        writers = [
            threading.Thread(target=self._worker,
                             args=(collector, tag, failures))
            for tag in range(self.THREADS)
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        reader.join()
        assert not failures
        # Final serialisation sees the complete forest.
        assert len(collector.to_jsonl().splitlines()) == \
            self.THREADS * self.TRACES_PER_THREAD
