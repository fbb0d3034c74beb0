"""Unit tests for the repro.obs observability layer.

Covers span nesting and thread-locality, metric registry label
handling, the Prometheus exposition format (parsed line-by-line), and
EventLog round-trips.
"""

import json
import re
import threading

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    Span,
    TraceCollector,
    disable_tracing,
    enable_tracing,
    format_span_record,
    read_jsonl,
    span,
    summarize_events,
    summarize_spans,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with process-wide tracing disabled."""
    disable_tracing()
    yield
    disable_tracing()


# ----------------------------------------------------------------------
# Tracing spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_tree(self):
        collector = TraceCollector()
        with collector.span("root"):
            with collector.span("child_a"):
                with collector.span("grandchild"):
                    pass
            with collector.span("child_b"):
                pass
        assert len(collector.roots) == 1
        root = collector.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_durations_monotonic(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with collector.span("inner"):
                sum(range(1000))
        outer = collector.roots[0]
        inner = outer.children[0]
        assert outer.duration_ms >= inner.duration_ms > 0.0

    def test_attrs_via_kwargs_and_set_attr(self):
        collector = TraceCollector()
        with collector.span("s", level="aoi") as s:
            s.set_attr("count", 3)
        assert collector.roots[0].attrs["level"] == "aoi"
        assert collector.roots[0].attrs["count"] == 3

    def test_thread_locality(self):
        collector = TraceCollector()

        def worker(tag):
            with collector.span(f"root_{tag}"):
                with collector.span(f"child_{tag}"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,), name=f"t{i}")
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Four independent roots, each with exactly its own child —
        # no cross-thread nesting.
        assert len(collector.roots) == 4
        for root in collector.roots:
            tag = root.name.split("_")[1]
            assert [c.name for c in root.children] == [f"child_{tag}"]

    def test_global_switch(self):
        assert not tracing_enabled()
        null = span("ignored")
        with null as s:
            s.set_attr("x", 1)  # no-op, must not raise
        collector = enable_tracing()
        assert tracing_enabled()
        with span("real"):
            pass
        assert [s.name for s in collector.roots] == ["real"]
        assert disable_tracing() is collector
        with span("after_disable"):
            pass
        assert len(collector.roots) == 1

    def test_exception_still_finishes_span(self):
        collector = TraceCollector()
        with pytest.raises(RuntimeError):
            with collector.span("boom"):
                raise RuntimeError("x")
        assert collector.roots[0].duration_ms >= 0.0
        assert collector.current() is None

    def test_jsonl_round_trip(self, tmp_path):
        collector = TraceCollector()
        with collector.span("request", cache_hit=False):
            with collector.span("build"):
                pass
        path = tmp_path / "trace.jsonl"
        assert collector.write_jsonl(path) == 1
        records = read_jsonl(path)
        assert len(records) == 1
        root = records[0]
        assert root["name"] == "request"
        assert root["attrs"]["cache_hit"] is False
        assert root["children"][0]["name"] == "build"
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_render_and_summary(self):
        collector = TraceCollector()
        with collector.span("a"):
            with collector.span("b"):
                pass
        text = collector.render()
        assert "a" in text and "└─ b" in text and "ms" in text
        records = [root.to_dict() for root in collector.roots]
        summary = summarize_spans(records)
        assert "a" in summary and "b" in summary and "calls" in summary
        tree = format_span_record(records[0])
        assert "└─ b" in tree


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help")
        b = registry.counter("x_total")
        assert a is b
        a.inc()
        a.inc(3)
        assert a.value == 4

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)

    def test_label_children_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", labels=("path",))
        counter.labels(path="single").inc(2)
        counter.labels(path="batch").inc(5)
        assert counter.labels(path="single").value == 2
        assert counter.labels(path="batch").value == 5
        text = registry.render()
        assert 'req_total{path="batch"} 5' in text
        assert 'req_total{path="single"} 2' in text

    def test_label_name_mismatch_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", labels=("path",))
        with pytest.raises(ValueError):
            counter.labels(wrong="x")
        with pytest.raises(ValueError):
            counter.inc()  # label-less use of a labelled instrument
        with pytest.raises(ValueError):
            registry.counter("req_total", labels=("other",))

    def test_gauge_set_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.inc(0.5)
        assert gauge.value == 3.0
        assert "g 3" in registry.render()

    def test_summary_sum_count(self):
        registry = MetricsRegistry()
        summary = registry.summary("s_ms")
        summary.observe(1.5)
        summary.observe(2.5)
        text = registry.render()
        assert "s_ms_sum 4.000" in text
        assert "s_ms_count 2" in text

    def test_histogram_buckets_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(5.0, 1.0))

    def test_histogram_appends_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        assert histogram.buckets[-1] == float("inf")

    def test_exposition_format_parses(self):
        """Line-by-line parse: TYPE lines, cumulative monotone buckets,
        +Inf bucket equals the count."""
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_ms", "latency", buckets=(1.0, 5.0, 25.0, float("inf")))
        for value in (0.5, 0.7, 3.0, 30.0, 100.0):
            histogram.observe(value)
        registry.counter("q_total").inc(5)
        lines = registry.render().splitlines()
        types = {line.split()[2]: line.split()[3]
                 for line in lines if line.startswith("# TYPE")}
        assert types == {"lat_ms": "histogram", "q_total": "counter"}
        bucket_re = re.compile(r'lat_ms_bucket\{le="([^"]+)"\} (\d+)')
        buckets = [(m.group(1), int(m.group(2)))
                   for m in map(bucket_re.match, lines) if m]
        assert [b[0] for b in buckets] == ["1", "5", "25", "+Inf"]
        counts = [b[1] for b in buckets]
        assert counts == sorted(counts), "cumulative buckets must be monotone"
        count_line = next(l for l in lines if l.startswith("lat_ms_count"))
        assert counts[-1] == int(count_line.split()[-1])
        sum_line = next(l for l in lines if l.startswith("lat_ms_sum"))
        assert float(sum_line.split()[-1]) == pytest.approx(134.2)


class TestRegistryThreadSafety:
    """Every write path mutates under the instrument lock, so hammering
    one instrument from many threads must lose no updates (the contract
    the shard router's threads rely on)."""

    THREADS = 8
    PER_THREAD = 500

    def _hammer(self, work):
        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait()   # maximise interleaving
            for _ in range(self.PER_THREAD):
                work()

        threads = [threading.Thread(target=run)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        self._hammer(lambda: counter.inc())
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_concurrent_labelled_counter_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("worker",))

        def work():
            for worker in ("0", "1"):
                counter.labels(worker=worker).inc()

        self._hammer(work)
        expected = self.THREADS * self.PER_THREAD
        assert counter.labels(worker="0").value == expected
        assert counter.labels(worker="1").value == expected

    def test_concurrent_summary_and_gauge_are_exact(self):
        registry = MetricsRegistry()
        summary = registry.summary("s")
        gauge = registry.gauge("g")

        def work():
            summary.observe(0.5)
            gauge.inc(1.0)

        self._hammer(work)
        total = self.THREADS * self.PER_THREAD
        assert gauge.value == total
        text = registry.render()
        assert f"s_count {total}" in text
        assert f"s_sum {total * 0.5:.3f}" in text

    def test_render_during_writes_never_tears(self):
        """A histogram rendered mid-write must stay internally
        consistent: cumulative buckets monotone and +Inf == count."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        stop = threading.Event()
        torn = []

        def render_loop():
            bucket_re = re.compile(r'h_bucket\{le="[^"]+"\} (\d+)')
            while not stop.is_set():
                lines = registry.render().splitlines()
                counts = [int(m.group(1)) for m
                          in map(bucket_re.match, lines) if m]
                count = next((int(line.split()[-1]) for line in lines
                              if line.startswith("h_count")), None)
                if counts != sorted(counts) or counts[-1] != count:
                    torn.append(lines)
                    return

        reader = threading.Thread(target=render_loop)
        reader.start()
        try:
            self._hammer(lambda: histogram.observe(1.5))
        finally:
            stop.set()
            reader.join()
        assert not torn
        assert f"h_count {self.THREADS * self.PER_THREAD}" \
            in registry.render()


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.log("epoch", epoch=0, train_loss=1.5, val_loss=1.7,
                    grad_norm=3.2, lr=0.003, seconds=0.5)
            log.log("epoch", epoch=1, train_loss=1.2, val_loss=1.4,
                    grad_norm=2.1, lr=0.003, seconds=0.4)
            log.log("fit", epochs=2, best_epoch=1, total_seconds=0.9)
        records = read_jsonl(path)
        assert len(records) == 3
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[0]["type"] == "epoch"
        assert records[2]["best_epoch"] == 1

    def test_append_mode_inspectable_mid_run(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.log("epoch", epoch=0, train_loss=2.0)
        # Readable before close (flushed line-by-line).
        assert len(read_jsonl(path)) == 1
        log.log("epoch", epoch=1, train_loss=1.0)
        log.close()
        assert len(read_jsonl(path)) == 2

    def test_summarize_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.log("epoch", epoch=0, train_loss=1.5, val_loss=None,
                    grad_norm=1.0, lr=3e-3, seconds=0.1,
                    sigmas={"aoi_route": 0.9})
            log.log("fit", epochs=1, best_epoch=-1, total_seconds=0.1)
        summary = summarize_events(read_jsonl(path))
        assert "epoch" in summary
        assert "1.5000" in summary
        assert "best epoch -1" in summary
        assert "aoi_route" in summary

    def test_summarize_empty(self):
        assert "no epoch" in summarize_events([{"type": "other"}])
