"""Per-layer breakdown of a traced run, from the program's own spans.

Each timed operation runs inside one benchmark span named for its entry
layer; the program's spans nest under it, including shard-worker spans
shipped back and stitched under the submitting span.  A span's self
time is its duration minus its children's durations, so the self times
of one operation's tree add up to the benchmark span's duration
exactly.  Every span name maps to one per-layer metric; a span this
table does not know lands in ``trace.unattributed_ms``, so a span added
to the program later shows up instead of vanishing.
"""

from __future__ import annotations

from typing import Dict, Iterable

#: Benchmark span of each workload, and the metric its self time feeds.
BENCH_SPANS = {
    "poll": ("bench.deploy", "deploy.controller_ms"),
    "wave": ("bench.serving_shard", "serving_shard.dispatch_ms"),
    "train": ("bench.training", "training.fit_ms"),
}

_BY_NAME = {
    **dict(BENCH_SPANS.values()),
    "graph_build": "graphs.build_ms",
    "train.build_graphs": "graphs.build_ms",
    "encoder": "core.encoder_ms",
    "infer": "core.glue_ms",
    "kernel.level_embed": "kernels.level_embed_ms",
    "kernel.gat_encoder": "kernels.gat_encoder_ms",
    "kernel.pointer_decode": "kernels.pointer_decode_ms",
    "kernel.sort_rnn": "kernels.sort_rnn_ms",
    "rtp.resilient": "deploy.resilient_ms",
    "rtp.resilient.batch": "deploy.resilient_ms",
    "rtp.request": "service.stack_ms",
    "rtp.batch": "service.stack_ms",
    "rtp.batch.flush": "service.stack_ms",
    "service.batch.hop": "service.stack_ms",
    "shard.serve": "service.stack_ms",
    "train.epoch": "autodiff.backward_step_ms",
}
_DECODES = {"aoi": "core.aoi_decode_ms", "location": "core.location_decode_ms"}

UNATTRIBUTED = "trace.unattributed_ms"

#: Span-derived metrics, in report order.
SPAN_METRICS = (
    "graphs.build_ms", "core.encoder_ms", "core.aoi_decode_ms",
    "core.location_decode_ms", "core.glue_ms", "kernels.level_embed_ms",
    "kernels.gat_encoder_ms", "kernels.pointer_decode_ms",
    "kernels.sort_rnn_ms", "serving_shard.dispatch_ms",
    "deploy.controller_ms", "deploy.resilient_ms", "service.stack_ms",
    "autodiff.backward_step_ms", "training.fit_ms", UNATTRIBUTED,
)


def metric_of(span) -> str:
    """The per-layer metric a span's self time belongs to."""
    if span.name in ("route_decode", "time_decode"):
        return _DECODES.get(span.attrs.get("level"), UNATTRIBUTED)
    return _BY_NAME.get(span.name, UNATTRIBUTED)


def self_times(roots: Iterable) -> Dict[str, float]:
    """Sum of span self times (ms) per metric over whole span trees."""
    totals = {metric: 0.0 for metric in SPAN_METRICS}
    for root in roots:
        for span in root.iter_spans():
            own = span.duration_ms - sum(c.duration_ms for c in span.children)
            totals[metric_of(span)] += own
    return totals
