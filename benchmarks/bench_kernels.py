"""Reference-vs-fused kernel latency for the no-grad hot paths.

Measures each dispatched kernel stage on a prebuilt :class:`GraphBatch`
(the shape the serving path actually sees, with guidance inputs already
constructed) under both ``kernels`` backends:

* ``gat_encoder``   — multi-level GAT-e encoder ``forward_batch``;
* ``pointer_decode``— location-level greedy route decode;
* ``sort_rnn``      — location-level arrival-time decode;
* ``aoi_route_decode`` / ``aoi_time_decode`` — the AOI-level decodes;
* ``lstm_unroll``   — raw recurrent unroll kernel on synthetic inputs;
* ``encoder+decode``— the sum of the five dispatched stages (encoder,
  AOI route/time decode, location route/time decode): the serving hot
  path with backend-independent glue excluded;
* ``end_to_end``    — the full ``BatchedM2G4RTP._predict`` stage chain,
  including the per-instance guidance construction that runs in plain
  Python regardless of backend.

Each stage is timed as the minimum over ``--rounds`` rounds of
``--iters`` calls (min-of-rounds suppresses allocator/scheduler noise).
Before timing, the two backends' full predictions are compared — exact
routes, 1e-8 ETAs — and any mismatch fails the run (exit code 1), so a
fast-but-wrong kernel can never publish a number.

Writes the table to ``benchmarks/results/kernels.txt`` (``_smoke``
suffix in smoke mode).  Run ``--smoke`` for a <10 s CI-sized run.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Callable, Dict, List

import numpy as np

from repro import kernels
from repro.autodiff import Tensor, concat, no_grad, padded_gather
from repro.core import BatchedM2G4RTP, GraphBatch, M2G4RTP, M2G4RTPConfig
from repro.core.decoder import positional_guidance
from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.graphs import GraphBuilder
from repro.nn import LSTMCell

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def build_batches(batch_sizes: List[int], seed: int = 123) -> Dict[int, tuple]:
    """One GraphBatch (plus its raw graphs) per requested batch size."""
    config = GeneratorConfig(num_aois=40, num_couriers=4, num_days=6,
                             instances_per_courier_day=2, seed=seed)
    instances = list(RTPDataset(SyntheticWorld(config).generate()))
    builder = GraphBuilder(k_neighbors=3)
    out = {}
    for size in batch_sizes:
        graphs = [builder.build(instances[i % len(instances)])
                  for i in range(size)]
        out[size] = (GraphBatch.from_graphs(graphs), graphs)
    return out


def prepare_stage_inputs(model: M2G4RTP, batch: GraphBatch) -> Dict[str, object]:
    """Replicate ``BatchedM2G4RTP._predict`` up to the location stages.

    The location decoders consume guidance-concatenated inputs (encoder
    reps + AOI positional guidance + per-location ETA), so timing them
    in isolation requires the same construction the serving path does.
    """
    cfg = model.config
    size = len(batch)
    n = batch.location.max_nodes
    with no_grad(), kernels.backend_scope("reference"):
        location_reps, aoi_reps = model.encoder.forward_batch(batch)
        courier_embed = model.courier_embedding(
            batch.courier_ids % cfg.num_couriers)
        courier = concat([courier_embed, Tensor(batch.courier_profiles)],
                         axis=-1)
        aoi_routes = model.aoi_route_decoder.forward_batch(
            aoi_reps, courier, batch.aoi.lengths,
            adjacency=batch.aoi.adjacency)
        aoi_times = model.aoi_time_decoder.forward_batch(
            aoi_reps, aoi_routes, batch.aoi.lengths)
        positions = np.zeros((size, batch.aoi.max_nodes, cfg.position_dim))
        for b in range(size):
            m_b = int(batch.aoi.lengths[b])
            positions[b, :m_b] = positional_guidance(
                aoi_routes[b, :m_b], cfg.position_dim)
        per_location_positions = positions[
            np.arange(size)[:, None], batch.aoi_of_location]
        per_location_eta = padded_gather(
            aoi_times, batch.aoi_of_location, valid=batch.location.mask)
        location_inputs = concat(
            [location_reps, Tensor(per_location_positions),
             per_location_eta.reshape(size, n, 1)], axis=-1)
        routes = model.location_route_decoder.forward_batch(
            location_inputs, courier, batch.location.lengths,
            adjacency=batch.location.adjacency)
    return {"courier": courier, "aoi_reps": aoi_reps,
            "aoi_routes": aoi_routes, "location_inputs": location_inputs,
            "routes": routes}


def time_stage(fn: Callable[[], object], iters: int, rounds: int) -> float:
    """Minimum per-call milliseconds over ``rounds`` rounds of ``iters``."""
    fn()  # warm-up: position tables, BLAS threads
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best * 1000.0


def check_parity(engine: BatchedM2G4RTP, graphs) -> bool:
    with kernels.backend_scope("reference"):
        ref = engine.predict(graphs)
    with kernels.backend_scope("fused"):
        fus = engine.predict(graphs)
    for a, b in zip(ref, fus):
        if not np.array_equal(a.route, b.route):
            return False
        if np.max(np.abs(a.arrival_times - b.arrival_times)) > 1e-8:
            return False
        if a.aoi_route is not None and not np.array_equal(a.aoi_route,
                                                          b.aoi_route):
            return False
    return True


def run(batch_sizes: List[int], iters: int = 30, rounds: int = 5,
        smoke: bool = False) -> str:
    """Execute the benchmark; returns the rendered report."""
    if smoke:
        iters = min(iters, 10)
        rounds = min(rounds, 3)

    model = M2G4RTP(M2G4RTPConfig(hidden_dim=32, num_heads=4,
                                  num_encoder_layers=2, seed=11))
    model.eval()
    engine = BatchedM2G4RTP(model)
    batches = build_batches(batch_sizes)

    lines = [
        "Fused kernels — reference vs fused backend latency (ms/call, "
        "min over rounds)",
        f"mode={'smoke' if smoke else 'full'}  iters={iters}  "
        f"rounds={rounds}  hidden_dim=32 heads=4 layers=2",
        "",
        f"{'stage':<18}{'batch':>6}{'reference':>12}{'fused':>10}"
        f"{'speedup':>9}",
    ]
    parity_ok = True
    e2e_speedups = []
    for size in batch_sizes:
        batch, graphs = batches[size]
        if not check_parity(engine, graphs):
            parity_ok = False
        prepared = prepare_stage_inputs(model, batch)

        def encoder_stage():
            return model.encoder.forward_batch(batch)

        def aoi_route_stage():
            return model.aoi_route_decoder.forward_batch(
                prepared["aoi_reps"], prepared["courier"],
                batch.aoi.lengths, adjacency=batch.aoi.adjacency)

        def aoi_time_stage():
            return model.aoi_time_decoder.forward_batch(
                prepared["aoi_reps"], prepared["aoi_routes"],
                batch.aoi.lengths)

        def pointer_stage():
            return model.location_route_decoder.forward_batch(
                prepared["location_inputs"], prepared["courier"],
                batch.location.lengths, adjacency=batch.location.adjacency)

        def sort_stage():
            return model.location_time_decoder.forward_batch(
                prepared["location_inputs"], prepared["routes"],
                batch.location.lengths)

        def end_to_end_stage():
            return engine._predict(batch)

        cell = LSTMCell(32, 32, np.random.default_rng(0))
        unroll_input = np.random.default_rng(1).normal(
            size=(size, batch.location.max_nodes, 32))

        def unroll_stage():
            return kernels.active().lstm_unroll(cell, unroll_input)

        # The five dispatched kernel stages; their per-backend sum is the
        # "encoder+decode" hot path (glue code excluded on both sides).
        kernel_stages = [("gat_encoder", encoder_stage),
                         ("aoi_route_decode", aoi_route_stage),
                         ("aoi_time_decode", aoi_time_stage),
                         ("pointer_decode", pointer_stage),
                         ("sort_rnn", sort_stage)]
        path_totals = {"reference": 0.0, "fused": 0.0}
        for name, fn in kernel_stages + [("lstm_unroll", unroll_stage),
                                         ("end_to_end", end_to_end_stage)]:
            timings = {}
            for backend in ("reference", "fused"):
                with no_grad(), kernels.backend_scope(backend):
                    timings[backend] = time_stage(fn, iters, rounds)
            if (name, fn) in kernel_stages:
                for backend in path_totals:
                    path_totals[backend] += timings[backend]
            speedup = timings["reference"] / timings["fused"]
            lines.append(f"{name:<18}{size:>6}{timings['reference']:>12.3f}"
                         f"{timings['fused']:>10.3f}{speedup:>8.2f}x")
        path_speedup = path_totals["reference"] / path_totals["fused"]
        e2e_speedups.append(path_speedup)
        lines.append(f"{'encoder+decode':<18}{size:>6}"
                     f"{path_totals['reference']:>12.3f}"
                     f"{path_totals['fused']:>10.3f}{path_speedup:>8.2f}x")
        lines.append("")

    lines.append(f"encoder+decode speedups: "
                 + "  ".join(f"bs={s}: {x:.2f}x"
                             for s, x in zip(batch_sizes, e2e_speedups)))
    lines.append("route/eta parity (exact route, 1e-8 eta): "
                 + ("OK" if parity_ok else "FAILED"))
    report = "\n".join(lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    filename = "kernels_smoke.txt" if smoke else "kernels.txt"
    (RESULTS_DIR / filename).write_text(report + "\n")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run that finishes in <10 s")
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[1, 4, 8])
    parser.add_argument("--iters", type=int, default=30)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if any(b < 1 for b in args.batch_sizes):
        parser.error("--batch-sizes entries must be >= 1")
    report = run(batch_sizes=args.batch_sizes, iters=args.iters,
                 rounds=args.rounds, smoke=args.smoke)
    print(report)
    return 0 if "FAILED" not in report else 1


if __name__ == "__main__":
    raise SystemExit(main())
