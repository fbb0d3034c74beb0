"""Route post-processing and sampling-based uncertainty.

* :func:`enforce_aoi_contiguity` — repair operator motivated by the
  paper's first case study: real couriers finish an AOI before moving
  on, so a predicted route that bounces between AOIs (as Graph2Route's
  did in Fig. 6) can be repaired by grouping each AOI's locations at
  the position of its first occurrence, preserving within-AOI order.
* :func:`sample_route` / :func:`predict_with_uncertainty` —
  temperature sampling from the pointer decoder produces a route
  *distribution*; running SortLSTM on each sample yields an ETA
  distribution whose spread is a usable per-location uncertainty
  estimate (useful for the minute-level ETA product: wide intervals →
  fall back to a coarser promise).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, concat, no_grad
from .batching import GraphBatch
from .decoder import RouteDecoder


def enforce_aoi_contiguity(route: Sequence[int],
                           aoi_of: Sequence[int]) -> np.ndarray:
    """Reorder a route so each AOI's locations are contiguous.

    AOIs keep the order of their first appearance in the input route;
    locations keep their relative order within each AOI.  A route that
    is already AOI-contiguous is returned unchanged.
    """
    route = np.asarray(route, dtype=np.int64)
    aoi_of = np.asarray(aoi_of, dtype=np.int64)
    if sorted(route.tolist()) != list(range(route.size)):
        raise ValueError("route must be a permutation of node indices")
    aoi_order: List[int] = []
    members: dict = {}
    for node in route:
        aoi = int(aoi_of[node])
        if aoi not in members:
            members[aoi] = []
            aoi_order.append(aoi)
        members[aoi].append(int(node))
    repaired = [node for aoi in aoi_order for node in members[aoi]]
    return np.asarray(repaired, dtype=np.int64)


def sample_route(decoder: RouteDecoder, nodes: Tensor, courier: Tensor,
                 rng: np.random.Generator,
                 adjacency: Optional[np.ndarray] = None,
                 temperature: float = 1.0) -> np.ndarray:
    """Sample one route from the decoder's step distributions.

    ``nodes`` / ``courier`` / ``adjacency`` are one instance as a batch
    of one, exactly as :meth:`RouteDecoder.forward_batch` takes them.
    ``temperature`` < 1 sharpens toward greedy; > 1 flattens.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    n = nodes.shape[1]
    visited = np.zeros((1, n), dtype=bool)
    step_input = decoder.start_token
    previous: Optional[np.ndarray] = None
    route = np.empty(n, dtype=np.int64)
    with no_grad():
        keys = decoder.attention.key_proj(nodes)
        state = decoder.recurrent.initial_state((1,))
        for step in range(n):
            h, state = decoder.recurrent.step(step_input, state)
            query = concat([h, courier], axis=-1)
            mask = decoder._candidate_mask_batch(visited, previous, adjacency)
            log_probs = decoder.attention.log_probs_batch(
                keys, query, mask).data[0]
            scaled = log_probs / temperature
            scaled = scaled - scaled.max()
            probs = np.where(mask[0], np.exp(scaled), 0.0)
            probs /= probs.sum()
            chosen = int(rng.choice(n, p=probs))
            route[step] = chosen
            visited[0, chosen] = True
            previous = np.array([chosen])
            step_input = nodes[:, chosen, :]
    return route


@dataclasses.dataclass
class UncertaintyPrediction:
    """Monte-Carlo prediction: modal route plus per-location ETA spread."""

    route: np.ndarray                # modal (most frequent first-step) sample
    eta_mean: np.ndarray             # minutes, per location
    eta_std: np.ndarray              # minutes, per location
    eta_low: np.ndarray              # 10th percentile
    eta_high: np.ndarray             # 90th percentile
    num_samples: int


def predict_with_uncertainty(model, graph, num_samples: int = 16,
                             temperature: float = 1.0,
                             seed: int = 0) -> UncertaintyPrediction:
    """Monte-Carlo joint prediction.

    Samples ``num_samples`` location routes (conditioned on the greedy
    AOI-level guidance), runs the time decoder on each, and aggregates
    the per-location ETA distribution.
    """
    if num_samples < 2:
        raise ValueError("need at least two samples for a spread estimate")
    cfg = model.config
    rng = np.random.default_rng(seed)
    batch = GraphBatch.from_graphs([graph])
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            location_reps, aoi_reps = model.encoder.forward_batch(batch)
            courier = model._courier_batch(batch)
            if cfg.use_aoi:
                aoi_routes, _ = model.aoi_route_decoder.forward_batch(
                    aoi_reps, courier, batch.aoi.lengths,
                    adjacency=batch.aoi.adjacency)
                aoi_times = model.aoi_time_decoder.forward_batch(
                    aoi_reps, aoi_routes, batch.aoi.lengths)
                location_inputs = model._guided_inputs(
                    batch, location_reps, aoi_routes, aoi_times)
            else:
                location_inputs = location_reps

            samples = []
            times = []
            for _ in range(num_samples):
                route = sample_route(
                    model.location_route_decoder, location_inputs, courier,
                    rng, adjacency=batch.location.adjacency,
                    temperature=temperature)
                eta = model.location_time_decoder.forward_batch(
                    location_inputs, route[None, :], batch.location.lengths)
                samples.append(route)
                times.append(eta.data[0] * cfg.time_scale)
    finally:
        if was_training:
            model.train()

    times_arr = np.stack(times)
    # Modal route: the sample with the highest agreement to the others
    # (mean pairwise position agreement).
    agreement = np.zeros(num_samples)
    routes_arr = np.stack(samples)
    for i in range(num_samples):
        agreement[i] = np.mean(routes_arr == routes_arr[i])
    modal = routes_arr[int(np.argmax(agreement))]
    return UncertaintyPrediction(
        route=modal,
        eta_mean=times_arr.mean(axis=0),
        eta_std=times_arr.std(axis=0),
        eta_low=np.percentile(times_arr, 10, axis=0),
        eta_high=np.percentile(times_arr, 90, axis=0),
        num_samples=num_samples,
    )
