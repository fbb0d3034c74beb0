"""Beam-search decoding for the pointer route decoder.

The paper decodes greedily (Eq. 31 takes the argmax at each step).
Beam search is the natural inference-time extension: keep the ``width``
most probable partial routes and return the complete route with the
highest total log-probability.  It reuses the trained
:class:`~repro.core.decoder.RouteDecoder` unchanged — only the search
strategy differs — so it can be toggled per query.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor, concat, no_grad
from .batching import GraphBatch
from .decoder import RouteDecoder
from .model import M2G4RTPOutput


@dataclasses.dataclass
class _Beam:
    """One partial route hypothesis."""

    log_prob: float
    route: List[int]
    visited: np.ndarray        # (1, n)
    state: object              # the recurrent cell's state
    previous: Optional[int]

    def key(self) -> Tuple[int, ...]:
        return tuple(self.route)


def beam_search_route(decoder: RouteDecoder, nodes: Tensor, courier: Tensor,
                      adjacency: Optional[np.ndarray] = None,
                      width: int = 4) -> Tuple[np.ndarray, float]:
    """Decode a route with beam search.

    Parameters
    ----------
    decoder:
        A trained :class:`RouteDecoder`.
    nodes / courier / adjacency:
        One instance as a batch of one, exactly as
        :meth:`RouteDecoder.forward_batch` takes them: ``(1, n, d)``
        nodes, a ``(1, c)`` courier and an optional ``(1, n, n)``
        adjacency.
    width:
        Beam width; ``width=1`` reduces to greedy decoding.

    Returns
    -------
    (route, log_prob):
        The best complete route and its total log probability.
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    n = nodes.shape[1]

    with no_grad():
        keys = decoder.attention.key_proj(nodes)
        beams = [_Beam(log_prob=0.0, route=[],
                       visited=np.zeros((1, n), dtype=bool),
                       state=decoder.recurrent.initial_state((1,)),
                       previous=None)]
        for _ in range(n):
            candidates: List[_Beam] = []
            for beam in beams:
                if beam.previous is None:
                    step_input, previous = decoder.start_token, None
                else:
                    step_input = nodes[:, beam.previous, :]
                    previous = np.array([beam.previous])
                h, new_state = decoder.recurrent.step(step_input, beam.state)
                query = concat([h, courier], axis=-1)
                mask = decoder._candidate_mask_batch(beam.visited, previous,
                                                     adjacency)
                log_probs = decoder.attention.log_probs_batch(
                    keys, query, mask).data[0]
                feasible = np.flatnonzero(mask[0])
                # Expand only the top-``width`` children of this beam —
                # more can never survive the global prune.
                order = feasible[np.argsort(log_probs[feasible])[::-1][:width]]
                for child in order:
                    visited = beam.visited.copy()
                    visited[0, child] = True
                    candidates.append(_Beam(
                        log_prob=beam.log_prob + float(log_probs[child]),
                        route=beam.route + [int(child)],
                        visited=visited,
                        state=new_state,
                        previous=int(child),
                    ))
            # Global prune to the best ``width`` hypotheses.
            candidates.sort(key=lambda b: -b.log_prob)
            # Deduplicate identical prefixes (can appear when two parents
            # expand into the same ordering).
            seen = set()
            beams = []
            for candidate in candidates:
                key = candidate.key()
                if key in seen:
                    continue
                seen.add(key)
                beams.append(candidate)
                if len(beams) == width:
                    break

    best = max(beams, key=lambda b: b.log_prob)
    return np.array(best.route, dtype=np.int64), best.log_prob


def beam_search_predict(model, graph, width: int = 4):
    """Full-model inference with beam-searched routes at both levels.

    Runs the encoder once on ``graph`` as a batch of one, beam-searches
    the AOI route (when the model has an AOI level), rebuilds the
    guidance inputs from that route, then beam-searches the location
    route and runs the SortLSTMs on the beam results.  Returns an
    :class:`~repro.core.model.M2G4RTPOutput`.
    """
    batch = GraphBatch.from_graphs([graph])
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            location_reps, aoi_reps = model.encoder.forward_batch(batch)
            courier = model._courier_batch(batch)

            aoi_routes = None
            aoi_times = None
            if model.config.use_aoi:
                aoi_route, _ = beam_search_route(
                    model.aoi_route_decoder, aoi_reps, courier,
                    adjacency=batch.aoi.adjacency, width=width)
                aoi_routes = aoi_route[None, :]
                aoi_times = model.aoi_time_decoder.forward_batch(
                    aoi_reps, aoi_routes, batch.aoi.lengths)
                location_inputs = model._guided_inputs(
                    batch, location_reps, aoi_routes, aoi_times)
            else:
                location_inputs = location_reps

            route, _ = beam_search_route(
                model.location_route_decoder, location_inputs, courier,
                adjacency=batch.location.adjacency, width=width)
            times = model.location_time_decoder.forward_batch(
                location_inputs, route[None, :], batch.location.lengths)

        scale = model.config.time_scale
        return M2G4RTPOutput(
            route=route[None, :],
            arrival_times=times.data * scale,
            aoi_route=aoi_routes,
            aoi_arrival_times=(aoi_times.data * scale
                               if aoi_times is not None else None),
        ).rows(batch)[0]
    finally:
        if was_training:
            model.train()
