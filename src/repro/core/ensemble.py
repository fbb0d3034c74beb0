"""Model ensembling: rank-aggregated routes and averaged ETAs.

Production serving commonly ensembles a few independently trained
models.  Routes are permutations, so they cannot be averaged directly;
we aggregate them with a Borda count (each member votes ``n - position``
points for every node) which yields a consensus permutation, and we
average the members' per-location ETAs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..graphs import MultiLevelGraph
from .batching import BatchedM2G4RTP
from .model import M2G4RTP, M2G4RTPOutput


def borda_aggregate(routes: Sequence[np.ndarray]) -> np.ndarray:
    """Consensus permutation from member routes via Borda count.

    Ties break toward the order of the first member (stable argsort of
    negated scores).
    """
    if not routes:
        raise ValueError("need at least one route to aggregate")
    n = len(routes[0])
    scores = np.zeros(n)
    for route in routes:
        route = np.asarray(route)
        if sorted(route.tolist()) != list(range(n)):
            raise ValueError("all routes must be permutations of equal length")
        for position, node in enumerate(route):
            scores[int(node)] += n - position
    first = np.asarray(routes[0])
    first_rank = np.empty(n)
    first_rank[first] = np.arange(n)
    # Sort by descending score; break ties by the first member's order.
    order = sorted(range(n), key=lambda i: (-scores[i], first_rank[i]))
    return np.asarray(order, dtype=np.int64)


class EnsemblePredictor:
    """Joint prediction from several trained :class:`M2G4RTP` models.

    Members answer through the kernel-backed :class:`BatchedM2G4RTP`
    engine as batches of one, like ``RTPService.handle``.
    """

    def __init__(self, models: Sequence[M2G4RTP]):
        if not models:
            raise ValueError("ensemble needs at least one model")
        self.models: List[M2G4RTP] = list(models)
        self._engines = [BatchedM2G4RTP(model) for model in self.models]

    def predict(self, graph: MultiLevelGraph) -> M2G4RTPOutput:
        outputs = [engine.predict([graph])[0] for engine in self._engines]
        route = borda_aggregate([output.route for output in outputs])
        times = np.mean([output.arrival_times for output in outputs], axis=0)
        if outputs[0].aoi_route is not None:
            aoi_route = borda_aggregate(
                [output.aoi_route for output in outputs])
            aoi_times = np.mean(
                [output.aoi_arrival_times for output in outputs], axis=0)
        else:
            aoi_route = None
            aoi_times = None
        return M2G4RTPOutput(
            route=route,
            arrival_times=times,
            aoi_route=aoi_route,
            aoi_arrival_times=aoi_times,
        )

    def __len__(self) -> int:
        return len(self.models)
