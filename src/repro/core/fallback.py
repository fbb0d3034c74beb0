"""Cheap degraded-mode predictor for the resilience layer.

When the learned model is unavailable — circuit breaker open, deadline
budget blown, queue shedding load — the service must still answer every
request (paper Section VI serves couriers live; an empty answer is
worse than a rough one).  :class:`FallbackPredictor` is that answer: a
distance-greedy route (chain the nearest unvisited location) with ETAs
from a single historical-average effective speed, the same shape as the
paper's Distance-Greedy baseline.  It runs in microseconds, uses no
autodiff, and cannot fail on well-formed requests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Fallback effective speed (metres/minute) when nothing was fitted.
DEFAULT_SPEED = 150.0


@dataclasses.dataclass
class FallbackPrediction:
    """Route permutation plus per-location arrival times (minutes)."""

    route: np.ndarray
    eta_minutes: np.ndarray


class FallbackPredictor:
    """Distance-greedy route + historical-average-speed ETA.

    Duck-typed over anything exposing ``courier_position``,
    ``locations`` (each with ``coord`` and ``distance_to``) and
    ``num_locations`` — i.e. both :class:`~repro.service.RTPRequest`
    and :class:`~repro.data.RTPInstance`.
    """

    def __init__(self, speed: float = DEFAULT_SPEED,
                 service_time: float = 0.0):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        self.speed = speed
        self.service_time = service_time

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, train, default: float = DEFAULT_SPEED,
                     service_time: float = 0.0) -> "FallbackPredictor":
        """Fit the effective speed from historical routes.

        Total chained route distance over total elapsed minutes — the
        historical average a single fixed-speed constant can capture.
        Falls back to ``default`` on empty or degenerate data.
        """
        total_distance = 0.0
        total_minutes = 0.0
        for instance in train:
            position = instance.courier_position
            for location_index in instance.route:
                location = instance.locations[int(location_index)]
                total_distance += location.distance_to(*position)
                position = location.coord
            if len(instance.arrival_times):
                total_minutes += float(np.max(instance.arrival_times))
        speed = total_distance / total_minutes if total_minutes > 0 else default
        return cls(speed=speed if speed > 0 else default,
                   service_time=service_time)

    # ------------------------------------------------------------------
    def predict(self, request) -> FallbackPrediction:
        """Nearest-unvisited greedy route with cumulative-travel ETAs."""
        n = request.num_locations
        remaining = set(range(n))
        position = request.courier_position
        route = np.empty(n, dtype=np.int64)
        etas = np.zeros(n)
        clock = 0.0
        for step in range(n):
            best = min(
                remaining,
                key=lambda i: request.locations[i].distance_to(*position),
            )
            location = request.locations[best]
            clock += location.distance_to(*position) / self.speed
            route[step] = best
            etas[best] = clock
            clock += self.service_time
            remaining.remove(best)
            position = location.coord
        return FallbackPrediction(route=route, eta_minutes=etas)
