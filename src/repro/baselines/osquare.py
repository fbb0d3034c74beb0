"""OSquare baseline (Zhang et al., 2019): tree model, one step at a time.

Route prediction: a boosted-tree classifier scores every unvisited
candidate as "is this the next location?" given the courier's current
position and the candidate's spatio-temporal features; the route is
generated recurrently by taking the top-scored candidate.  Time
prediction: a second boosted-tree regressor (trained separately, as in
the paper) maps route-position features to arrival minutes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.dataset import RTPDataset
from ..data.entities import RTPInstance
from .base import BaselinePrediction, RTPBaseline
from .gbdt import GBDTBinaryClassifier, GBDTRegressor

_KM = 1000.0
_HOUR = 60.0


def _candidate_features(instance: RTPInstance, candidate: int,
                        position: Tuple[float, float], step: int,
                        remaining: int, previous_aoi: Optional[int]) -> List[float]:
    """Features describing one next-location candidate at one step."""
    location = instance.locations[candidate]
    t = instance.request_time
    return [
        location.distance_to(*position) / _KM,
        (location.deadline - t) / _HOUR,
        (t - location.accept_time) / _HOUR,
        location.distance_to(*instance.courier_position) / _KM,
        1.0 if previous_aoi is not None and location.aoi_id == previous_aoi else 0.0,
        float(step),
        float(remaining),
        float(instance.num_locations),
        instance.courier.speed / 300.0,
    ]


def _time_features(instance: RTPInstance, location_index: int, position: int,
                   cumulative_km: float, leg_km: float) -> List[float]:
    """Features for arrival-time regression of one routed location."""
    location = instance.locations[location_index]
    t = instance.request_time
    return [
        float(position),
        cumulative_km,
        leg_km,
        (location.deadline - t) / _HOUR,
        float(instance.num_locations),
        float(instance.num_aois),
        instance.courier.speed / 300.0,
        instance.courier.service_time_mean / 10.0,
        float(instance.weather),
    ]


class OSquare(RTPBaseline):
    """XGBoost-style next-location ranking plus separate time regression."""

    name = "OSquare"

    def __init__(self, n_estimators: int = 40, max_depth: int = 4,
                 learning_rate: float = 0.15, max_negatives: int = 6,
                 seed: int = 0):
        self.route_model = GBDTBinaryClassifier(
            n_estimators=n_estimators, max_depth=max_depth,
            learning_rate=learning_rate)
        self.time_model = GBDTRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            learning_rate=learning_rate)
        self.max_negatives = max_negatives
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def fit(self, train: RTPDataset,
            validation: Optional[RTPDataset] = None) -> "OSquare":
        route_rows, route_labels = [], []
        time_rows, time_targets = [], []
        for instance in train:
            position = instance.courier_position
            previous_aoi: Optional[int] = None
            unvisited = set(range(instance.num_locations))
            cumulative_km = 0.0
            for step, true_next in enumerate(instance.route):
                true_next = int(true_next)
                remaining = len(unvisited)
                # Positive example plus a sample of negatives per step.
                negatives = [c for c in unvisited if c != true_next]
                if len(negatives) > self.max_negatives:
                    negatives = list(self._rng.choice(
                        negatives, size=self.max_negatives, replace=False))
                for candidate, label in [(true_next, 1.0)] + [
                        (c, 0.0) for c in negatives]:
                    route_rows.append(_candidate_features(
                        instance, candidate, position, step, remaining,
                        previous_aoi))
                    route_labels.append(label)

                leg_km = instance.locations[true_next].distance_to(*position) / _KM
                cumulative_km += leg_km
                time_rows.append(_time_features(
                    instance, true_next, step, cumulative_km, leg_km))
                time_targets.append(float(instance.arrival_times[true_next]))

                unvisited.remove(true_next)
                previous_aoi = instance.locations[true_next].aoi_id
                position = instance.locations[true_next].coord

        self.route_model.fit(np.array(route_rows), np.array(route_labels))
        self.time_model.fit(np.array(time_rows), np.array(time_targets))
        return self

    # ------------------------------------------------------------------
    def predict(self, instance: RTPInstance) -> BaselinePrediction:
        n = instance.num_locations
        position = instance.courier_position
        previous_aoi: Optional[int] = None
        unvisited = list(range(n))
        route = np.empty(n, dtype=np.int64)
        time_rows = []
        cumulative_km = 0.0
        for step in range(n):
            rows = np.array([
                _candidate_features(instance, candidate, position, step,
                                    len(unvisited), previous_aoi)
                for candidate in unvisited
            ])
            scores = self.route_model.decision_function(rows)
            chosen = unvisited[int(np.argmax(scores))]
            route[step] = chosen

            leg_km = instance.locations[chosen].distance_to(*position) / _KM
            cumulative_km += leg_km
            time_rows.append(_time_features(
                instance, chosen, step, cumulative_km, leg_km))

            unvisited.remove(chosen)
            previous_aoi = instance.locations[chosen].aoi_id
            position = instance.locations[chosen].coord

        times_by_step = self.time_model.predict(np.array(time_rows))
        arrival_times = np.zeros(n)
        arrival_times[route] = times_by_step
        return BaselinePrediction(route=route, arrival_times=arrival_times)
