"""Error analysis beyond the paper's aggregate tables.

Tools for understanding *where* a model's error lives:

* per-route-position error curves (does error accumulate along the
  route, the failure mode the paper attributes to two-step designs?);
* calibration of predicted vs. actual arrival times;
* metric breakdowns by instance attribute (weather, courier, size).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..data.entities import RTPInstance
from ..metrics import kendall_rank_correlation
from .evaluator import PredictFn


@dataclasses.dataclass
class PositionErrorCurve:
    """Mean |error| of the time prediction at each true route position."""

    positions: np.ndarray   # 1-indexed route positions
    mae: np.ndarray
    counts: np.ndarray

    def render(self, width: int = 40) -> str:
        peak = self.mae.max() if self.mae.size and self.mae.max() > 0 else 1.0
        lines = ["position   MAE(min)  n"]
        for position, value, count in zip(self.positions, self.mae, self.counts):
            bar = "#" * int(width * value / peak)
            lines.append(f"{position:8d} {value:9.2f} {count:4d}  {bar}")
        return "\n".join(lines)


def position_error_curve(predict: PredictFn,
                         instances: Sequence[RTPInstance],
                         max_position: int = 20) -> PositionErrorCurve:
    """Aggregate time error by the location's position in the true route."""
    sums = np.zeros(max_position)
    counts = np.zeros(max_position, dtype=np.int64)
    for instance in instances:
        _, times = predict(instance)
        ranks = instance.location_ranks()
        for location_index in range(instance.num_locations):
            position = int(ranks[location_index])
            if position >= max_position:
                continue
            error = abs(float(times[location_index])
                        - float(instance.arrival_times[location_index]))
            sums[position] += error
            counts[position] += 1
    mask = counts > 0
    return PositionErrorCurve(
        positions=np.arange(1, max_position + 1)[mask],
        mae=sums[mask] / counts[mask],
        counts=counts[mask],
    )


@dataclasses.dataclass
class CalibrationReport:
    """Linear calibration of predicted vs. actual arrival times."""

    slope: float
    intercept: float
    correlation: float
    mean_bias: float   # mean(predicted - actual); >0 means over-estimating

    def render(self) -> str:
        return (f"calibration: predicted ~= {self.slope:.2f} * actual "
                f"+ {self.intercept:.1f} (r={self.correlation:.2f}, "
                f"bias={self.mean_bias:+.1f} min)")


def calibration_report(predict: PredictFn,
                       instances: Sequence[RTPInstance]) -> CalibrationReport:
    """Fit ``predicted = slope * actual + intercept`` over all locations."""
    predicted: List[float] = []
    actual: List[float] = []
    for instance in instances:
        _, times = predict(instance)
        predicted.extend(float(t) for t in times)
        actual.extend(float(t) for t in instance.arrival_times)
    predicted_arr = np.asarray(predicted)
    actual_arr = np.asarray(actual)
    if predicted_arr.size < 2:
        raise ValueError("need at least two locations for calibration")
    slope, intercept = np.polyfit(actual_arr, predicted_arr, deg=1)
    correlation = float(np.corrcoef(actual_arr, predicted_arr)[0, 1])
    return CalibrationReport(
        slope=float(slope),
        intercept=float(intercept),
        correlation=correlation,
        mean_bias=float(np.mean(predicted_arr - actual_arr)),
    )


def breakdown_by(predict: PredictFn, instances: Sequence[RTPInstance],
                 key: Callable[[RTPInstance], object]
                 ) -> Dict[object, Dict[str, float]]:
    """KRC and time-MAE per group (e.g. ``key=lambda i: i.weather``)."""
    grouped: Dict[object, List[RTPInstance]] = defaultdict(list)
    for instance in instances:
        grouped[key(instance)].append(instance)

    result: Dict[object, Dict[str, float]] = {}
    for group, members in sorted(grouped.items(), key=lambda kv: str(kv[0])):
        krcs, maes = [], []
        for instance in members:
            route, times = predict(instance)
            krcs.append(kendall_rank_correlation(route, instance.route))
            maes.append(float(np.mean(np.abs(
                np.asarray(times) - instance.arrival_times))))
        result[group] = {
            "count": float(len(members)),
            "krc": float(np.mean(krcs)),
            "time_mae": float(np.mean(maes)),
        }
    return result


def format_breakdown(breakdown: Dict[object, Dict[str, float]],
                     label: str) -> str:
    """Render a :func:`breakdown_by` result as an aligned text table."""
    lines = [f"{label:>12s} {'n':>5s} {'KRC':>7s} {'timeMAE':>9s}"]
    for group, stats in breakdown.items():
        lines.append(f"{str(group):>12s} {int(stats['count']):5d} "
                     f"{stats['krc']:7.3f} {stats['time_mae']:9.2f}")
    return "\n".join(lines)
