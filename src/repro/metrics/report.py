"""Aggregation of per-instance predictions into the paper's table rows.

Route metrics (HR@3, KRC, LSD) are computed per instance and averaged;
time metrics (RMSE, MAE, acc@20) are pooled over every location of
every instance — matching the paper's per-location formulation of
Eq. 45.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

import numpy as np

from .route import hit_rate_at_k, kendall_rank_correlation, location_square_deviation
from .time import accuracy_within, mae, rmse


@dataclasses.dataclass
class RoutePrediction:
    """A route prediction paired with its ground truth."""

    predicted: np.ndarray
    actual: np.ndarray


@dataclasses.dataclass
class TimePrediction:
    """Per-location arrival-time predictions paired with ground truth."""

    predicted: np.ndarray
    actual: np.ndarray


@dataclasses.dataclass
class MetricReport:
    """One table cell block: the six paper metrics.

    HR@3 and acc@20 are in percent, as printed in Tables III/IV.
    """

    hr_at_3: float
    krc: float
    lsd: float
    rmse: float
    mae: float
    acc_at_20: float
    num_instances: int

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)

    def route_row(self) -> str:
        return f"{self.hr_at_3:6.2f}  {self.krc:5.2f}  {self.lsd:6.2f}"

    def time_row(self) -> str:
        return f"{self.rmse:6.2f}  {self.mae:6.2f}  {self.acc_at_20:6.2f}"


def evaluate_route_predictions(predictions: Sequence[RoutePrediction],
                               k: int = 3) -> Dict[str, float]:
    """Average HR@k / KRC / LSD over instances (HR in percent)."""
    if not predictions:
        raise ValueError("no route predictions to evaluate")
    hits = [hit_rate_at_k(p.predicted, p.actual, k) for p in predictions]
    krcs = [kendall_rank_correlation(p.predicted, p.actual) for p in predictions]
    lsds = [location_square_deviation(p.predicted, p.actual) for p in predictions]
    return {
        f"hr@{k}": 100.0 * float(np.mean(hits)),
        "krc": float(np.mean(krcs)),
        "lsd": float(np.mean(lsds)),
    }


def evaluate_time_predictions(predictions: Sequence[TimePrediction],
                              threshold: float = 20.0) -> Dict[str, float]:
    """Pool per-location errors across instances (acc in percent)."""
    if not predictions:
        raise ValueError("no time predictions to evaluate")
    predicted = np.concatenate([np.asarray(p.predicted) for p in predictions])
    actual = np.concatenate([np.asarray(p.actual) for p in predictions])
    return {
        "rmse": rmse(predicted, actual),
        "mae": mae(predicted, actual),
        f"acc@{threshold:.0f}": 100.0 * accuracy_within(predicted, actual, threshold),
    }


def combined_report(route_predictions: Sequence[RoutePrediction],
                    time_predictions: Sequence[TimePrediction]) -> MetricReport:
    """Build the six-metric block used throughout the benchmarks."""
    route = evaluate_route_predictions(route_predictions)
    time = evaluate_time_predictions(time_predictions)
    return MetricReport(
        hr_at_3=route["hr@3"],
        krc=route["krc"],
        lsd=route["lsd"],
        rmse=time["rmse"],
        mae=time["mae"],
        acc_at_20=time["acc@20"],
        num_instances=len(route_predictions),
    )
