"""Bucketed evaluation harness producing the paper's table rows.

Tables III/IV report every method on three size buckets: n ∈ (3, 10],
n ∈ (10, 20] and all.  :func:`evaluate_method` runs one predictor over
a test set and aggregates the six metrics per bucket.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..baselines.base import RTPBaseline
from ..core.batching import BatchedM2G4RTP
from ..core.model import M2G4RTP
from ..data.dataset import RTPDataset, SIZE_BUCKETS
from ..data.entities import RTPInstance
from ..graphs import GraphBuilder
from ..metrics import (
    MetricReport,
    RoutePrediction,
    TimePrediction,
    combined_report,
)

#: ``predict(instance) -> (route, arrival_times)``.
PredictFn = Callable[[RTPInstance], Tuple[np.ndarray, np.ndarray]]


def baseline_predictor(baseline: RTPBaseline) -> PredictFn:
    """Adapt an :class:`RTPBaseline` to the evaluator's callable shape."""
    def predict(instance: RTPInstance):
        prediction = baseline.predict(instance)
        return prediction.route, prediction.arrival_times
    return predict


def model_predictor(model: M2G4RTP,
                    builder: Optional[GraphBuilder] = None) -> PredictFn:
    """Adapt a trained :class:`M2G4RTP` to the evaluator's callable shape.

    Each instance is answered as a batch of one by the kernel-backed
    :class:`BatchedM2G4RTP` engine, the path ``RTPService.handle``
    serves (routes identical to ``model.predict``, ETAs within 1e-6).
    """
    builder = builder or GraphBuilder(num_aoi_ids=model.config.num_aoi_ids)
    engine = BatchedM2G4RTP(model)

    def predict(instance: RTPInstance):
        output = engine.predict([builder.build(instance)])[0]
        return output.route, output.arrival_times
    return predict


@dataclasses.dataclass
class MethodEvaluation:
    """Six-metric reports for one method across the paper's buckets."""

    name: str
    buckets: Dict[str, MetricReport]

    def row(self, bucket: str, kind: str) -> str:
        report = self.buckets[bucket]
        return report.route_row() if kind == "route" else report.time_row()


def evaluate_method(name: str, predict: PredictFn, test: RTPDataset,
                    buckets: Sequence[str] = ("(3-10]", "(10-20]", "all")
                    ) -> MethodEvaluation:
    """Evaluate one predictor on every requested size bucket.

    Predictions are computed once per instance and re-aggregated per
    bucket, so expensive models are not re-run.
    """
    predictions = {}
    for index, instance in enumerate(test):
        route, times = predict(instance)
        predictions[index] = (np.asarray(route), np.asarray(times))

    reports: Dict[str, MetricReport] = {}
    for bucket in buckets:
        low, high = SIZE_BUCKETS[bucket]
        route_preds, time_preds = [], []
        for index, instance in enumerate(test):
            if not low < instance.num_locations <= high:
                continue
            route, times = predictions[index]
            route_preds.append(RoutePrediction(route, instance.route))
            time_preds.append(TimePrediction(times, instance.arrival_times))
        if route_preds:
            reports[bucket] = combined_report(route_preds, time_preds)
    return MethodEvaluation(name=name, buckets=reports)


def format_table(evaluations: Sequence[MethodEvaluation], kind: str,
                 buckets: Sequence[str] = ("(3-10]", "(10-20]", "all")) -> str:
    """Render Table III (kind='route') or Table IV (kind='time')."""
    if kind == "route":
        header_metrics = "HR@3    KRC    LSD"
    elif kind == "time":
        header_metrics = "RMSE    MAE    acc@20"
    else:
        raise ValueError(f"kind must be 'route' or 'time', got {kind!r}")
    lines = []
    bucket_header = "".join(f"{bucket:^24}" for bucket in buckets)
    lines.append(f"{'Method':16s}{bucket_header}")
    lines.append(f"{'':16s}" + "".join(f"{header_metrics:^24}" for _ in buckets))
    for evaluation in evaluations:
        cells = []
        for bucket in buckets:
            if bucket in evaluation.buckets:
                cells.append(f"{evaluation.row(bucket, kind):^24}")
            else:
                cells.append(f"{'--':^24}")
        lines.append(f"{evaluation.name:16s}" + "".join(cells))
    return "\n".join(lines)
