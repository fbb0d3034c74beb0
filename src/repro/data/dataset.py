"""Dataset container, day-based splits and size buckets.

The paper filters to routes with n ≤ 20 locations / m ≤ 10 AOIs, splits
the 3 months into 65/17/10 days for train/val/test, and reports metrics
bucketed by route length: n ∈ (3, 10] and n ∈ (10, 20].
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .entities import RTPInstance

#: Paper's evaluation buckets: label -> (low, high] on n.
SIZE_BUCKETS: Dict[str, Tuple[int, int]] = {
    "(3-10]": (3, 10),
    "(10-20]": (10, 20),
    "all": (0, 10 ** 9),
}


class RTPDataset:
    """An ordered collection of :class:`RTPInstance` with split helpers."""

    def __init__(self, instances: Sequence[RTPInstance]):
        self.instances: List[RTPInstance] = list(instances)

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[RTPInstance]:
        return iter(self.instances)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RTPDataset(self.instances[index])
        return self.instances[index]

    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[RTPInstance], bool]) -> "RTPDataset":
        return RTPDataset([inst for inst in self.instances if predicate(inst)])

    def filter_paper_scope(self, max_locations: int = 20,
                           max_aois: int = 10) -> "RTPDataset":
        """The paper's training filter: n ≤ 20 and m ≤ 10."""
        return self.filter(
            lambda inst: inst.num_locations <= max_locations
            and inst.num_aois <= max_aois
        )

    def bucket(self, label: str) -> "RTPDataset":
        """Instances whose location count falls in a named size bucket."""
        if label not in SIZE_BUCKETS:
            raise KeyError(f"unknown bucket {label!r}; options: {sorted(SIZE_BUCKETS)}")
        low, high = SIZE_BUCKETS[label]
        return self.filter(lambda inst: low < inst.num_locations <= high)

    # ------------------------------------------------------------------
    def days(self) -> List[int]:
        return sorted({inst.day for inst in self.instances})

    def split_by_day(self, train_fraction: float = 0.65,
                     val_fraction: float = 0.20
                     ) -> Tuple["RTPDataset", "RTPDataset", "RTPDataset"]:
        """Chronological split, mirroring the paper's 65/17/10-day split."""
        days = self.days()
        if not days:
            raise ValueError("cannot split an empty dataset")
        n_train = max(1, int(round(len(days) * train_fraction)))
        n_val = max(1, int(round(len(days) * val_fraction)))
        train_days = set(days[:n_train])
        val_days = set(days[n_train:n_train + n_val])
        test_days = set(days[n_train + n_val:]) or {days[-1]}
        train = self.filter(lambda inst: inst.day in train_days)
        val = self.filter(lambda inst: inst.day in val_days)
        test = self.filter(lambda inst: inst.day in test_days)
        return train, val, test

    def shuffled(self, rng: np.random.Generator) -> "RTPDataset":
        order = rng.permutation(len(self.instances))
        return RTPDataset([self.instances[i] for i in order])

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Descriptive statistics matching the paper's Section V-A."""
        if not self.instances:
            return {"num_instances": 0}
        n_locations = np.array([inst.num_locations for inst in self.instances])
        n_aois = np.array([inst.num_aois for inst in self.instances])
        location_times = np.concatenate([inst.arrival_times for inst in self.instances])
        aoi_times = np.concatenate([inst.aoi_arrival_times for inst in self.instances])
        return {
            "num_instances": len(self.instances),
            "num_days": len(self.days()),
            "mean_locations": float(n_locations.mean()),
            "mean_aois": float(n_aois.mean()),
            "max_locations": int(n_locations.max()),
            "max_aois": int(n_aois.max()),
            "mean_location_arrival_min": float(location_times.mean()),
            "mean_aoi_arrival_min": float(aoi_times.mean()),
        }
