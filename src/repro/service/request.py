"""Online RTP request shape (paper Section VI, Feature Extraction Layer).

An :class:`RTPRequest` is what the deployed system receives: a courier,
their position, the unvisited locations/AOIs and global context — no
labels.  It is duck-type compatible with the attributes
:class:`~repro.graphs.GraphBuilder` reads, so the same feature pipeline
serves both offline training and online inference.

:class:`ServingStage` is the contract every stage of the serving
pipeline implements: ``handle_batch(requests) -> responses``, with one
response per request in order.  A single request is a batch of one,
defined here once.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..data.entities import AOI, Courier, Location, RTPInstance


@dataclasses.dataclass
class RTPRequest:
    """A prediction query ``q = (u, t, x^g, V^l)`` (paper Section III-B)."""

    courier: Courier
    request_time: float
    courier_position: Tuple[float, float]
    locations: List[Location]
    aois: List[AOI]
    weather: int = 0
    weekday: int = 0

    def __post_init__(self) -> None:
        if not self.locations:
            raise ValueError("request has no locations")
        aoi_ids = {aoi.aoi_id for aoi in self.aois}
        for location in self.locations:
            if location.aoi_id not in aoi_ids:
                raise ValueError(
                    f"location {location.location_id} references AOI "
                    f"{location.aoi_id} that is not in the request")

    # -- GraphBuilder duck-type surface ---------------------------------
    @property
    def num_locations(self) -> int:
        return len(self.locations)

    @property
    def num_aois(self) -> int:
        return len(self.aois)

    def location_coords(self) -> np.ndarray:
        return np.array([loc.coord for loc in self.locations])

    def aoi_coords(self) -> np.ndarray:
        return np.array([aoi.center for aoi in self.aois])

    def aoi_index_of_location(self) -> np.ndarray:
        by_id: Dict[int, int] = {aoi.aoi_id: i for i, aoi in enumerate(self.aois)}
        return np.array([by_id[loc.aoi_id] for loc in self.locations],
                        dtype=np.int64)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_instance(instance: RTPInstance) -> "RTPRequest":
        """Strip the labels off an offline instance (for replay tests)."""
        return RTPRequest(
            courier=instance.courier,
            request_time=instance.request_time,
            courier_position=instance.courier_position,
            locations=list(instance.locations),
            aois=list(instance.aois),
            weather=instance.weather,
            weekday=instance.weekday,
        )


class ServingStage:
    """One stage of the serving pipeline (service, monitor, resilience,
    fault injection, modeled latency).

    Subclasses implement only ``handle_batch(requests)``, returning one
    response per request in order, and an empty batch is a no-op.
    """

    def handle(self, request: RTPRequest):
        """Answer one request as a batch of one."""
        return self.handle_batch([request])[0]
