"""Domain entities for the instant-logistics RTP problem.

Mirrors the paper's preliminaries (Section III): locations (Def. 1),
AOIs (Def. 2), couriers and RTP requests/instances (Section III-B).
All times are minutes; coordinates are (longitude, latitude) degrees.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

# Equirectangular metres-per-degree at Hangzhou latitude (~30.2 N).
_METERS_PER_DEG_LAT = 111_194.9
_METERS_PER_DEG_LON = 96_105.5


def geo_distance_meters(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Equirectangular distance in metres — accurate at city scale."""
    dx = (lon1 - lon2) * _METERS_PER_DEG_LON
    dy = (lat1 - lat2) * _METERS_PER_DEG_LAT
    return float(np.hypot(dx, dy))


def pairwise_distance_matrix(coords: np.ndarray) -> np.ndarray:
    """All-pairs equirectangular distances for an ``(n, 2)`` lon/lat array."""
    coords = np.asarray(coords, dtype=np.float64)
    dx = (coords[:, None, 0] - coords[None, :, 0]) * _METERS_PER_DEG_LON
    dy = (coords[:, None, 1] - coords[None, :, 1]) * _METERS_PER_DEG_LAT
    return np.hypot(dx, dy)


@dataclasses.dataclass(frozen=True)
class AOI:
    """Area Of Interest (paper Def. 2): ``a = (id, type, g^a)``."""

    aoi_id: int
    aoi_type: int
    center: Tuple[float, float]  # (lon, lat)

    def distance_to(self, lon: float, lat: float) -> float:
        return geo_distance_meters(self.center[0], self.center[1], lon, lat)


@dataclasses.dataclass(frozen=True)
class Location:
    """Pick-up location (paper Def. 1): ``l = (g^l, a^l, t_deadline)``.

    ``accept_time`` and ``deadline`` are minutes on the same clock as the
    instance's ``request_time``.
    """

    location_id: int
    coord: Tuple[float, float]  # (lon, lat)
    aoi_id: int
    accept_time: float
    deadline: float

    def distance_to(self, lon: float, lat: float) -> float:
        return geo_distance_meters(self.coord[0], self.coord[1], lon, lat)


@dataclasses.dataclass(frozen=True)
class Courier:
    """Courier profile — the global features of Eq. 17 plus behaviour knobs.

    ``speed`` is metres/minute. ``aoi_type_preference`` orders AOI types;
    it is the latent cause of the courier's high-level transfer mode and
    is *not* exposed as a model feature (models must learn it from
    routes, as in the real system).
    """

    courier_id: int
    speed: float
    working_hours: float
    attendance_rate: float
    service_time_mean: float
    aoi_type_preference: Tuple[int, ...]

    def profile_features(self) -> np.ndarray:
        """The courier's observable profile vector ``u`` (Eq. 28)."""
        return np.array([self.working_hours, self.speed, self.attendance_rate])


@dataclasses.dataclass
class RTPInstance:
    """One RTP sample: a request plus ground-truth route/time labels.

    Attributes
    ----------
    courier:
        The serving courier.
    request_time:
        Minutes-of-day when the prediction request fires (paper's ``t``).
    courier_position:
        Courier (lon, lat) at request time.
    locations:
        Unvisited locations, in *input* order (the indexing the route
        permutation refers to).
    aois:
        The distinct AOIs of those locations, in input order.
    route:
        ``route[j]`` = index into ``locations`` of the j-th visited
        location (paper Def. 4).
    arrival_times:
        ``arrival_times[i]`` = minutes from ``request_time`` until the
        courier arrives at ``locations[i]`` (paper Def. 5).
    aoi_route / aoi_arrival_times:
        The same at AOI level; an AOI's arrival time is the arrival at
        its first-visited location.
    weather / weekday:
        Global context codes (Eq. 17).
    """

    courier: Courier
    request_time: float
    courier_position: Tuple[float, float]
    locations: List[Location]
    aois: List[AOI]
    route: np.ndarray
    arrival_times: np.ndarray
    aoi_route: np.ndarray
    aoi_arrival_times: np.ndarray
    weather: int = 0
    weekday: int = 0
    day: int = 0

    def __post_init__(self) -> None:
        self.route = np.asarray(self.route, dtype=np.int64)
        self.arrival_times = np.asarray(self.arrival_times, dtype=np.float64)
        self.aoi_route = np.asarray(self.aoi_route, dtype=np.int64)
        self.aoi_arrival_times = np.asarray(self.aoi_arrival_times, dtype=np.float64)
        self.validate()

    # ------------------------------------------------------------------
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
        """Map each location index to the index of its AOI in ``aois``."""
        by_id: Dict[int, int] = {aoi.aoi_id: i for i, aoi in enumerate(self.aois)}
        return np.array([by_id[loc.aoi_id] for loc in self.locations], dtype=np.int64)

    def location_ranks(self) -> np.ndarray:
        """``ranks[i]`` = position of location ``i`` in the true route."""
        ranks = np.empty(self.num_locations, dtype=np.int64)
        ranks[self.route] = np.arange(self.num_locations)
        return ranks

    def aoi_ranks(self) -> np.ndarray:
        ranks = np.empty(self.num_aois, dtype=np.int64)
        ranks[self.aoi_route] = np.arange(self.num_aois)
        return ranks

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants every instance must satisfy."""
        n, m = self.num_locations, self.num_aois
        if n == 0:
            raise ValueError("instance has no locations")
        if sorted(self.route.tolist()) != list(range(n)):
            raise ValueError(f"route is not a permutation of 0..{n - 1}: {self.route}")
        if sorted(self.aoi_route.tolist()) != list(range(m)):
            raise ValueError(f"aoi_route is not a permutation of 0..{m - 1}")
        if self.arrival_times.shape != (n,):
            raise ValueError("arrival_times length mismatch")
        if self.aoi_arrival_times.shape != (m,):
            raise ValueError("aoi_arrival_times length mismatch")
        if np.any(self.arrival_times < 0) or np.any(self.aoi_arrival_times < 0):
            raise ValueError("arrival times must be non-negative minutes from request")
        aoi_ids = {aoi.aoi_id for aoi in self.aois}
        for loc in self.locations:
            if loc.aoi_id not in aoi_ids:
                raise ValueError(f"location {loc.location_id} references unknown AOI {loc.aoi_id}")

    def describe(self) -> str:
        return (
            f"RTPInstance(courier={self.courier.courier_id}, n={self.num_locations}, "
            f"m={self.num_aois}, t={self.request_time:.0f}, day={self.day})"
        )
