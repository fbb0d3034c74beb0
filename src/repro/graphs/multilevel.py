"""Multi-level graph construction (paper Definition 3 and Eqs. 12-17).

:class:`GraphBuilder` turns an :class:`~repro.data.entities.RTPInstance`
into a :class:`MultiLevelGraph`: location-level and AOI-level node /
edge feature tensors, k-NN connectivity, the location→AOI affiliation
map, courier profile features and global context features.

Feature scaling: distances are expressed in kilometres, times in hours
relative to the request time, so every continuous feature is O(1) and
the models need no per-dataset normalisation pass.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..data.entities import RTPInstance, pairwise_distance_matrix
from .knn import connectivity_matrix

#: Scale constants shared by every feature producer.
_KM = 1_000.0
_HOUR = 60.0
_SPEED_SCALE = 300.0  # metres/minute, a fast courier
_HOURS_SCALE = 10.0

#: Names of the location-level continuous node features (Eq. 12).
LOCATION_NODE_FEATURES = (
    "lon_offset_km", "lat_offset_km", "dist_to_courier_km",
    "since_accept_h", "deadline_h", "slack_h",
)
#: Names of the AOI-level continuous node features (Eq. 13).
AOI_NODE_FEATURES = (
    "lon_offset_km", "lat_offset_km", "dist_to_courier_km",
    "earliest_deadline_h", "slack_h", "member_count",
)
#: Edge features at both levels (Eqs. 14/16).
EDGE_FEATURES = ("dist_km", "deadline_gap_h", "connectivity")

#: Global continuous features (Eq. 17) and discrete ones.
GLOBAL_CONTINUOUS = ("working_hours", "speed", "attendance")
GLOBAL_DISCRETE = ("weather", "weekday")


@dataclasses.dataclass
class LevelGraph:
    """One level (location or AOI) of the multi-level graph."""

    continuous: np.ndarray        # (n, d_cont)
    discrete: np.ndarray          # (n, 2): [aoi_id, aoi_type]
    edge_features: np.ndarray     # (n, n, 3)
    adjacency: np.ndarray         # (n, n) bool, Eq. 15 connectivity
    distance_km: np.ndarray       # (n, n)

    @property
    def num_nodes(self) -> int:
        return self.continuous.shape[0]


@dataclasses.dataclass
class MultiLevelGraph:
    """The full model input built from one RTP instance (Def. 3)."""

    location: LevelGraph
    aoi: LevelGraph
    aoi_of_location: np.ndarray    # (n,) index into AOI level
    courier_id: int                # for the courier embedding (Eq. 28)
    courier_profile: np.ndarray    # (3,) observable courier vector u
    global_continuous: np.ndarray  # (3,)
    global_discrete: np.ndarray    # (2,): [weather, weekday]
    courier_distance_km: np.ndarray      # (n,) courier -> location
    aoi_courier_distance_km: np.ndarray  # (m,) courier -> AOI centre

    @property
    def num_locations(self) -> int:
        return self.location.num_nodes

    @property
    def num_aois(self) -> int:
        return self.aoi.num_nodes


class GraphBuilder:
    """Builds :class:`MultiLevelGraph` objects from instances.

    Parameters
    ----------
    k_neighbors:
        ``k`` of the spatial/temporal k-NN connectivity (Eq. 15).
    num_aoi_ids:
        Size of the AOI-id embedding vocabulary.  AOI ids from data are
        mapped into this range by modulo (a hashing trick), so a builder
        works for any dataset without a fitted vocabulary.
    """

    def __init__(self, k_neighbors: int = 3, num_aoi_ids: int = 256,
                 num_aoi_types: int = 8):
        if k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        self.k_neighbors = k_neighbors
        self.num_aoi_ids = num_aoi_ids
        self.num_aoi_types = num_aoi_types

    # ------------------------------------------------------------------
    def build(self, instance: RTPInstance) -> MultiLevelGraph:
        location_level = self._build_location_level(instance)
        aoi_level = self._build_aoi_level(instance)
        courier = instance.courier
        return MultiLevelGraph(
            location=location_level,
            aoi=aoi_level,
            aoi_of_location=instance.aoi_index_of_location(),
            courier_id=courier.courier_id,
            courier_profile=np.array([
                courier.working_hours / _HOURS_SCALE,
                courier.speed / _SPEED_SCALE,
                courier.attendance_rate,
            ]),
            global_continuous=np.array([
                courier.working_hours / _HOURS_SCALE,
                courier.speed / _SPEED_SCALE,
                courier.attendance_rate,
            ]),
            global_discrete=np.array([instance.weather, instance.weekday],
                                     dtype=np.int64),
            courier_distance_km=location_level.continuous[:, 2].copy(),
            aoi_courier_distance_km=aoi_level.continuous[:, 2].copy(),
        )

    # ------------------------------------------------------------------
    def _build_location_level(self, instance: RTPInstance) -> LevelGraph:
        coords = instance.location_coords()
        courier_lon, courier_lat = instance.courier_position
        t = instance.request_time

        offsets_km = np.column_stack([
            (coords[:, 0] - courier_lon) * 96.1055,
            (coords[:, 1] - courier_lat) * 111.1949,
        ])
        dist_courier = np.array([
            loc.distance_to(courier_lon, courier_lat) for loc in instance.locations
        ]) / _KM
        accept = np.array([loc.accept_time for loc in instance.locations])
        deadline = np.array([loc.deadline for loc in instance.locations])

        continuous = np.column_stack([
            offsets_km,
            dist_courier,
            (t - accept) / _HOUR,
            deadline / (24 * _HOUR),
            (deadline - t) / _HOUR,
        ])
        discrete = np.column_stack([
            np.array([loc.aoi_id % self.num_aoi_ids for loc in instance.locations]),
            np.array([self._aoi_type(instance, loc.aoi_id) for loc in instance.locations]),
        ]).astype(np.int64)
        return self._level_from_geometry(coords, deadline, continuous, discrete)

    def _build_aoi_level(self, instance: RTPInstance) -> LevelGraph:
        coords = instance.aoi_coords()
        courier_lon, courier_lat = instance.courier_position
        t = instance.request_time
        aoi_of_loc = instance.aoi_index_of_location()

        offsets_km = np.column_stack([
            (coords[:, 0] - courier_lon) * 96.1055,
            (coords[:, 1] - courier_lat) * 111.1949,
        ])
        dist_courier = np.array([
            aoi.distance_to(courier_lon, courier_lat) for aoi in instance.aois
        ]) / _KM
        earliest_deadline = np.array([
            min(loc.deadline for loc, a in zip(instance.locations, aoi_of_loc) if a == j)
            for j in range(instance.num_aois)
        ])
        member_count = np.bincount(aoi_of_loc, minlength=instance.num_aois).astype(float)

        continuous = np.column_stack([
            offsets_km,
            dist_courier,
            earliest_deadline / (24 * _HOUR),
            (earliest_deadline - t) / _HOUR,
            member_count,
        ])
        discrete = np.column_stack([
            np.array([aoi.aoi_id % self.num_aoi_ids for aoi in instance.aois]),
            np.array([aoi.aoi_type % self.num_aoi_types for aoi in instance.aois]),
        ]).astype(np.int64)
        return self._level_from_geometry(coords, earliest_deadline, continuous, discrete)

    def _aoi_type(self, instance: RTPInstance, aoi_id: int) -> int:
        for aoi in instance.aois:
            if aoi.aoi_id == aoi_id:
                return aoi.aoi_type % self.num_aoi_types
        raise KeyError(f"AOI id {aoi_id} not in instance")

    def _level_from_geometry(self, coords: np.ndarray, deadline: np.ndarray,
                             continuous: np.ndarray,
                             discrete: np.ndarray) -> LevelGraph:
        distance_m = pairwise_distance_matrix(coords)
        deadline_gap = deadline[:, None] - deadline[None, :]
        adjacency = connectivity_matrix(distance_m, deadline_gap, self.k_neighbors)
        edge_features = np.stack([
            distance_m / _KM,
            deadline_gap / _HOUR,
            adjacency.astype(np.float64),
        ], axis=-1)
        return LevelGraph(
            continuous=continuous,
            discrete=discrete,
            edge_features=edge_features,
            adjacency=adjacency,
            distance_km=distance_m / _KM,
        )
