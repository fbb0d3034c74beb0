"""Batched inference engine for M²G4RTP.

The online service (paper Section VI) answers each query with one
encoder + decoder pass.  Sequential per-request execution leaves most
of the numpy substrate idle: every matmul is tiny and Python overhead
dominates.  This module packs a list of :class:`MultiLevelGraph`
instances into padded batch tensors with validity masks, runs the
*same* parameters through batched versions of the forward passes
(`forward_batch` on the encoder/decoder modules), and unpads the
per-instance predictions.

Parity contract — enforced by ``tests/test_core_batching.py``:

* decoded routes are identical to sequential :meth:`M2G4RTP.predict`;
* arrival times match within 1e-6;
* padding positions receive exactly zero attention probability (GAT-e
  and pointer attention) and exactly zero gradient
  (:func:`repro.autodiff.masked_softmax` / ``padded_gather``).

Padding convention: node features are zero, discrete ids are 0 (a valid
embedding row), adjacency rows/columns are all ``False`` and padded
nodes start out "visited" in the decoders, so no padding position can
ever receive probability mass or influence a real node.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from ..autodiff import Tensor, concat, no_grad, padded_gather
from ..graphs import LevelGraph, MultiLevelGraph
from ..obs.tracing import span
from .decoder import positional_guidance
from .model import M2G4RTP, M2G4RTPOutput


@dataclasses.dataclass
class LevelBatch:
    """One padded level (location or AOI) of a graph batch."""

    continuous: np.ndarray     # (B, n, d_cont), zero-padded
    discrete: np.ndarray       # (B, n, 2) int, zero-padded
    edge_features: np.ndarray  # (B, n, n, 3), zero-padded
    adjacency: np.ndarray      # (B, n, n) bool, False at padding
    mask: np.ndarray           # (B, n) bool, True at real nodes
    lengths: np.ndarray        # (B,) int real node counts

    @property
    def max_nodes(self) -> int:
        return self.continuous.shape[1]

    @staticmethod
    def from_levels(levels: Sequence[LevelGraph]) -> "LevelBatch":
        batch = len(levels)
        lengths = np.array([level.num_nodes for level in levels], dtype=np.int64)
        n = int(lengths.max())
        d_cont = levels[0].continuous.shape[1]
        continuous = np.zeros((batch, n, d_cont))
        discrete = np.zeros((batch, n, levels[0].discrete.shape[1]), dtype=np.int64)
        edge_features = np.zeros((batch, n, n, levels[0].edge_features.shape[-1]))
        adjacency = np.zeros((batch, n, n), dtype=bool)
        mask = np.zeros((batch, n), dtype=bool)
        for b, level in enumerate(levels):
            k = level.num_nodes
            continuous[b, :k] = level.continuous
            discrete[b, :k] = level.discrete
            edge_features[b, :k, :k] = level.edge_features
            adjacency[b, :k, :k] = level.adjacency
            mask[b, :k] = True
        return LevelBatch(continuous=continuous, discrete=discrete,
                          edge_features=edge_features, adjacency=adjacency,
                          mask=mask, lengths=lengths)


@dataclasses.dataclass
class GraphBatch:
    """A list of :class:`MultiLevelGraph` padded into batch tensors."""

    graphs: List[MultiLevelGraph]
    location: LevelBatch
    aoi: LevelBatch
    aoi_of_location: np.ndarray   # (B, n) int, 0 at padding
    courier_ids: np.ndarray       # (B,) int
    courier_profiles: np.ndarray  # (B, 3)
    global_continuous: np.ndarray  # (B, 3)
    global_discrete: np.ndarray    # (B, 2) int

    def __len__(self) -> int:
        return len(self.graphs)

    @staticmethod
    def from_graphs(graphs: Sequence[MultiLevelGraph]) -> "GraphBatch":
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        graphs = list(graphs)
        location = LevelBatch.from_levels([g.location for g in graphs])
        aoi = LevelBatch.from_levels([g.aoi for g in graphs])
        aoi_of_location = np.zeros((len(graphs), location.max_nodes),
                                   dtype=np.int64)
        for b, graph in enumerate(graphs):
            aoi_of_location[b, :graph.num_locations] = graph.aoi_of_location
        return GraphBatch(
            graphs=graphs,
            location=location,
            aoi=aoi,
            aoi_of_location=aoi_of_location,
            courier_ids=np.array([g.courier_id for g in graphs], dtype=np.int64),
            courier_profiles=np.stack([g.courier_profile for g in graphs]),
            global_continuous=np.stack([g.global_continuous for g in graphs]),
            global_discrete=np.stack([g.global_discrete for g in graphs]),
        )


class BatchedM2G4RTP:
    """Runs a trained :class:`M2G4RTP` over whole graph batches.

    The engine owns no parameters — it reads the wrapped model's modules
    through their ``forward_batch`` methods, so any model (any ablation
    variant, either decoder cell type) batches without retraining or
    weight copies.  It is the no-grad serving path for batches of any
    size, one included (``RTPService.handle``); ``M2G4RTP.predict`` is
    the per-instance Tensor specification it is checked against.
    """

    def __init__(self, model: M2G4RTP):
        self.model = model

    # ------------------------------------------------------------------
    def predict(self, graphs: Sequence[MultiLevelGraph]) -> List[M2G4RTPOutput]:
        """Batched equivalent of ``[model.predict(g) for g in graphs]``."""
        if not graphs:
            return []
        model = self.model
        was_training = model.training
        if was_training:
            model.eval()
        try:
            with no_grad():
                return self._predict(GraphBatch.from_graphs(graphs))
        finally:
            if was_training:
                model.train()

    # ------------------------------------------------------------------
    def _predict(self, batch: GraphBatch) -> List[M2G4RTPOutput]:
        model = self.model
        cfg = model.config
        size = len(batch)
        n = batch.location.max_nodes

        with span("encoder", batch_size=size):
            location_reps, aoi_reps = model.encoder.forward_batch(batch)
        courier_embed = model.courier_embedding(
            batch.courier_ids % cfg.num_couriers)
        courier = concat([courier_embed, Tensor(batch.courier_profiles)], axis=-1)

        aoi_routes = None
        aoi_times = None
        if cfg.use_aoi:
            with span("route_decode", level="aoi"):
                aoi_routes = model.aoi_route_decoder.forward_batch(
                    aoi_reps, courier, batch.aoi.lengths,
                    adjacency=batch.aoi.adjacency)
            with span("time_decode", level="aoi"):
                aoi_times = model.aoi_time_decoder.forward_batch(
                    aoi_reps, aoi_routes, batch.aoi.lengths)

            # Guidance (Eq. 34), per instance over real AOIs only.
            positions = np.zeros((size, batch.aoi.max_nodes, cfg.position_dim))
            for b in range(size):
                m_b = int(batch.aoi.lengths[b])
                positions[b, :m_b] = positional_guidance(
                    aoi_routes[b, :m_b], cfg.position_dim)
            per_location_positions = positions[
                np.arange(size)[:, None], batch.aoi_of_location]
            per_location_eta = padded_gather(
                aoi_times, batch.aoi_of_location, valid=batch.location.mask)
            location_inputs = concat(
                [location_reps, Tensor(per_location_positions),
                 per_location_eta.reshape(size, n, 1)],
                axis=-1)
        else:
            location_inputs = location_reps

        with span("route_decode", level="location"):
            routes = model.location_route_decoder.forward_batch(
                location_inputs, courier, batch.location.lengths,
                adjacency=batch.location.adjacency)
        with span("time_decode", level="location"):
            times = model.location_time_decoder.forward_batch(
                location_inputs, routes, batch.location.lengths)

        outputs: List[M2G4RTPOutput] = []
        for b in range(size):
            n_b = int(batch.location.lengths[b])
            m_b = int(batch.aoi.lengths[b])
            outputs.append(M2G4RTPOutput(
                route=routes[b, :n_b].copy(),
                arrival_times=times.data[b, :n_b] * cfg.time_scale,
                aoi_route=(aoi_routes[b, :m_b].copy()
                           if aoi_routes is not None else None),
                aoi_arrival_times=(aoi_times.data[b, :m_b] * cfg.time_scale
                                   if aoi_times is not None else None),
            ))
        return outputs
