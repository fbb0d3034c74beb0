"""Padded graph batches — the one model input — and the no-grad engine.

Every model stage is written once, over padded batches
(`forward_batch` on the encoder/decoder modules, :meth:`M2G4RTP.forward`
for the whole model); one graph is a batch of one.  This module packs a
list of :class:`MultiLevelGraph` instances into padded batch tensors
with validity masks, and :class:`BatchedM2G4RTP` serves such batches
under ``no_grad`` (the fused kernels), unpadding the per-instance
predictions.

Parity contract — enforced by ``tests/test_core_batching.py``:

* decoded routes are identical to :meth:`M2G4RTP.predict`, the
  grad-enabled Tensor specification run on each graph as a batch of one;
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
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from ..autodiff import no_grad
from ..graphs import LevelGraph, MultiLevelGraph

if TYPE_CHECKING:
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
    """Runs a trained :class:`M2G4RTP` over whole graph batches, no-grad.

    The engine owns no parameters — it runs the wrapped model's
    :meth:`~repro.core.model.M2G4RTP.forward` on the padded batch under
    ``no_grad``, so every stage runs its fused kernel, and any model (any
    ablation variant, either decoder cell type) batches without
    retraining or weight copies.  It is the serving path for batches of
    any size, one included (``RTPService.handle``); ``M2G4RTP.predict``
    — the same forward with gradients on, i.e. the code training runs —
    is the specification it is checked against.
    """

    def __init__(self, model: M2G4RTP):
        self.model = model

    def predict(self, graphs: Sequence[MultiLevelGraph]) -> List[M2G4RTPOutput]:
        """Batched equivalent of ``[model.predict(g) for g in graphs]``."""
        if not graphs:
            return []
        model = self.model
        batch = GraphBatch.from_graphs(graphs)
        was_training = model.training
        if was_training:
            model.eval()
        try:
            with no_grad():
                return model(batch).rows(batch)
        finally:
            if was_training:
                model.train()
