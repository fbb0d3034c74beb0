"""Graph2Route baseline (Wen et al., KDD 2022).

GCN encoder over the single-level location graph plus the attention
pointer decoder.  Graph-based like M²G4RTP but without the AOI level,
without edge-feature attention, and route-only (time is the plug-in
head).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..graphs import MultiLevelGraph
from ..nn import GCN, Module
from .deep_common import DeepBaselineConfig, DeepRouteTimeBaseline


class Graph2Route(DeepRouteTimeBaseline):
    """GCN encoder + pointer decoder."""

    name = "Graph2Route"

    def __init__(self, config: DeepBaselineConfig = None, builder=None,
                 num_layers: int = 2):
        self._num_layers = num_layers
        super().__init__(config, builder)

    def _build_encoder(self, rng: np.random.Generator) -> Module:
        return GCN(self.config.hidden_dim, self.config.hidden_dim,
                   self._num_layers, rng)

    def _encode(self, inputs: Tensor, graph: MultiLevelGraph) -> Tensor:
        return self.encoder(inputs, graph.location.adjacency)
