"""Recurrent layers: LSTMCell, unrolled LSTM and bidirectional LSTM.

The route decoders (Eq. 28), the SortLSTM time decoders (Eq. 33), the
FDNET baseline encoder and the "w/o graph" ablation encoder all build on
these cells.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor, stack
from .init import orthogonal, xavier_uniform
from .module import Module, Parameter


class LSTMCell(Module):
    """Single LSTM step.

    Gates follow the standard formulation::

        i, f, g, o = split(x W_x + h W_h + b)
        c' = sigmoid(f) * c + sigmoid(i) * tanh(g)
        h' = sigmoid(o) * tanh(c')

    The forget-gate bias is initialised to 1 to ease gradient flow early
    in training.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_x = Parameter(xavier_uniform(rng, input_dim, 4 * hidden_dim))
        self.weight_h = Parameter(
            np.concatenate(
                [orthogonal(rng, hidden_dim, hidden_dim) for _ in range(4)], axis=1
            )
        )
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = Parameter(bias)

    def initial_state(self, batch_shape: Tuple[int, ...] = ()) -> Tuple[Tensor, Tensor]:
        shape = batch_shape + (self.hidden_dim,)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))

    def forward(self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
                ) -> Tuple[Tensor, Tensor]:
        if state is None:
            state = self.initial_state(x.shape[:-1])
        h, c = state
        gates = x @ self.weight_x + h @ self.weight_h + self.bias
        d = self.hidden_dim
        i_gate = gates[..., 0 * d:1 * d].sigmoid()
        f_gate = gates[..., 1 * d:2 * d].sigmoid()
        g_gate = gates[..., 2 * d:3 * d].tanh()
        o_gate = gates[..., 3 * d:4 * d].sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next


class LSTM(Module):
    """Unrolled single-layer LSTM over a ``(seq, features)`` tensor.

    Returns the per-step hidden states stacked into ``(seq, hidden)``
    plus the final ``(h, c)`` state.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng)
        self.hidden_dim = hidden_dim

    def forward(self, sequence: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None
                ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        outputs: List[Tensor] = []
        h_c = state
        for step in range(sequence.shape[0]):
            h, c = self.cell(sequence[step], h_c)
            h_c = (h, c)
            outputs.append(h)
        return stack(outputs, axis=0), h_c


class BiLSTM(Module):
    """The two LSTMs of a bidirectional encoder — the "w/o graph" ablation.

    Holds the forward and backward LSTMs (and their ``state_dict``
    keys); ``SequenceEncoder.forward_batch`` in ``repro.core.encoder``
    runs them over a padded batch and concatenates their hidden states,
    giving output dimension ``2 * hidden_dim``.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.forward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.backward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.output_dim = 2 * hidden_dim
