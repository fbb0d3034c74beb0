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

    def unroll(self, inputs: Tensor, start: Optional[Tensor] = None) -> Tensor:
        """Hidden states of the cell run from a zero state over a sequence.

        ``inputs`` is step-major ``(T, B, in)``.  With ``start``, a 1-D
        ``(in,)`` input runs as step 0 before them (the route decoder's
        start token).  Returns the ``(steps, B, hidden)`` hidden states.

        The forward does the float operations of :meth:`forward` in the
        same order, so each hidden state is bitwise what a loop of
        :meth:`forward` gives: the input projection is one step-major
        matmul whose slice ``[s]`` is the per-step ``(B, in) @ W_x``
        (a batch-major ``(B, T, in) @ W_x`` is not: at ``B = 1`` it runs
        as one ``(T, in)`` GEMM), and ``start`` is projected as a
        vector, as the cell does.  The tape gets one node whose backward
        runs back-propagation through time into the inputs,
        ``weight_x``, ``weight_h`` and ``bias`` with the products of the
        loop's tape, adding each step's weight gradients in the order
        that tape does (last step first), so gradients are bitwise the
        loop's too.
        """
        w_x, w_h, bias = self.weight_x.data, self.weight_h.data, self.bias.data
        d = self.hidden_dim
        batch = inputs.shape[1]
        projected = list(np.matmul(inputs.data, w_x))
        if start is not None:
            projected.insert(0, start.data @ w_x)
        steps = len(projected)
        gates = np.empty((steps, batch, 4 * d))   # i, f, g, o after activation
        cells = np.empty((steps, batch, d))
        tanh_cells = np.empty((steps, batch, d))
        hidden = np.empty((steps, batch, d))
        h = np.zeros((batch, d))
        c = np.zeros((batch, d))
        for step, x_w in enumerate(projected):
            pre = x_w + h @ w_h + bias
            act = gates[step]
            # The cell's sigmoid over all four gates, then tanh over g:
            # elementwise, so the same values as its per-slice calls.
            np.divide(1.0, 1.0 + np.exp(-pre), out=act)
            np.tanh(pre[:, 2 * d:3 * d], out=act[:, 2 * d:3 * d])
            c = np.add(act[:, d:2 * d] * c, act[:, :d] * act[:, 2 * d:3 * d],
                       out=cells[step])
            np.tanh(c, out=tanh_cells[step])
            h = np.multiply(act[:, 3 * d:], tanh_cells[step], out=hidden[step])
        first = 0 if start is None else 1

        def backward(grad: np.ndarray) -> None:
            i_gate, f_gate, g_gate, o_gate = (
                gates[..., k * d:(k + 1) * d] for k in range(4))
            c_prev = np.zeros_like(cells)
            c_prev[1:] = cells[:-1]
            h_prev = np.zeros_like(hidden)
            h_prev[1:] = hidden[:-1]
            # Gate k's pre-activation gradient is ((m * a_k) * b_k) * e_k,
            # m the cell gradient (i, f, g) or the hidden gradient (o):
            # the per-step tape's products in its order (g's last factor
            # is an exact 1.0).
            a = np.concatenate([g_gate, c_prev, i_gate, tanh_cells], axis=-1)
            b = np.concatenate([i_gate, f_gate, 1.0 - g_gate ** 2, o_gate],
                               axis=-1)
            e = np.concatenate([1.0 - i_gate, 1.0 - f_gate,
                                np.ones_like(g_gate), 1.0 - o_gate], axis=-1)
            d_tanh_c = 1.0 - tanh_cells ** 2
            d_pre = np.empty_like(gates)
            m = np.empty((batch, 4 * d))
            d_h = np.zeros((batch, d))
            d_c = np.zeros((batch, d))
            for step in reversed(range(steps)):
                d_h = grad[step] + d_h
                d_c = d_c + d_h * o_gate[step] * d_tanh_c[step]
                m.reshape(batch, 4, d)[:, :3] = d_c[:, None, :]
                m[:, 3 * d:] = d_h
                d_step = np.multiply(m, a[step], out=d_pre[step])
                d_step *= b[step]
                d_step *= e[step]
                d_c = d_c * f_gate[step]
                d_h = d_step @ w_h.T
                # The step's weight gradients, last step first: the
                # per-step tape's products and order.
                if self.bias.requires_grad:
                    self.bias._accumulate(d_step)
                if self.weight_h.requires_grad:
                    self.weight_h._accumulate(h_prev[step].T @ d_step)
                if self.weight_x.requires_grad:
                    self.weight_x._accumulate(
                        inputs.data[step - first].T @ d_step if step >= first
                        # the 1-D start token, projected as a vector
                        else start.data[:, None] * d_step.sum(axis=0))
            if inputs.requires_grad:
                inputs._accumulate(np.matmul(d_pre[first:], w_x.T))
            if start is not None and start.requires_grad:
                start._accumulate(d_pre[0].sum(axis=0) @ w_x.T)

        parents = (inputs, self.weight_x, self.weight_h, self.bias)
        if start is not None:
            parents += (start,)
        return Tensor.from_op(hidden, parents, backward, "lstm_unroll")


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
