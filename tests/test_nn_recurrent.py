"""Tests for LSTMCell, LSTM and BiLSTM."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.nn import BiLSTM, LSTM, LSTMCell


class TestLSTMCell:
    def test_shapes_unbatched(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell(Tensor(np.zeros(4)))
        assert h.shape == (6,) and c.shape == (6,)

    def test_shapes_batched(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell(Tensor(np.zeros((3, 4))))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_state_threading_changes_output(self, rng):
        cell = LSTMCell(4, 6, rng)
        x = Tensor(rng.normal(size=4))
        h1, c1 = cell(x)
        h2, _ = cell(x, (h1, c1))
        assert not np.allclose(h1.data, h2.data)

    def test_initial_state_zero(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.initial_state()
        assert np.allclose(h.data, 0.0) and np.allclose(c.data, 0.0)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 6, rng)
        assert np.allclose(cell.bias.data[6:12], 1.0)
        assert np.allclose(cell.bias.data[:6], 0.0)

    def test_hidden_bounded_by_tanh(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, _ = cell(Tensor(rng.normal(size=4) * 100))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_gradcheck(self, rng):
        cell = LSTMCell(3, 2, rng)
        x = Tensor(rng.normal(size=3), requires_grad=True)

        def fn():
            h, c = cell(x)
            h2, _ = cell(x, (h, c))
            return (h2 ** 2).sum()

        check_gradients(fn, [x, cell.weight_x, cell.weight_h, cell.bias])


class TestLSTM:
    def test_output_shapes(self, rng):
        lstm = LSTM(4, 6, rng)
        states, (h, c) = lstm(Tensor(np.zeros((5, 4))))
        assert states.shape == (5, 6)
        assert h.shape == (6,)

    def test_last_state_matches_last_output(self, rng):
        lstm = LSTM(4, 6, rng)
        states, (h, _) = lstm(Tensor(rng.normal(size=(5, 4))))
        assert np.allclose(states.data[-1], h.data)

    def test_sequence_order_matters(self, rng):
        lstm = LSTM(4, 6, rng)
        x = rng.normal(size=(5, 4))
        out_fwd, _ = lstm(Tensor(x))
        out_rev, _ = lstm(Tensor(x[::-1].copy()))
        assert not np.allclose(out_fwd.data[-1], out_rev.data[-1])


class TestBiLSTM:
    """The BiLSTM runs inside ``SequenceEncoder.forward_batch`` (the
    "w/o graph" ablation), its one forward pass."""

    @staticmethod
    def encode(rng, continuous):
        from repro.core.encoder import EncoderConfig, SequenceEncoder
        config = EncoderConfig(hidden_dim=6, continuous_embed_dim=4,
                               discrete_embed_dim=2)
        encoder = SequenceEncoder(continuous.shape[-1], config,
                                  global_dim=3, rng=rng)
        n = continuous.shape[1]
        level = SimpleNamespace(
            continuous=continuous, discrete=np.zeros((1, n, 2), dtype=int),
            mask=np.ones((1, n), dtype=bool), lengths=np.array([n]))
        return encoder, lambda level=level: encoder.forward_batch(
            level, Tensor(np.zeros((1, 3))))

    def test_output_dim_doubled(self, rng):
        bilstm = BiLSTM(4, 6, rng)
        assert bilstm.output_dim == 12
        encoder, run = self.encode(rng, np.zeros((1, 5, 6)))
        assert encoder.bilstm.output_dim == encoder.out_proj.weight.shape[0]
        assert run().shape == (1, 5, 6)

    def test_every_position_sees_whole_sequence(self, rng):
        # Perturbing the farthest node (last in the nearest-first order)
        # must change the nearest node's output (through the backward
        # direction).
        x = rng.normal(size=(1, 5, 6))
        x[0, :, 2] = np.arange(5.0)          # distance column: 0 nearest
        encoder, run = self.encode(rng, x)
        base = run().data.copy()
        x[0, 4, 0] += 1.0
        shifted = run().data
        assert not np.allclose(base[0, 0], shifted[0, 0])

    def test_gradients_flow(self, rng):
        encoder, run = self.encode(rng, rng.normal(size=(1, 4, 6)))
        (run() ** 2).sum().backward()
        for lstm in (encoder.bilstm.forward_lstm, encoder.bilstm.backward_lstm):
            assert lstm.cell.weight_x.grad is not None
            assert np.any(lstm.cell.weight_x.grad != 0)
