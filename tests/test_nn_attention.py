"""Tests for pointer attention, self-attention and the transformer block."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.nn import (
    AdditivePointerAttention,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
)


class TestPointerAttention:
    def test_scores_shape(self, rng):
        attention = AdditivePointerAttention(4, 6, 8, rng)
        keys = attention.key_proj(Tensor(np.zeros((2, 5, 4))))
        scores = attention.scores_batch(keys, Tensor(np.zeros((2, 6))))
        assert scores.shape == (2, 5)

    def test_log_probs_normalized_over_mask(self, rng):
        attention = AdditivePointerAttention(4, 6, 8, rng)
        keys = attention.key_proj(Tensor(rng.normal(size=(1, 5, 4))))
        query = Tensor(rng.normal(size=(1, 6)))
        mask = np.array([[True, False, True, True, False]])
        log_probs = attention.log_probs_batch(keys, query, mask)
        probs = np.exp(log_probs.data)
        assert np.isclose(probs[mask].sum(), 1.0)
        assert np.all(probs[~mask] < 1e-12)

    def test_all_masked_raises(self, rng):
        attention = AdditivePointerAttention(4, 6, 8, rng)
        keys = attention.key_proj(Tensor(np.zeros((2, 3, 4))))
        mask = np.array([[True, False, False], [False, False, False]])
        with pytest.raises(ValueError):
            attention.log_probs_batch(keys, Tensor(np.zeros((2, 6))), mask)

    def test_gradcheck(self, rng):
        attention = AdditivePointerAttention(3, 4, 5, rng)
        keys = Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
        query = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        mask = np.array([[True, True, False, True]])

        def fn():
            return -attention.log_probs_batch(attention.key_proj(keys),
                                              query, mask)[0, 0]

        check_gradients(fn, [keys, query] + attention.parameters())


class TestMultiHeadSelfAttention:
    def test_dim_must_divide(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, rng)

    def test_output_shape(self, rng):
        attention = MultiHeadSelfAttention(8, 2, rng)
        assert attention(Tensor(np.zeros((5, 8)))).shape == (5, 8)

    def test_permutation_equivariance(self, rng):
        attention = MultiHeadSelfAttention(8, 2, rng)
        x = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = attention(Tensor(x)).data
        out_perm = attention(Tensor(x[perm])).data
        assert np.allclose(out[perm], out_perm, atol=1e-8)

    def test_gradients_flow(self, rng):
        attention = MultiHeadSelfAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        (attention(x) ** 2).sum().backward()
        assert x.grad is not None and np.any(x.grad != 0)


class TestTransformerEncoderLayer:
    def test_output_shape(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng)
        assert layer(Tensor(np.zeros((5, 8)))).shape == (5, 8)

    def test_residual_path_present(self, rng):
        # Output differs from a pure transform of zeros thanks to residual.
        layer = TransformerEncoderLayer(8, 2, 16, rng)
        x = rng.normal(size=(5, 8))
        out = layer(Tensor(x)).data
        assert not np.allclose(out, 0.0)
        # Residual keeps output correlated with input.
        corr = np.corrcoef(out.reshape(-1), x.reshape(-1))[0, 1]
        assert corr > 0.3

    def test_stacked_layers_trainable(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        (layer(x) ** 2).sum().backward()
        grads = [p.grad for p in layer.parameters()]
        assert any(g is not None and np.any(g != 0) for g in grads)
