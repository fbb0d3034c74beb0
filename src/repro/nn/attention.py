"""Attention layers.

* :class:`AdditivePointerAttention` — the masked pointer attention used
  by every route decoder in the paper family (Eqs. 29-30 for M²G4RTP,
  and the decoders of DeepRoute / FDNET / Graph2Route).
* :class:`MultiHeadSelfAttention` + :class:`TransformerEncoderLayer` —
  the DeepRoute baseline encoder.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, log_softmax, repeat_steps, softmax
from .init import xavier_uniform
from .layers import LayerNorm, Linear, MLP
from .module import Module, Parameter


class AdditivePointerAttention(Module):
    """Bahdanau-style pointer scorer with a feasibility mask.

    Scores candidate ``keys`` (node embeddings) against a ``query``
    (decoder state), Eq. 29::

        o_j = v^T tanh(W_k key_j + W_q query)     if j feasible
        o_j = -inf                                otherwise

    :meth:`log_probs_batch` applies masked log-softmax (Eq. 30).  Both
    scoring methods take the keys already projected, ``key_proj(keys)``:
    a decoder projects them once per decode, not once per step.
    """

    def __init__(self, key_dim: int, query_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.key_proj = Linear(key_dim, hidden_dim, rng, bias=False)
        self.query_proj = Linear(query_dim, hidden_dim, rng, bias=False)
        self.v = Parameter(xavier_uniform(rng, hidden_dim, 1, shape=(hidden_dim,)))

    def scores_batch(self, projected_keys: Tensor, query: Tensor) -> Tensor:
        """Unmasked scores: ``(B, n, h)`` projected keys × ``(B, q)``
        queries → ``(B, n)``.

        A ``(steps, B, q)`` query scores every step of a decode at once
        → ``(steps, B, n)``, with the float operations of scoring the
        steps one by one; the weights enter each step separately
        (:func:`repeat_steps`), so the gradients are bitwise those of
        the step loop too.
        """
        if query.ndim == 2:
            batch = projected_keys.shape[0]
            projected_query = self.query_proj(query).reshape(batch, 1, -1)
            hidden = (projected_keys + projected_query).tanh()
            return hidden @ self.v
        steps, batch = query.shape[0], query.shape[1]
        weight = repeat_steps(self.query_proj.weight, steps)
        projected_query = (query @ weight).reshape(steps, batch, 1, -1)
        hidden = (projected_keys + projected_query).tanh()
        return _scores_by_step(hidden, self.v)

    def log_probs_batch(self, projected_keys: Tensor, query: Tensor,
                        mask: np.ndarray) -> Tensor:
        """Masked log-probabilities, ``(..., B, n)``.

        ``mask`` is boolean, ``True`` where a candidate is feasible; each
        row must have at least one (batched decoders give finished or
        padded rows a dummy candidate).
        """
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise ValueError(
                "pointer attention requires at least one feasible candidate per row")
        return log_softmax(self.scores_batch(projected_keys, query), axis=-1,
                           mask=mask)


def _scores_by_step(hidden: Tensor, v: Tensor) -> Tensor:
    """``hidden @ v`` over ``(steps, B, n, h)`` whose backward is that of
    one ``(B, n, h) @ v`` per step, ``v`` taking step 0's gradient first."""

    def backward(grad: np.ndarray) -> None:
        if hidden.requires_grad:
            hidden._accumulate(grad[..., None] * v.data)
        if v.requires_grad:
            for step in range(grad.shape[0]):
                v._accumulate((hidden.data[step] * grad[step][..., None])
                              .reshape(-1, v.shape[0]).sum(axis=0))

    return Tensor.from_op(hidden.data @ v.data, (hidden, v), backward,
                          "scores_by_step")


class MultiHeadSelfAttention(Module):
    """Multi-head scaled-dot-product self-attention over ``(n, d)`` inputs."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng, bias=False)
        self.k_proj = Linear(dim, dim, rng, bias=False)
        self.v_proj = Linear(dim, dim, rng, bias=False)
        self.out_proj = Linear(dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        scale = 1.0 / np.sqrt(self.head_dim)
        heads = []
        for head in range(self.num_heads):
            lo, hi = head * self.head_dim, (head + 1) * self.head_dim
            q = self.q_proj(x)[:, lo:hi]
            k = self.k_proj(x)[:, lo:hi]
            v = self.v_proj(x)[:, lo:hi]
            weights = softmax((q @ k.T) * scale, axis=-1)
            heads.append(weights @ v)
        return self.out_proj(concat(heads, axis=-1))


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: self-attention + position-wise MLP."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.attention = MultiHeadSelfAttention(dim, num_heads, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.feed_forward = MLP([dim, ff_dim, dim], rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.norm1(x))
        x = x + self.feed_forward(self.norm2(x))
        return x
