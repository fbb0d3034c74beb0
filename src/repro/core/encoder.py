"""Multi-level graph encoder (paper Section IV-B).

Embeds raw node/edge/global features (Eqs. 18-19), runs the GAT-e stack
at the location level and the AOI level, and returns the encoded
representations ``x~^l`` and ``x~^a`` consumed by the decoders.

A :class:`SequenceEncoder` (bidirectional LSTM over the deadline-sorted
node sequence) implements the paper's "w/o graph" ablation; it runs
:meth:`LSTMCell.unroll` with gradients on or off.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..autodiff import Tensor, concat, is_grad_enabled, padded_gather
from ..kernels import fused
from ..nn import BiLSTM, FeatureEncoder, Linear, Module
from ..obs.tracing import span
from .gat_e import GATEEncoder

#: Rows of the global weather and weekday embeddings (Eq. 17).
NUM_WEATHER = 8
NUM_WEEKDAYS = 7


@dataclasses.dataclass
class EncoderConfig:
    """Width/depth hyper-parameters shared by both levels."""

    hidden_dim: int = 32
    num_layers: int = 2
    num_heads: int = 4
    continuous_embed_dim: int = 16
    discrete_embed_dim: int = 8
    num_aoi_ids: int = 256
    num_aoi_types: int = 8


class GlobalFeatureEncoder(Module):
    """Encodes the global context ``x^g`` of Eq. 17 into one vector."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        super().__init__()
        self.encoder = FeatureEncoder(
            continuous_dim=3,
            discrete_cardinalities=[NUM_WEATHER, NUM_WEEKDAYS],
            continuous_out=config.continuous_embed_dim,
            discrete_out=config.discrete_embed_dim,
            rng=rng,
        )
        self.output_dim = self.encoder.output_dim

    def forward_batch(self, global_continuous: np.ndarray,
                      global_discrete: np.ndarray) -> Tensor:
        """Global context: ``(B, 3)`` continuous, ``(B, 2)`` discrete → ``(B, g)``."""
        return self.encoder(Tensor(global_continuous), global_discrete)


class LevelEncoder(Module):
    """Feature embedding + GAT-e for one graph level."""

    def __init__(self, continuous_dim: int, config: EncoderConfig,
                 global_dim: int, rng: np.random.Generator):
        super().__init__()
        self.node_features = FeatureEncoder(
            continuous_dim=continuous_dim,
            discrete_cardinalities=[config.num_aoi_ids, config.num_aoi_types],
            continuous_out=config.continuous_embed_dim,
            discrete_out=config.discrete_embed_dim,
            rng=rng,
        )
        self.node_proj = Linear(self.node_features.output_dim + global_dim,
                                config.hidden_dim, rng)
        self.edge_proj = Linear(3, config.hidden_dim, rng)
        self.gat = GATEEncoder(config.hidden_dim, config.num_layers,
                               config.num_heads, rng)

    def _embed_tensor(self, continuous: np.ndarray, discrete: np.ndarray,
                      edge_features: np.ndarray,
                      global_vector: Tensor) -> Tuple[Tensor, Tensor]:
        """Tensor-path feature embedding for one padded level batch."""
        batch, n = continuous.shape[:2]
        node_embed = self.node_features(Tensor(continuous), discrete)
        tiled_global = global_vector.reshape(batch, 1, -1) * Tensor(np.ones((batch, n, 1)))
        nodes = self.node_proj(concat([node_embed, tiled_global], axis=-1))
        edges = self.edge_proj(Tensor(edge_features))
        return nodes, edges

    def forward_batch(self, level, global_vector: Tensor) -> Tensor:
        """Embed and encode one padded level batch → ``(B, n, d)``.

        ``level`` is duck-typed (see ``repro.core.batching.LevelBatch``):
        ``continuous (B, n, c)``, ``discrete (B, n, 2)``,
        ``edge_features (B, n, n, 3)`` and ``adjacency (B, n, n)`` whose
        padding rows/columns are all ``False``.

        When gradients are disabled the feature embedding runs the fused
        kernel (:func:`repro.kernels.fused.level_embed`), bit-identical
        to the Tensor glue; training keeps the Tensor path.  The GAT-e
        stack runs its one forward in both modes (one tape node with
        gradients on, see :meth:`GATEEncoder.forward_batch`).
        """
        if not is_grad_enabled():
            with span("kernel.level_embed",
                      batch_size=level.continuous.shape[0]):
                node_data, edge_data = fused.level_embed(
                    self, level.continuous, level.discrete,
                    level.edge_features, global_vector.data)
            nodes, edges = Tensor(node_data), Tensor(edge_data)
        else:
            nodes, edges = self._embed_tensor(
                level.continuous, level.discrete, level.edge_features,
                global_vector)
        return self.gat.forward_batch(nodes, edges, level.adjacency)


class SequenceEncoder(Module):
    """BiLSTM over deadline-ordered nodes — the "w/o graph" ablation.

    Nodes are fed nearest-first (distance to the courier) and the
    bidirectional states are projected back to ``hidden_dim`` in the
    original node order.
    """

    def __init__(self, continuous_dim: int, config: EncoderConfig,
                 global_dim: int, rng: np.random.Generator):
        super().__init__()
        self.node_features = FeatureEncoder(
            continuous_dim=continuous_dim,
            discrete_cardinalities=[config.num_aoi_ids, config.num_aoi_types],
            continuous_out=config.continuous_embed_dim,
            discrete_out=config.discrete_embed_dim,
            rng=rng,
        )
        self.node_proj = Linear(self.node_features.output_dim + global_dim,
                                config.hidden_dim, rng)
        self.bilstm = BiLSTM(config.hidden_dim, config.hidden_dim, rng)
        self.out_proj = Linear(2 * config.hidden_dim, config.hidden_dim, rng)

    def forward_batch(self, level, global_vector: Tensor) -> Tensor:
        """Embed and encode one padded level batch → ``(B, n, d)``.

        Column 2 is distance-to-courier at both levels, so real nodes are
        fed nearest-first per instance; padding nodes sort last (key
        ``inf``), so they only ever sit *after* the real prefix in both
        LSTM directions and cannot influence any real node's state.
        """
        batch, n = level.continuous.shape[:2]
        lengths = np.asarray(level.lengths, dtype=np.int64)
        node_embed = self.node_features(Tensor(level.continuous), level.discrete)
        tiled_global = global_vector.reshape(batch, 1, -1) * Tensor(np.ones((batch, n, 1)))
        nodes = self.node_proj(concat([node_embed, tiled_global], axis=-1))

        key = np.where(level.mask, level.continuous[:, :, 2], np.inf)
        order = np.argsort(key, axis=1, kind="stable")           # (B, n)
        steps = np.arange(n)
        step_valid = steps[None, :] < lengths[:, None]           # (B, n)
        # Position s of the *reversed* real prefix reads position
        # len-1-s of the forward one; padding positions read themselves.
        reversed_positions = np.where(
            step_valid, lengths[:, None] - 1 - steps[None, :], steps[None, :])
        reversed_order = np.take_along_axis(order, reversed_positions, axis=1)

        forward_seq = padded_gather(nodes, order, valid=step_valid)
        backward_seq = padded_gather(nodes, reversed_order, valid=step_valid)
        forward_states = _unroll_lstm_batch(self.bilstm.forward_lstm.cell, forward_seq)
        backward_states = _unroll_lstm_batch(self.bilstm.backward_lstm.cell, backward_seq)
        # Re-reverse the backward states so step s aligns with order[:, s].
        backward_states = padded_gather(backward_states, reversed_positions,
                                        valid=step_valid)
        projected = self.out_proj(concat([forward_states, backward_states], axis=-1))
        # Scatter step-ordered outputs back to node order.
        inverse = np.argsort(order, axis=1, kind="stable")
        return padded_gather(projected, inverse, valid=level.mask)


def _unroll_lstm_batch(cell, sequence: Tensor) -> Tensor:
    """Run an LSTM cell over ``(B, n, d)`` steps; returns ``(B, n, hidden)``.

    :meth:`LSTMCell.unroll` over the step-major sequence, with gradients
    on (one tape node) or off (no tape) alike.
    """
    return cell.unroll(sequence.transpose(1, 0, 2)).transpose(1, 0, 2)


class MultiLevelEncoder(Module):
    """The full encoder: global context + one :class:`LevelEncoder` per level.

    With ``use_graph=False`` both levels use :class:`SequenceEncoder`
    instead of GAT-e (the "w/o graph" ablation).
    """

    def __init__(self, config: Optional[EncoderConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 use_graph: bool = True):
        super().__init__()
        self.config = config or EncoderConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.global_encoder = GlobalFeatureEncoder(self.config, rng)
        encoder_cls = LevelEncoder if use_graph else SequenceEncoder
        self.location_encoder = encoder_cls(
            6, self.config, self.global_encoder.output_dim, rng)
        self.aoi_encoder = encoder_cls(
            6, self.config, self.global_encoder.output_dim, rng)

    def forward_batch(self, batch) -> Tuple[Tensor, Tensor]:
        """Encode a ``repro.core.batching.GraphBatch`` → (locations, AOIs).

        ``batch`` is duck-typed: it provides ``global_continuous``,
        ``global_discrete`` and padded ``location`` / ``aoi`` level
        batches.  Returns ``(B, n, d)`` location and ``(B, m, d)`` AOI
        representations; rows at padding positions carry finite values
        that downstream masks ignore.
        """
        global_vector = self.global_encoder.forward_batch(
            batch.global_continuous, batch.global_discrete)
        locations = self.location_encoder.forward_batch(batch.location, global_vector)
        aois = self.aoi_encoder.forward_batch(batch.aoi, global_vector)
        return locations, aois
