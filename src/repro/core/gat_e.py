"""GAT-e: graph attention with edge features and edge updates (Eqs. 20-26).

The paper's improvement over vanilla GAT is twofold:

* edge embeddings enter the attention logits (Eq. 20), so the network
  sees distance / deadline-gap / connectivity when weighting neighbours;
* edge embeddings are themselves updated from the incident node
  embeddings each layer (Eq. 23), giving an information-passing path
  along edges.

Multi-head behaviour follows Eqs. 24-26: intermediate layers concatenate
P head outputs, the final layer averages them and delays the ReLU.

Note on Eq. 22: the paper writes the aggregation as
``sum_j alpha_ij W2 h_i`` — aggregating the *centre* node.  As in the
original GAT (Velickovic et al., 2018) the sum must run over the
*neighbour* embeddings ``h_j`` for the attention weights to matter; we
follow the GAT semantics.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autodiff import Tensor, concat, is_grad_enabled, masked_softmax
from ..kernels import fused
from ..nn import Module
from ..nn.init import xavier_uniform
from ..nn.module import Parameter
from ..obs.tracing import span


class GATEHead(Module):
    """One attention head of a GAT-e layer.

    Produces updated node embeddings ``(B, n, out_dim)`` and updated edge
    embeddings ``(B, n, n, out_dim)`` from padded inputs of width
    ``in_dim``.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 leaky_slope: float = 0.2):
        super().__init__()
        self.leaky_slope = leaky_slope
        # W1 and the split attention vector a_v = [a_src ; a_dst] (Eq. 20).
        self.w1 = Parameter(xavier_uniform(rng, in_dim, in_dim))
        self.a_src = Parameter(xavier_uniform(rng, in_dim, 1, shape=(in_dim,)))
        self.a_dst = Parameter(xavier_uniform(rng, in_dim, 1, shape=(in_dim,)))
        self.a_edge = Parameter(xavier_uniform(rng, in_dim, 1, shape=(in_dim,)))
        # W2 (node messages) and W3/W4/W5 (edge update, Eq. 23).
        self.w2 = Parameter(xavier_uniform(rng, in_dim, out_dim))
        self.w3 = Parameter(xavier_uniform(rng, in_dim, out_dim))
        self.w4 = Parameter(xavier_uniform(rng, in_dim, out_dim))
        self.w5 = Parameter(xavier_uniform(rng, in_dim, out_dim))

    def attention_batch(self, nodes: Tensor, edges: Tensor,
                        adjacency: np.ndarray) -> Tensor:
        """Masked attention matrix ``alpha`` of Eq. 21, ``(B, n, n)``.

        ``adjacency`` rows belonging to padding nodes are entirely
        ``False``; :func:`masked_softmax` gives those rows an all-zero
        output instead of NaN, and padding columns get probability
        exactly zero for every real row.
        """
        transformed = nodes @ self.w1
        source_score = transformed @ self.a_src      # (B, n)
        target_score = transformed @ self.a_dst      # (B, n)
        edge_score = edges @ self.a_edge             # (B, n, n)
        batch, n = source_score.shape
        logits = (source_score.reshape(batch, n, 1)
                  + target_score.reshape(batch, 1, n)
                  + edge_score).leaky_relu(self.leaky_slope)
        return masked_softmax(logits, np.asarray(adjacency, dtype=bool), axis=2)

    def forward_batch(self, nodes: Tensor, edges: Tensor,
                      adjacency: np.ndarray,
                      need_edges: bool = True) -> Tuple[Tensor, Optional[Tensor], Tensor]:
        """Return (pre-activation node update, edge update, alpha) over
        ``(B, n, d)`` nodes and ``(B, n, n, d)`` edges.

        ``need_edges=False`` skips the edge update (the node update never
        reads it, so node outputs are unchanged) — used for the last
        encoder layer, whose edge output is discarded.
        """
        alpha = self.attention_batch(nodes, edges, adjacency)
        node_update = alpha @ (nodes @ self.w2)
        if not need_edges:
            return node_update, None, alpha
        batch, n = alpha.shape[0], alpha.shape[1]
        edge_update = (
            edges @ self.w3
            + (nodes @ self.w4).reshape(batch, n, 1, -1)
            + (nodes @ self.w5).reshape(batch, 1, n, -1)
        )
        return node_update, edge_update, alpha


class GATELayer(Module):
    """Multi-head GAT-e layer.

    Parameters
    ----------
    dim:
        Node/edge embedding width (kept constant across layers).
    num_heads:
        ``P`` in Eqs. 24-25.  Must divide ``dim`` for concat layers.
    final:
        If ``True``, heads are averaged (each producing the full
        ``dim``) and the ReLU is delayed until after the average
        (Eq. 26); otherwise head outputs of ``dim // P`` are
        concatenated with per-head ReLU (Eqs. 24-25).
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 final: bool = False):
        super().__init__()
        if not final and dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        self.final = final
        head_dim = dim if final else dim // num_heads
        self.heads = [GATEHead(dim, head_dim, rng) for _ in range(num_heads)]

    def forward_batch(self, nodes: Tensor, edges: Tensor,
                      adjacency: np.ndarray,
                      need_edges: bool = True) -> Tuple[Tensor, Optional[Tensor]]:
        """Run every head and combine them (Eqs. 24-26)."""
        node_updates = []
        edge_updates = []
        for head in self.heads:
            node_update, edge_update, _ = head.forward_batch(
                nodes, edges, adjacency, need_edges=need_edges)
            if not self.final:
                node_update = node_update.relu()
                if need_edges:
                    edge_update = edge_update.relu()
            node_updates.append(node_update)
            edge_updates.append(edge_update)
        if self.final:
            count = float(len(self.heads))
            node_out = node_updates[0]
            for node_update in node_updates[1:]:
                node_out = node_out + node_update
            node_out = (node_out * (1.0 / count)).relu()
            if not need_edges:
                return node_out, None
            edge_out = edge_updates[0]
            for edge_update in edge_updates[1:]:
                edge_out = edge_out + edge_update
            return node_out, (edge_out * (1.0 / count)).relu()
        if not need_edges:
            return concat(node_updates, axis=-1), None
        return concat(node_updates, axis=-1), concat(edge_updates, axis=-1)


class GATEEncoder(Module):
    """A stack of GAT-e layers with residual connections.

    The last layer uses the averaging/delayed-activation form of Eq. 26.
    Residual connections are not in the paper's equations but are
    standard for deep GATs and keep the K-layer stack trainable; they
    preserve the paper's information flow.
    """

    def __init__(self, dim: int, num_layers: int, num_heads: int,
                 rng: np.random.Generator):
        super().__init__()
        if num_layers < 1:
            raise ValueError("encoder needs at least one layer")
        self.layers = [
            GATELayer(dim, num_heads, rng, final=(i == num_layers - 1))
            for i in range(num_layers)
        ]

    def forward_batch(self, nodes: Tensor, edges: Tensor,
                      adjacency: np.ndarray,
                      need_edges: bool = True) -> Tuple[Tensor, Optional[Tensor]]:
        """Batched stack over ``(B, n, d)`` / ``(B, n, n, d)`` inputs.

        With ``need_edges=False`` the last layer's edge update — whose
        output no caller reads — is skipped; node outputs are identical.

        When gradients are disabled, the stack runs the fused kernel
        (:func:`repro.kernels.fused.gat_encoder_forward`) — bit-identical
        results, no tape; training keeps the Tensor path below.
        """
        if not is_grad_enabled():
            with span("kernel.gat_encoder", batch_size=nodes.shape[0],
                      layers=len(self.layers)):
                out_nodes, out_edges = fused.gat_encoder_forward(
                    self, nodes.data, edges.data,
                    np.asarray(adjacency, dtype=bool), need_edges=need_edges)
            return Tensor(out_nodes), (
                None if out_edges is None else Tensor(out_edges))
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            layer_need_edges = need_edges or index < last
            node_update, edge_update = layer.forward_batch(
                nodes, edges, adjacency, need_edges=layer_need_edges)
            nodes = nodes + node_update
            if layer_need_edges:
                edges = edges + edge_update
        return nodes, edges if need_edges else None
