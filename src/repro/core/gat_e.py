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

:class:`GATEHead` and :class:`GATELayer` hold the weights.  The stack
runs one forward, :func:`repro.kernels.fused.gat_encoder_forward`, for
training and serving alike; with gradients on it is one tape node whose
backward is written out below.  The per-head Tensor code it replaced is
kept in ``tests/test_gat_tape.py`` as the reference that pins both,
bitwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..autodiff import Tensor, is_grad_enabled
from ..kernels import fused
from ..kernels.fused import _stacked
from ..nn import Module
from ..nn.init import xavier_uniform
from ..nn.module import Parameter
from ..obs.tracing import span


class GATEHead(Module):
    """The weights of one attention head of a GAT-e layer.

    ``w1`` and the split attention vector ``a_v = [a_src ; a_dst]`` with
    ``a_edge`` score the neighbours (Eqs. 20-21); ``w2`` makes the node
    messages (Eq. 22); ``w3``/``w4``/``w5`` update the edges (Eq. 23).
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


class GATELayer(Module):
    """The heads of one multi-head GAT-e layer.

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
                      adjacency: np.ndarray) -> Tensor:
        """Encode ``(B, n, d)`` nodes over ``(B, n, n, d)`` edges.

        The stack runs :func:`repro.kernels.fused.gat_encoder_forward`,
        which skips the last layer's edge update: no output reads it.
        With gradients on, the stack is one tape node.  Its backward
        runs each layer's per-head products over head-stacked arrays
        and sums every gradient in the order the per-head tape did, so
        outputs and gradients are bitwise those of the per-head Tensor
        code (``tests/test_gat_tape.py``).
        """
        mask = np.asarray(adjacency, dtype=bool)
        if not is_grad_enabled():
            with span("kernel.gat_encoder", batch_size=nodes.shape[0],
                      layers=len(self.layers)):
                return Tensor(fused.gat_encoder_forward(
                    self, nodes.data, edges.data, mask))
        saved: list = []
        out = fused.gat_encoder_forward(self, nodes.data, edges.data, mask,
                                        saved=saved)

        def backward(grad: np.ndarray) -> None:
            mask_f = mask.astype(np.float64)
            grad_nodes, grad_edges = grad, None
            for layer, record in zip(reversed(self.layers), reversed(saved)):
                grad_nodes, grad_edges = _layer_backward(
                    layer, record, mask, mask_f, grad_nodes, grad_edges)
            if nodes.requires_grad:
                nodes._accumulate(grad_nodes)
            if edges.requires_grad:
                edges._accumulate(grad_edges)

        # Every weight the forward reads: the final layer's edge update
        # (w3/w4/w5) is never computed.
        weights = tuple(
            weight for layer in self.layers for head in layer.heads
            for weight in (head.w1, head.a_src, head.a_dst, head.a_edge,
                           head.w2)
            + (() if layer.final else (head.w3, head.w4, head.w5)))
        return Tensor.from_op(out, (nodes, edges) + weights, backward,
                              "gat_encoder")


def _head_major(values: np.ndarray, num_heads: int) -> np.ndarray:
    """Concatenated head outputs ``(..., H * hd)`` as an ``(H, ..., hd)``
    view."""
    return np.moveaxis(values.reshape(values.shape[:-1] + (num_heads, -1)),
                       -2, 0)


def _ordered_sum(terms) -> np.ndarray:
    """``((t0 + t1) + t2) + ...``: how the tape accumulates a gradient."""
    terms = iter(terms)
    total = np.array(next(terms))
    for term in terms:
        total += term
    return total


def _add_grad(parameter, grad: np.ndarray) -> None:
    if parameter.requires_grad:
        parameter._accumulate(grad)


def _stacked_t(heads, name: str) -> np.ndarray:
    """Every head's ``W.T`` stacked as ``(H, 1, out, in)``, each slice
    laid out as the per-head ``W.T`` view."""
    return np.swapaxes(_stacked(heads, name), -1, -2)[:, None]


def _vector_grads(values: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``(H, d)`` gradients of each head's attention vector ``a`` in
    ``values @ a``, from ``grad`` of shape ``(H, ...)``: each head sums
    over its rows as ``Tensor.__matmul__``'s backward does."""
    product = values * grad[..., None]
    return product.reshape(len(grad), -1, product.shape[-1]).sum(axis=1)


def _layer_backward(layer, record, mask, mask_f, grad_out, grad_edges_out):
    """One layer's backward over head-stacked arrays.

    ``grad_out`` (``grad_edges_out``) is the gradient of the layer's
    residual node (edge) output; the final layer has no edge output.
    Accumulates the heads' weight gradients and returns the gradients
    of the layer's input nodes and edges.

    Every product is the one the per-head tape computes, on arrays of
    the same layout, so each head's slice of a stacked matmul is the
    per-head GEMM.  The per-head tape adds the contributions to a layer
    input in a fixed order, which this function keeps: for the input
    nodes, each head's ``w4`` then ``w5`` term, then the residual, then
    each head's ``w1`` then ``w2`` term (the final layer: the residual,
    then the ``w1``/``w2`` terms); for the input edges, the residual,
    then every head's ``w3`` term, then every head's ``a_edge`` term
    (the final layer: the ``a_edge`` terms).
    """
    heads = layer.heads
    num_heads = len(heads)
    nodes, edges = record["nodes"], record["edges"]
    batch, n, _ = nodes.shape
    head_dim = heads[0].w2.data.shape[1]
    nodes_t = np.swapaxes(nodes, -1, -2)

    # Each head's node-update gradient through the ReLU(s) (Eqs. 24-26).
    if layer.final:
        average = (grad_out * record["node_positive"]) * (1.0 / num_heads)
        head_grad = np.broadcast_to(average, (num_heads,) + average.shape)
    else:
        head_grad = np.empty((num_heads, batch, n, head_dim))
        np.multiply(_head_major(grad_out, num_heads), record["node_positive"],
                    out=head_grad)

    # Aggregation alpha @ (h W2) (Eq. 22).
    grad_attention = np.matmul(head_grad,
                               np.swapaxes(record["messages"], -1, -2))
    grad_messages = np.matmul(np.swapaxes(record["attention"], -1, -2),
                              head_grad)

    # Masked softmax (autodiff.masked_softmax's tape), then leaky ReLU.
    exps, denominator = record["exps"], record["denominator"]
    grad_exps = grad_attention / denominator
    grad_exps += ((-grad_attention) * exps / denominator ** 2).sum(
        axis=-1, keepdims=True)
    grad_exps *= mask_f
    # The exp's backward multiplies by exp(x), which is 1.0 where
    # masked; the masked exponentials hold 0.0 there, and where() below
    # zeroes those positions either way.
    grad_exps *= exps
    grad_logits = np.where(mask, grad_exps, 0.0)
    grad_logits *= np.where(record["positive"], 1.0, heads[0].leaky_slope)

    # Attention logits (Eq. 20): source/target scores of h W1, edge score.
    grad_source = grad_logits.sum(axis=-1)
    grad_target = grad_logits.sum(axis=-2)
    transformed = record["transformed"]
    grad_transformed = (grad_source[..., None]
                        * _stacked(heads, "a_src")[:, None, None, :])
    grad_transformed += (grad_target[..., None]
                         * _stacked(heads, "a_dst")[:, None, None, :])
    from_w1 = np.matmul(grad_transformed, _stacked_t(heads, "w1"))
    from_w2 = np.matmul(grad_messages, _stacked_t(heads, "w2"))
    grad_a_src = _vector_grads(transformed, grad_source)
    grad_a_dst = _vector_grads(transformed, grad_target)
    grad_w1 = np.matmul(nodes_t, grad_transformed)
    grad_w2 = np.matmul(nodes_t, grad_messages)
    for index, head in enumerate(heads):
        _add_grad(head.a_src, grad_a_src[index])
        _add_grad(head.a_dst, grad_a_dst[index])
        # One head at a time: edge-sized temporaries.
        _add_grad(head.a_edge,
                  _vector_grads(edges, grad_logits[index:index + 1])[0])
        _add_grad(head.w1, grad_w1[index])
        _add_grad(head.w2, grad_w2[index])
    from_a_edge = (grad_logits[index][..., None] * head.a_edge.data
                   for index, head in enumerate(heads))
    from_w12 = [term for index in range(num_heads)
                for term in (from_w1[index], from_w2[index])]
    if layer.final:
        return (_ordered_sum([grad_out] + from_w12),
                _ordered_sum(from_a_edge))

    # Edge update e W3 + h_i W4 + h_j W5 (Eq. 23), through the ReLU.
    edge_grad = np.empty((num_heads, batch, n, n, head_dim))
    np.multiply(_head_major(grad_edges_out, num_heads),
                record["edge_positive"], out=edge_grad)
    grad_w4_nodes = edge_grad.sum(axis=3)      # h_i W4, broadcast over j
    grad_w5_nodes = edge_grad.sum(axis=2)      # h_j W5, broadcast over i
    from_w4 = np.matmul(grad_w4_nodes, _stacked_t(heads, "w4"))
    from_w5 = np.matmul(grad_w5_nodes, _stacked_t(heads, "w5"))
    grad_w4 = np.matmul(nodes_t, grad_w4_nodes)
    grad_w5 = np.matmul(nodes_t, grad_w5_nodes)
    edges_t = np.swapaxes(edges, -1, -2)
    for index, head in enumerate(heads):
        _add_grad(head.w3, edges_t @ edge_grad[index])
        _add_grad(head.w4, grad_w4[index])
        _add_grad(head.w5, grad_w5[index])
    from_w3 = (edge_grad[index] @ head.w3.data.T
               for index, head in enumerate(heads))
    from_w45 = [term for index in range(num_heads)
                for term in (from_w4[index], from_w5[index])]
    grad_nodes = _ordered_sum(from_w45 + [grad_out] + from_w12)
    grad_edges = _ordered_sum(itertools.chain([grad_edges_out], from_w3,
                                              from_a_edge))
    return grad_nodes, grad_edges
