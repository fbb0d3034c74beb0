"""Tests for the GAT-e attention layer and encoder stack.

The head and layer tests run the per-head Tensor code the encoder's
tape node replaced (``tests/test_gat_tape.py``), which pins that op to
it bitwise.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.core import GATEEncoder, GATEHead, GATELayer

from test_gat_tape import reference_attention, reference_head, reference_layer


def random_graph(rng, n=5, d=8):
    """One graph as a batch of one: ``(1, n, d)`` nodes, ``(1, n, n, d)``
    edges and ``(1, n, n)`` adjacency."""
    nodes = Tensor(rng.normal(size=(1, n, d)), requires_grad=True)
    edges = Tensor(rng.normal(size=(1, n, n, d)), requires_grad=True)
    adjacency = rng.random((n, n)) > 0.4
    adjacency |= adjacency.T
    np.fill_diagonal(adjacency, True)
    return nodes, edges, adjacency[None]


class TestGATEHead:
    def test_attention_rows_sum_to_one(self, rng):
        nodes, edges, adjacency = random_graph(rng)
        head = GATEHead(8, 4, rng)
        alpha = reference_attention(head, nodes, edges, adjacency)
        assert np.allclose(alpha.data.sum(axis=2), 1.0)

    def test_attention_respects_mask(self, rng):
        nodes, edges, adjacency = random_graph(rng)
        head = GATEHead(8, 4, rng)
        alpha = reference_attention(head, nodes, edges, adjacency)
        assert np.all(alpha.data[~adjacency] == 0.0)

    def test_edge_features_change_attention(self, rng):
        nodes, edges, adjacency = random_graph(rng)
        head = GATEHead(8, 4, rng)
        alpha1 = reference_attention(head, nodes, edges, adjacency).data
        edges2 = Tensor(edges.data + rng.normal(size=edges.shape))
        alpha2 = reference_attention(head, nodes, edges2, adjacency).data
        assert not np.allclose(alpha1, alpha2)

    def test_output_shapes(self, rng):
        nodes, edges, adjacency = random_graph(rng, n=6, d=8)
        head = GATEHead(8, 4, rng)
        node_update, edge_update, alpha = reference_head(head, nodes, edges,
                                                         adjacency)
        assert node_update.shape == (1, 6, 4)
        assert edge_update.shape == (1, 6, 6, 4)
        assert alpha.shape == (1, 6, 6)

    def test_gradcheck_small(self, rng):
        nodes = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        edges = Tensor(rng.normal(size=(1, 3, 3, 4)), requires_grad=True)
        adjacency = np.ones((1, 3, 3), dtype=bool)
        head = GATEHead(4, 2, rng)

        def fn():
            node_update, edge_update, _ = reference_head(head, nodes, edges,
                                                         adjacency)
            return (node_update ** 2).sum() + (edge_update ** 2).sum()

        check_gradients(fn, [nodes, edges] + head.parameters())


class TestGATELayer:
    def test_concat_layer_preserves_dim(self, rng):
        nodes, edges, adjacency = random_graph(rng, d=8)
        layer = GATELayer(8, num_heads=2, rng=rng, final=False)
        node_out, edge_out = reference_layer(layer, nodes, edges, adjacency)
        assert node_out.shape == (1, 5, 8)
        assert edge_out.shape == (1, 5, 5, 8)

    def test_concat_layer_nonnegative(self, rng):
        nodes, edges, adjacency = random_graph(rng, d=8)
        layer = GATELayer(8, num_heads=2, rng=rng, final=False)
        node_out, edge_out = reference_layer(layer, nodes, edges, adjacency)
        assert np.all(node_out.data >= 0)
        assert np.all(edge_out.data >= 0)

    def test_final_layer_averages_heads(self, rng):
        nodes, edges, adjacency = random_graph(rng, d=8)
        layer = GATELayer(8, num_heads=3, rng=rng, final=True)
        node_out, _ = reference_layer(layer, nodes, edges, adjacency)
        assert node_out.shape == (1, 5, 8)
        assert np.all(node_out.data >= 0)

    def test_dim_divisibility_enforced(self, rng):
        with pytest.raises(ValueError):
            GATELayer(10, num_heads=3, rng=rng)

    def test_final_layer_any_heads(self, rng):
        GATELayer(10, num_heads=3, rng=rng, final=True)


class TestGATEEncoder:
    def test_requires_layer(self, rng):
        with pytest.raises(ValueError):
            GATEEncoder(8, 0, 2, rng)

    def test_output_shapes(self, rng):
        nodes, edges, adjacency = random_graph(rng, d=8)
        encoder = GATEEncoder(8, num_layers=2, num_heads=2, rng=rng)
        node_out = encoder.forward_batch(nodes, edges, adjacency)
        assert node_out.shape == (1, 5, 8)

    def test_isolated_components_do_not_mix(self, rng):
        # Two disconnected cliques: changing one must not move the other.
        n, d = 6, 8
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[:3, :3] = True
        adjacency[3:, 3:] = True
        encoder = GATEEncoder(d, num_layers=2, num_heads=2, rng=rng)
        nodes = rng.normal(size=(1, n, d))
        edges = rng.normal(size=(1, n, n, d))
        base = encoder.forward_batch(Tensor(nodes), Tensor(edges),
                                     adjacency[None])
        nodes2 = nodes.copy()
        nodes2[0, 0] += 5.0
        # Also perturb edges touching node 0 only within its clique.
        moved = encoder.forward_batch(Tensor(nodes2), Tensor(edges),
                                      adjacency[None])
        assert not np.allclose(base.data[0, :3], moved.data[0, :3])
        assert np.allclose(base.data[0, 3:], moved.data[0, 3:])

    def test_gradients_flow_to_all_parameters(self, rng):
        """Every weight but the final layer's edge update (``w3``/``w4``/
        ``w5``), whose output nothing reads."""
        nodes, edges, adjacency = random_graph(rng, d=8)
        encoder = GATEEncoder(8, num_layers=2, num_heads=2, rng=rng)
        node_out = encoder.forward_batch(nodes, edges, adjacency)
        (node_out ** 2).sum().backward()
        missing = {name for name, p in encoder.named_parameters()
                   if p.grad is None}
        assert missing == {f"layers.1.heads.{head}.{weight}"
                           for head in range(2)
                           for weight in ("w3", "w4", "w5")}
        assert nodes.grad is not None and edges.grad is not None
