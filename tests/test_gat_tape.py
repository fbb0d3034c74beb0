"""The GAT-e stack's tape node.

With gradients on, ``GATEEncoder.forward_batch`` records a level's whole
residual GAT-e stack as one tape node.  Its forward is
``fused.gat_encoder_forward``, the forward serving runs too, and its
backward is written out over head-stacked arrays.  These tests pin both
to the per-head Tensor code the op replaced, kept here verbatim as the
reference (``reference_gat``): outputs, input gradients and every weight
gradient bitwise, so training, and every result a trained model gives,
is unchanged.

The backward must add the gradients of a layer's inputs in the order
the per-head tape did.  In a layer that updates edges, that order puts
the residual between head terms (see ``gat_e._layer_backward``); only a
stack of two or more layers has such a layer, so the model-level checks
run 2- and 3-layer encoders.  ``TestServedAnswers`` keeps an independent
check of served answers: the spec (``M2G4RTP.predict``) and the fused
kernels share the GAT-e forward, so it runs the spec on the reference.

The ``--runslow`` leg sweeps the op, the model step and the served
answers over seeded shapes and configs.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, concat, masked_softmax
from repro.core import (BatchedM2G4RTP, GraphBatch, M2G4RTP, M2G4RTPConfig,
                        RTPTargets, make_variant)
from repro.core.gat_e import GATEEncoder
from repro.core.model import VARIANT_NAMES


# ----------------------------------------------------------------------
# The per-head Tensor code the tape node replaced
# ----------------------------------------------------------------------
def reference_attention(head, nodes, edges, adjacency):
    """Masked attention matrix ``alpha`` of Eq. 21, ``(B, n, n)``.

    ``adjacency`` rows belonging to padding nodes are entirely
    ``False``; :func:`masked_softmax` gives those rows an all-zero
    output instead of NaN, and padding columns get probability
    exactly zero for every real row.
    """
    transformed = nodes @ head.w1
    source_score = transformed @ head.a_src      # (B, n)
    target_score = transformed @ head.a_dst      # (B, n)
    edge_score = edges @ head.a_edge             # (B, n, n)
    batch, n = source_score.shape
    logits = (source_score.reshape(batch, n, 1)
              + target_score.reshape(batch, 1, n)
              + edge_score).leaky_relu(head.leaky_slope)
    return masked_softmax(logits, np.asarray(adjacency, dtype=bool), axis=2)


def reference_head(head, nodes, edges, adjacency, need_edges=True):
    """Return (pre-activation node update, edge update, alpha) over
    ``(B, n, d)`` nodes and ``(B, n, n, d)`` edges.

    ``need_edges=False`` skips the edge update (the node update never
    reads it, so node outputs are unchanged) — used for the last
    encoder layer, whose edge output is discarded.
    """
    alpha = reference_attention(head, nodes, edges, adjacency)
    node_update = alpha @ (nodes @ head.w2)
    if not need_edges:
        return node_update, None, alpha
    batch, n = alpha.shape[0], alpha.shape[1]
    edge_update = (
        edges @ head.w3
        + (nodes @ head.w4).reshape(batch, n, 1, -1)
        + (nodes @ head.w5).reshape(batch, 1, n, -1)
    )
    return node_update, edge_update, alpha


def reference_layer(layer, nodes, edges, adjacency, need_edges=True):
    """Run every head and combine them (Eqs. 24-26)."""
    node_updates = []
    edge_updates = []
    for head in layer.heads:
        node_update, edge_update, _ = reference_head(
            head, nodes, edges, adjacency, need_edges=need_edges)
        if not layer.final:
            node_update = node_update.relu()
            if need_edges:
                edge_update = edge_update.relu()
        node_updates.append(node_update)
        edge_updates.append(edge_update)
    if layer.final:
        count = float(len(layer.heads))
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


def reference_gat(gat, nodes, edges, adjacency, need_edges=True):
    """Batched residual stack over ``(B, n, d)`` / ``(B, n, n, d)`` inputs.

    With ``need_edges=False`` the last layer's edge update — whose
    output no caller reads — is skipped; node outputs are identical.
    """
    last = len(gat.layers) - 1
    for index, layer in enumerate(gat.layers):
        layer_need_edges = need_edges or index < last
        node_update, edge_update = reference_layer(
            layer, nodes, edges, adjacency, need_edges=layer_need_edges)
        nodes = nodes + node_update
        if layer_need_edges:
            edges = edges + edge_update
    return nodes, edges if need_edges else None


def reference_forward_batch(gat, nodes, edges, adjacency):
    """``reference_gat`` in the shape of ``GATEEncoder.forward_batch``."""
    return reference_gat(gat, nodes, edges, adjacency, need_edges=False)[0]


def assert_grads_equal(grads, reference, names):
    for grad, want, name in zip(grads, reference, names):
        if want is None:
            assert grad is None, name
        else:
            np.testing.assert_array_equal(grad, want, err_msg=name)


# ----------------------------------------------------------------------
# (a) The op against the reference
# ----------------------------------------------------------------------
def stack_case(rng, layers, heads, batch, n, dim=8, masked_rows=0):
    """A stack and a padded batch: rows past each length are padding
    (all ``False``), and ``masked_rows`` real rows have no neighbour."""
    gat = GATEEncoder(dim, layers, heads, rng)
    lengths = rng.integers(1, n + 1, size=batch)
    lengths[0] = n
    adjacency = np.zeros((batch, n, n), dtype=bool)
    for b, k in enumerate(lengths):
        adjacency[b, :k, :k] = rng.random((k, k)) < 0.6
        adjacency[b, rng.choice(k, size=min(masked_rows, k),
                                replace=False)] = False
    nodes = Tensor(rng.normal(size=(batch, n, dim)), requires_grad=True)
    edges = Tensor(rng.normal(size=(batch, n, n, dim)), requires_grad=True)
    return gat, nodes, edges, adjacency


def assert_stack_parity(rng, gat, nodes, edges, adjacency):
    upstream = Tensor(rng.normal(size=nodes.shape))
    leaves = [nodes, edges] + gat.parameters()
    names = ["nodes", "edges"] + [name for name, _ in gat.named_parameters()]
    runs = []
    for run in (reference_forward_batch, GATEEncoder.forward_batch):
        for leaf in leaves:
            leaf.zero_grad()
        out = run(gat, nodes, edges, adjacency)
        (out * upstream).sum().backward()
        runs.append((out.data, [None if leaf.grad is None else leaf.grad.copy()
                                for leaf in leaves]))
    (ref_out, ref_grads), (out, grads) = runs
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out, ref_out)
    assert_grads_equal(grads, ref_grads, names)


class TestStackOp:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_reference(self, layers, heads):
        rng = np.random.default_rng(layers * 10 + heads)
        case = stack_case(rng, layers, heads, batch=int(rng.integers(1, 9)),
                          n=int(rng.integers(2, 33)), masked_rows=1)
        assert_stack_parity(rng, *case)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_padding_and_fully_masked_rows(self, layers):
        rng = np.random.default_rng(layers)
        case = stack_case(rng, layers, 2, batch=5, n=9, masked_rows=3)
        assert_stack_parity(rng, *case)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_all_masked_graph(self, rng, layers):
        gat, nodes, edges, adjacency = stack_case(rng, layers, 2, batch=2, n=4)
        assert_stack_parity(rng, gat, nodes, edges, np.zeros_like(adjacency))

    @pytest.mark.parametrize("connected", [True, False])
    def test_single_node_graph(self, rng, connected):
        gat, nodes, edges, _ = stack_case(rng, 2, 2, batch=1, n=1)
        assert_stack_parity(rng, gat, nodes, edges,
                            np.full((1, 1, 1), connected))

    def test_heads_of_width_one(self, rng):
        """Four heads of width 1: the narrowest concatenated slices."""
        case = stack_case(rng, 2, 4, batch=3, n=6, dim=4)
        assert_stack_parity(rng, *case)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_sweep(self, seed):
        rng = np.random.default_rng(seed)
        heads = int(rng.choice([1, 2, 4]))
        case = stack_case(rng, int(rng.integers(1, 4)), heads,
                          batch=int(rng.integers(1, 9)),
                          n=int(rng.integers(1, 33)),
                          dim=heads * int(rng.choice([1, 2, 4])),
                          masked_rows=int(rng.integers(0, 4)))
        assert_stack_parity(rng, *case)


# ----------------------------------------------------------------------
# (b) One teacher-forced M2G4RTP step against the per-head model
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool(dataset, builder):
    instances = list(dataset)
    graphs = [builder.build(instance) for instance in instances]
    targets = [RTPTargets.from_instance(instance) for instance in instances]
    return graphs, targets


def losses_and_grads(model, graphs, targets):
    for parameter in model.parameters():
        parameter.zero_grad()
    output = model(GraphBatch.from_graphs(graphs), targets)
    output.total_loss.backward()
    losses = {task: loss.data.copy() for task, loss in output.losses.items()}
    losses["total"] = output.total_loss.data.copy()
    return losses, [None if p.grad is None else p.grad.copy()
                    for p in model.parameters()]


def assert_model_parity(model, graphs, targets):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GATEEncoder, "forward_batch", reference_forward_batch)
        ref_losses, ref_grads = losses_and_grads(model, graphs, targets)
    losses, grads = losses_and_grads(model, graphs, targets)
    assert losses.keys() == ref_losses.keys()
    for task, loss in losses.items():
        np.testing.assert_array_equal(loss, ref_losses[task], err_msg=task)
    assert_grads_equal(grads, ref_grads,
                       [name for name, _ in model.named_parameters()])


class TestModelParity:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("layers", [2, 3])
    def test_mixed_group(self, pool, variant, layers):
        """The default config (2 layers, 4 heads) and a 3-layer one."""
        graphs, targets = pool
        counts = [g.num_locations for g in graphs]
        indices = [counts.index(n) for n in (20, 3, 16, 9, 5)]
        model = M2G4RTP(make_variant(variant, M2G4RTPConfig(
            num_encoder_layers=layers, seed=layers)))
        model.train()
        assert_model_parity(model, [graphs[i] for i in indices],
                            [targets[i] for i in indices])

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_sweep(self, pool, seed):
        graphs, targets = pool
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(graphs), size=int(rng.integers(1, 7)),
                             replace=False)
        heads = int(rng.choice([1, 2, 4]))
        model = M2G4RTP(make_variant(
            VARIANT_NAMES[seed % len(VARIANT_NAMES)],
            M2G4RTPConfig(hidden_dim=heads * int(rng.choice([2, 4, 8])),
                          num_heads=heads,
                          num_encoder_layers=int(rng.integers(1, 4)),
                          seed=seed)))
        model.train()
        assert_model_parity(model, [graphs[i] for i in indices],
                            [targets[i] for i in indices])


# ----------------------------------------------------------------------
# (c) Served answers against a spec that runs the reference
# ----------------------------------------------------------------------
def assert_served_match_reference_spec(model, graphs):
    """Each graph served as a batch of one, as a single request is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GATEEncoder, "forward_batch", reference_forward_batch)
        spec = [model.predict(graph) for graph in graphs]
    engine = BatchedM2G4RTP(model)
    for want, graph in zip(spec, graphs):
        out, = engine.predict([graph])
        np.testing.assert_array_equal(out.route, want.route)
        np.testing.assert_array_equal(out.arrival_times, want.arrival_times)
        if want.aoi_route is None:
            assert out.aoi_route is None
        else:
            np.testing.assert_array_equal(out.aoi_route, want.aoi_route)
            np.testing.assert_array_equal(out.aoi_arrival_times,
                                          want.aoi_arrival_times)


class TestServedAnswers:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_variant_sweep(self, sweep_graphs, variant):
        model = M2G4RTP(make_variant(variant, M2G4RTPConfig(seed=5)))
        assert_served_match_reference_spec(model, sweep_graphs)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_sweep(self, world, builder, seed):
        rng = np.random.default_rng(seed)
        graphs = [builder.build(world.simulate_courier_day(
            int(rng.integers(0, 4)), int(rng.integers(0, 6)),
            num_locations=n, num_aois=int(rng.integers(1, min(n, 16) + 1)),
            seed=int(rng.integers(0, 2 ** 31))))
            for n in rng.integers(1, 65, size=int(rng.integers(1, 5)))]
        model = M2G4RTP(make_variant(
            VARIANT_NAMES[seed % len(VARIANT_NAMES)],
            M2G4RTPConfig(num_encoder_layers=int(rng.integers(1, 4)),
                          seed=seed)))
        assert_served_match_reference_spec(model, graphs)


# ----------------------------------------------------------------------
# (d) One tape node per level, and finite differences
# ----------------------------------------------------------------------
def tape_ops(root):
    """The op name of every tape node reachable from ``root``."""
    ops, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops.append(node._op)
        stack.extend(node._parents)
    return ops


class TestOneNode:
    def test_one_tape_node_per_level(self, pool):
        graphs, targets = pool
        model = M2G4RTP(M2G4RTPConfig())
        gat = model.encoder.location_encoder.gat
        output = model(GraphBatch.from_graphs(graphs[:3]), targets[:3])
        ops = tape_ops(output.total_loss)
        assert ops.count("gat_encoder") == 2
        assert "leaky_relu" not in ops      # no per-head attention left
        nodes = Tensor(np.ones((1, 2, 32)), requires_grad=True)
        edges = Tensor(np.ones((1, 2, 2, 32)), requires_grad=True)
        out = gat.forward_batch(nodes, edges, np.ones((1, 2, 2), dtype=bool))
        assert out._op == "gat_encoder"
        assert [id(p) for p in out._parents[:2]] == [id(nodes), id(edges)]
        unread = {id(getattr(head, name)) for head in gat.layers[-1].heads
                  for name in ("w3", "w4", "w5")}
        assert sorted(id(p) for p in out._parents[2:]) == sorted(
            id(p) for p in gat.parameters() if id(p) not in unread)

    def test_finite_differences(self, rng):
        gat, nodes, edges, adjacency = stack_case(rng, 2, 2, batch=2, n=3,
                                                  dim=4)
        upstream = Tensor(rng.normal(size=nodes.shape))
        out = gat.forward_batch(nodes, edges, adjacency)
        check_gradients(
            lambda: (gat.forward_batch(nodes, edges, adjacency)
                     * upstream).sum(),
            list(out._parents))
