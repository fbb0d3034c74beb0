"""Differential conformance suite for the fused kernels.

Contract (see ``repro.kernels``): every no-grad inference kernel —
level embed, GAT-e encoder stack, LSTM stepper, pointer decode,
sort-RNN — must reproduce the Tensor code of the matching
``repro.core`` method *run with gradients enabled*, i.e. the code
training runs.  Throughout this file, the "reference" side of a
comparison is that grad-enabled Tensor code, never another fast path.
One stage differs: training runs the GAT-e kernel's own forward (one
tape node per level), so the GAT-e cases compare the kernel with the
per-head Tensor code that op replaced, ``reference_gat`` of
``tests/test_gat_tape.py``.  Every comparison is exact:

* encoder embeddings bit-identical;
* decoded routes exactly, at both levels, including tie behaviour and
  the padding region;
* arrival times bit-identical.

That Tensor code is the reference chain's next link:
``tests/test_sequence_tape.py`` pins its LSTM unroll
(``LSTMCell.unroll``, one tape node per sequence) to a loop of
``LSTMCell.forward``, and its teacher-forced decode to the per-step
loop; ``tests/test_gat_tape.py`` pins the GAT-e tape node, forward and
backward, to the per-head Tensor code.

The sweep covers randomized instances from 1 to 64 locations and 1 to
16 AOIs, every ablation variant, and the
degenerate shapes that historically break masked kernels: single-node
graphs, fully-masked attention rows and zero-length decode rows.  A
seeded fuzz sweep over random kernel-level shapes and whole models
runs under ``--runslow``.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, is_grad_enabled, no_grad
from repro.core import BatchedM2G4RTP, GraphBatch, M2G4RTP, M2G4RTPConfig, make_variant
from repro.core.gat_e import GATEEncoder
from repro.kernels import fused
from repro.nn import LSTMCell

from test_gat_tape import reference_gat


def small_config(**overrides) -> M2G4RTPConfig:
    base = dict(hidden_dim=16, num_heads=2, num_encoder_layers=1,
                continuous_embed_dim=8, discrete_embed_dim=4,
                position_dim=4, courier_embed_dim=4, seed=5)
    base.update(overrides)
    return M2G4RTPConfig(**base)


@pytest.fixture(autouse=True)
def _grad_enabled():
    """The reference side of every comparison must run the Tensor code."""
    assert is_grad_enabled()


def tensor_gat(gat, nodes, edges, adjacency, need_edges=True):
    """The per-head reference stack (``reference_gat``) on raw arrays."""
    out_nodes, out_edges = reference_gat(
        gat, Tensor(nodes), Tensor(edges), adjacency, need_edges=need_edges)
    return out_nodes.data, (None if out_edges is None else out_edges.data)


def tensor_decode(route, nodes, courier, lengths, adjacency=None):
    """Grad-enabled greedy ``RouteDecoder.forward_batch`` on raw arrays."""
    routes, _ = route.forward_batch(Tensor(nodes), Tensor(courier), lengths,
                                    adjacency=adjacency)
    return routes


def tensor_sort(sort, nodes, routes, lengths):
    """Grad-enabled ``SortLSTM.forward_batch`` on raw arrays."""
    return sort.forward_batch(Tensor(nodes), routes, lengths).data


# ----------------------------------------------------------------------
# Kernel units: recurrent steppers
# ----------------------------------------------------------------------
class TestRecurrentKernels:
    @pytest.mark.parametrize("batch", [1, 5])
    def test_stepper_matches_reference(self, batch, rng):
        cell = LSTMCell(6, 8, rng)
        xs = rng.normal(size=(10, batch, 6))
        fused_rec = fused._FusedRecurrent(cell, batch)
        state = cell.initial_state((batch,))
        for step in range(xs.shape[0]):
            state = cell(Tensor(xs[step]), state)
            h_fused = fused_rec.step(xs[step])
            np.testing.assert_array_equal(h_fused, state[0].data)

    def test_stepper_1d_start_token_broadcast(self, rng):
        """A 1-D input (the decoder start token) must broadcast exactly
        like the Tensor cell's vector-matmul path."""
        cell = LSTMCell(6, 8, rng)
        token = rng.normal(size=6)
        fused_rec = fused._FusedRecurrent(cell, 3)
        h_ref, _ = cell(Tensor(token), cell.initial_state((3,)))
        h_fused = fused_rec.step(token)
        assert h_ref.shape == (3, 8)
        np.testing.assert_array_equal(h_fused, h_ref.data)



# ----------------------------------------------------------------------
# Kernel units: GAT-e encoder stack
# ----------------------------------------------------------------------
def random_gat_inputs(rng, batch, n, dim, mask_rows=0):
    nodes = rng.normal(size=(batch, n, dim))
    edges = rng.normal(size=(batch, n, n, dim))
    adjacency = rng.random((batch, n, n)) < 0.6
    for b in range(batch):
        for row in rng.choice(n, size=min(mask_rows, n), replace=False):
            adjacency[b, row, :] = False
    return nodes, edges, adjacency


class TestGATKernel:
    @pytest.mark.parametrize("need_edges", [True, False])
    def test_stack_matches_reference(self, rng, need_edges):
        """The kernel never computes the last layer's edge update; the
        reference's nodes are the same with it (``True``) or without."""
        gat = GATEEncoder(dim=8, num_layers=2, num_heads=2, rng=rng)
        nodes, edges, adjacency = random_gat_inputs(rng, batch=3, n=7, dim=8)
        ref_nodes, _ = tensor_gat(gat, nodes, edges, adjacency,
                                  need_edges=need_edges)
        fused_nodes = fused.gat_encoder_forward(gat, nodes, edges, adjacency)
        np.testing.assert_array_equal(fused_nodes, ref_nodes)

    def test_fully_masked_rows_are_finite_and_equal(self, rng):
        """Rows with no neighbours (padding) must yield zeros, not NaN."""
        gat = GATEEncoder(dim=8, num_layers=2, num_heads=2, rng=rng)
        nodes, edges, adjacency = random_gat_inputs(
            rng, batch=2, n=6, dim=8, mask_rows=3)
        ref_nodes, _ = tensor_gat(gat, nodes, edges, adjacency)
        fused_nodes = fused.gat_encoder_forward(gat, nodes, edges, adjacency)
        assert np.isfinite(fused_nodes).all()
        np.testing.assert_array_equal(fused_nodes, ref_nodes)

    def test_all_rows_masked(self, rng):
        """An entirely disconnected graph (every row fully masked)."""
        gat = GATEEncoder(dim=8, num_layers=1, num_heads=2, rng=rng)
        nodes = rng.normal(size=(2, 4, 8))
        edges = rng.normal(size=(2, 4, 4, 8))
        adjacency = np.zeros((2, 4, 4), dtype=bool)
        ref_nodes, _ = tensor_gat(gat, nodes, edges, adjacency)
        fused_nodes = fused.gat_encoder_forward(gat, nodes, edges, adjacency)
        assert np.isfinite(fused_nodes).all()
        np.testing.assert_array_equal(fused_nodes, ref_nodes)

    def test_single_node_graph(self, rng):
        gat = GATEEncoder(dim=8, num_layers=2, num_heads=2, rng=rng)
        nodes = rng.normal(size=(1, 1, 8))
        edges = rng.normal(size=(1, 1, 1, 8))
        for adjacency in (np.ones((1, 1, 1), dtype=bool),
                          np.zeros((1, 1, 1), dtype=bool)):
            ref_nodes, _ = tensor_gat(gat, nodes, edges, adjacency)
            fused_nodes = fused.gat_encoder_forward(
                gat, nodes, edges, adjacency)
            np.testing.assert_array_equal(fused_nodes, ref_nodes)

    def test_outputs_not_aliased_across_calls(self, rng):
        """A second call must not corrupt previously returned arrays."""
        gat = GATEEncoder(dim=8, num_layers=1, num_heads=2, rng=rng)
        nodes, edges, adjacency = random_gat_inputs(rng, batch=2, n=5, dim=8)
        first = fused.gat_encoder_forward(gat, nodes, edges, adjacency)
        snapshot = first.copy()
        fused.gat_encoder_forward(gat, nodes * 2.0, edges, adjacency)
        np.testing.assert_array_equal(first, snapshot)


# ----------------------------------------------------------------------
# Kernel units: level feature embedding
# ----------------------------------------------------------------------
def tensor_embed(encoder, continuous, discrete, edge_features, global_data):
    """Grad-enabled ``LevelEncoder._embed_tensor`` on raw arrays."""
    nodes, edges = encoder._embed_tensor(continuous, discrete, edge_features,
                                         Tensor(global_data))
    return nodes.data, edges.data


class TestLevelEmbedKernel:
    @pytest.fixture()
    def level_encoder(self, rng):
        from repro.core.encoder import EncoderConfig, LevelEncoder
        config = EncoderConfig(hidden_dim=8, num_layers=1, num_heads=2,
                               continuous_embed_dim=6, discrete_embed_dim=4)
        return LevelEncoder(6, config, global_dim=10, rng=rng), config

    def embed_inputs(self, rng, batch=3, n=7):
        continuous = rng.normal(size=(batch, n, 6))
        discrete = np.stack([rng.integers(0, 256, size=(batch, n)),
                             rng.integers(0, 8, size=(batch, n))], axis=-1)
        edge_features = rng.normal(size=(batch, n, n, 3))
        global_data = rng.normal(size=(batch, 10))
        return continuous, discrete, edge_features, global_data

    def test_matches_reference(self, level_encoder, rng):
        encoder, _ = level_encoder
        inputs = self.embed_inputs(rng)
        ref_nodes, ref_edges = tensor_embed(encoder, *inputs)
        out_nodes, out_edges = fused.level_embed(encoder, *inputs)
        np.testing.assert_array_equal(out_nodes, ref_nodes)
        np.testing.assert_array_equal(out_edges, ref_edges)

    def test_single_node_level(self, level_encoder, rng):
        encoder, _ = level_encoder
        inputs = self.embed_inputs(rng, batch=1, n=1)
        ref_nodes, ref_edges = tensor_embed(encoder, *inputs)
        out_nodes, out_edges = fused.level_embed(encoder, *inputs)
        np.testing.assert_array_equal(out_nodes, ref_nodes)
        np.testing.assert_array_equal(out_edges, ref_edges)

    def test_out_of_range_embedding_index_raises(self, level_encoder, rng):
        encoder, _ = level_encoder
        continuous, discrete, edge_features, global_data = self.embed_inputs(rng)
        discrete[0, 0, 1] = 9999
        with pytest.raises(IndexError, match="out of range"):
            fused.level_embed(encoder, continuous, discrete, edge_features,
                              global_data)
        with pytest.raises(IndexError, match="out of range"):
            tensor_embed(encoder, continuous, discrete, edge_features,
                         global_data)


# ----------------------------------------------------------------------
# Kernel units: pointer decode and sort-RNN
# ----------------------------------------------------------------------
def build_decoders(rng, node_dim=10, courier_dim=4,
                   restrict_to_neighbors=False):
    from repro.core.decoder import RouteDecoder, SortLSTM
    route = RouteDecoder(node_dim=node_dim, state_dim=8,
                         courier_dim=courier_dim, rng=rng,
                         restrict_to_neighbors=restrict_to_neighbors)
    sort = SortLSTM(node_dim=node_dim, state_dim=8, position_dim=4,
                    rng=rng)
    return route, sort


class TestPointerDecodeKernel:
    def test_matches_reference(self, rng):
        route, _ = build_decoders(rng)
        nodes = rng.normal(size=(4, 9, 10))
        courier = rng.normal(size=(4, 4))
        lengths = np.array([9, 5, 1, 7])
        ref = tensor_decode(route, nodes, courier, lengths)
        out = fused.pointer_decode(route, nodes, courier, lengths)
        np.testing.assert_array_equal(out, ref)

    def test_zero_length_rows(self, rng):
        """Exhausted rows must loop on the dummy candidate like Tensor."""
        route, _ = build_decoders(rng)
        nodes = rng.normal(size=(3, 6, 10))
        courier = rng.normal(size=(3, 4))
        lengths = np.array([0, 6, 3])
        np.testing.assert_array_equal(
            fused.pointer_decode(route, nodes, courier, lengths),
            tensor_decode(route, nodes, courier, lengths))

    def test_single_node(self, rng):
        route, _ = build_decoders(rng)
        nodes = rng.normal(size=(1, 1, 10))
        courier = rng.normal(size=(1, 4))
        lengths = np.array([1])
        np.testing.assert_array_equal(
            fused.pointer_decode(route, nodes, courier, lengths),
            tensor_decode(route, nodes, courier, lengths))

    def test_restrict_to_neighbors_path(self, rng):
        route, _ = build_decoders(rng, restrict_to_neighbors=True)
        nodes = rng.normal(size=(3, 8, 10))
        courier = rng.normal(size=(3, 4))
        lengths = np.array([8, 4, 6])
        adjacency = rng.random((3, 8, 8)) < 0.5
        np.testing.assert_array_equal(
            fused.pointer_decode(route, nodes, courier, lengths, adjacency),
            tensor_decode(route, nodes, courier, lengths, adjacency))


class TestSortRNNKernel:
    def test_matches_reference(self, rng):
        _, sort = build_decoders(rng)
        batch, n = 4, 9
        nodes = rng.normal(size=(batch, n, 10))
        lengths = np.array([9, 5, 1, 7])
        routes = np.zeros((batch, n), dtype=np.int64)
        for b, k in enumerate(lengths):
            routes[b, :k] = rng.permutation(k)
        ref = tensor_sort(sort, nodes, routes, lengths)
        out = fused.sort_rnn_forward(sort, nodes, routes, lengths)
        np.testing.assert_array_equal(out, ref)
        # Padding positions are exactly zero.
        for b, k in enumerate(lengths):
            assert not out[b, k:].any()

    def test_single_step(self, rng):
        _, sort = build_decoders(rng)
        nodes = rng.normal(size=(1, 1, 10))
        routes = np.zeros((1, 1), dtype=np.int64)
        lengths = np.array([1])
        np.testing.assert_array_equal(
            fused.sort_rnn_forward(sort, nodes, routes, lengths),
            tensor_sort(sort, nodes, routes, lengths))


# ----------------------------------------------------------------------
# End-to-end sweep: full models over randomized instances
# ----------------------------------------------------------------------
def predict_tensor_and_fused(model, graphs):
    """``M2G4RTP.forward`` on one padded batch with grad on (Tensor) and
    off (fused, through ``BatchedM2G4RTP``)."""
    model.eval()
    batch = GraphBatch.from_graphs(graphs)
    ref = model(batch).rows(batch)
    return ref, BatchedM2G4RTP(model).predict(graphs)


def assert_outputs_identical(ref, out):
    assert len(ref) == len(out)
    for r, f in zip(ref, out):
        np.testing.assert_array_equal(f.route, r.route)
        np.testing.assert_array_equal(f.arrival_times, r.arrival_times)
        if r.aoi_route is None:
            assert f.aoi_route is None and f.aoi_arrival_times is None
        else:
            np.testing.assert_array_equal(f.aoi_route, r.aoi_route)
            np.testing.assert_array_equal(f.aoi_arrival_times,
                                          r.aoi_arrival_times)


class TestEndToEndConformance:
    @pytest.mark.parametrize("variant", ["full", "two-step", "w/o aoi",
                                         "w/o graph", "w/o uncertainty"])
    def test_variant_sweep(self, variant, sweep_graphs):
        model = M2G4RTP(make_variant(variant, small_config()))
        ref, out = predict_tensor_and_fused(model, sweep_graphs)
        assert_outputs_identical(ref, out)

    def test_restrict_to_neighbors(self, sweep_graphs):
        model = M2G4RTP(small_config(restrict_to_neighbors=True))
        ref, out = predict_tensor_and_fused(model, sweep_graphs)
        assert_outputs_identical(ref, out)

    def test_encoder_embeddings_identical(self, sweep_graphs):
        model = M2G4RTP(small_config())
        model.eval()
        batch = GraphBatch.from_graphs(sweep_graphs)
        loc_ref, aoi_ref = model.encoder.forward_batch(batch)
        with no_grad():
            loc_out, aoi_out = model.encoder.forward_batch(batch)
        np.testing.assert_array_equal(loc_out.data, loc_ref.data)
        np.testing.assert_array_equal(aoi_out.data, aoi_ref.data)

    def test_fused_matches_sequential_predict(self, sweep_graphs):
        """The fused batch matches the spec, ``M2G4RTP.predict`` (Tensor
        code, each graph a batch of one)."""
        model = M2G4RTP(small_config())
        batched = BatchedM2G4RTP(model).predict(sweep_graphs)
        for graph, out in zip(sweep_graphs, batched):
            sequential = model.predict(graph)
            np.testing.assert_array_equal(out.route, sequential.route)
            np.testing.assert_allclose(out.arrival_times,
                                       sequential.arrival_times, atol=1e-8)

    def test_single_node_instance_full_model(self, world, builder):
        instance = world.simulate_courier_day(0, 0, num_locations=1,
                                              num_aois=1, seed=77)
        graph = builder.build(instance)
        model = M2G4RTP(small_config())
        ref, out = predict_tensor_and_fused(model, [graph])
        assert_outputs_identical(ref, out)
        assert len(out[0].route) == 1


# ----------------------------------------------------------------------
# Seeded fuzz (--runslow)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFuzzConformance:
    def test_kernel_level_fuzz(self):
        rng = np.random.default_rng(20230806)
        for trial in range(30):
            batch = int(rng.integers(1, 7))
            n = int(rng.integers(1, 33))
            dim = int(rng.choice([4, 8, 16]))
            heads = 2 if dim % 2 == 0 else 1
            gat = GATEEncoder(dim=dim, num_layers=int(rng.integers(1, 3)),
                              num_heads=heads, rng=rng)
            nodes, edges, adjacency = random_gat_inputs(
                rng, batch, n, dim, mask_rows=int(rng.integers(0, n + 1)))
            ref_nodes, _ = tensor_gat(gat, nodes, edges, adjacency)
            fused_nodes = fused.gat_encoder_forward(
                gat, nodes, edges, adjacency)
            np.testing.assert_array_equal(fused_nodes, ref_nodes,
                                          err_msg=f"trial {trial}")

            # Odd trials take fused pointer_decode's per-step-mask branch.
            route, sort = build_decoders(rng, node_dim=dim,
                                         restrict_to_neighbors=trial % 2 == 1)
            dec_nodes = rng.normal(size=(batch, n, dim))
            courier = rng.normal(size=(batch, 4))
            lengths = rng.integers(0, n + 1, size=batch)
            dec_adjacency = rng.random((batch, n, n)) < 0.5
            ref_routes = tensor_decode(route, dec_nodes, courier, lengths,
                                       dec_adjacency)
            out_routes = fused.pointer_decode(route, dec_nodes, courier,
                                              lengths, dec_adjacency)
            np.testing.assert_array_equal(out_routes, ref_routes,
                                          err_msg=f"trial {trial}")
            np.testing.assert_array_equal(
                fused.sort_rnn_forward(sort, dec_nodes, out_routes, lengths),
                tensor_sort(sort, dec_nodes, ref_routes, lengths),
                err_msg=f"trial {trial}")

    def test_model_level_fuzz(self, world, builder):
        rng = np.random.default_rng(42)
        model = M2G4RTP(small_config())
        for trial in range(8):
            sizes = [(int(rng.integers(1, 65)), int(rng.integers(1, 17)))
                     for _ in range(int(rng.integers(1, 5)))]
            graphs = [builder.build(world.simulate_courier_day(
                int(rng.integers(0, 4)), int(rng.integers(0, 6)),
                num_locations=n, num_aois=min(m, n),
                seed=int(rng.integers(0, 2 ** 31))))
                for n, m in sizes]
            ref, out = predict_tensor_and_fused(model, graphs)
            assert_outputs_identical(ref, out)
