"""Batched-vs-spec parity suite for the padded model and its engine.

The contract under test (see ``repro.core.batching``): for any list of
graphs and any model variant, ``BatchedM2G4RTP.predict(graphs)`` (the
fused kernels) must equal ``[model.predict(g) for g in graphs]`` (the
grad-enabled Tensor specification, each graph a batch of one) — routes
exactly, arrival times within 1e-6 — and padding positions must receive
exactly zero attention probability.  The padded training losses and
gradients must equal the mean of the rows run as batches of one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, no_grad
from repro.core import (
    BatchedM2G4RTP,
    GraphBatch,
    LevelBatch,
    M2G4RTP,
    M2G4RTPConfig,
    RTPTargets,
    make_variant,
)
from repro.kernels import fused
from repro.obs.tracing import disable_tracing, enable_tracing

from test_gat_tape import reference_attention

VARIANTS = ["full", "two-step", "w/o aoi", "w/o graph", "w/o uncertainty"]


def small_config(**overrides) -> M2G4RTPConfig:
    base = dict(hidden_dim=16, num_heads=2, num_encoder_layers=1,
                continuous_embed_dim=8, discrete_embed_dim=4,
                position_dim=4, courier_embed_dim=4, seed=5)
    base.update(overrides)
    return M2G4RTPConfig(**base)


@pytest.fixture(scope="module")
def graph_pool(dataset, builder):
    """Graphs of heterogeneous size (locations and AOIs) to batch from."""
    graphs = [builder.build(instance) for instance in list(dataset)[:24]]
    sizes = {(g.num_locations, g.num_aois) for g in graphs}
    assert len(sizes) > 1, "pool must mix instance sizes"
    return graphs


@pytest.fixture(scope="module")
def models():
    """One small model per (variant, restrict_to_neighbors) combination,
    built lazily."""
    cache = {}

    def get(variant: str, restrict_to_neighbors: bool = False) -> M2G4RTP:
        key = (variant, restrict_to_neighbors)
        if key not in cache:
            config = make_variant(variant, small_config(
                restrict_to_neighbors=restrict_to_neighbors))
            cache[key] = M2G4RTP(config)
        return cache[key]

    return get


def assert_parity(model: M2G4RTP, graphs) -> None:
    batched = BatchedM2G4RTP(model).predict(graphs)
    assert len(batched) == len(graphs)
    for graph, out in zip(graphs, batched):
        reference = model.predict(graph)
        np.testing.assert_array_equal(out.route, reference.route)
        np.testing.assert_allclose(out.arrival_times,
                                   reference.arrival_times, atol=1e-6)
        if reference.aoi_route is None:
            assert out.aoi_route is None
            assert out.aoi_arrival_times is None
        else:
            np.testing.assert_array_equal(out.aoi_route, reference.aoi_route)
            np.testing.assert_allclose(out.aoi_arrival_times,
                                       reference.aoi_arrival_times, atol=1e-6)


# ----------------------------------------------------------------------
# Padding / batch-assembly invariants
# ----------------------------------------------------------------------
class TestBatchAssembly:
    def test_level_batch_padding(self, graph_pool):
        levels = [g.location for g in graph_pool[:5]]
        batch = LevelBatch.from_levels(levels)
        n = batch.max_nodes
        assert n == max(level.num_nodes for level in levels)
        for b, level in enumerate(levels):
            k = level.num_nodes
            assert batch.lengths[b] == k
            assert batch.mask[b, :k].all() and not batch.mask[b, k:].any()
            np.testing.assert_array_equal(batch.continuous[b, :k],
                                          level.continuous)
            # Padding is exactly zero everywhere.
            assert not batch.continuous[b, k:].any()
            assert not batch.discrete[b, k:].any()
            # Adjacency never points into or out of padding.
            assert not batch.adjacency[b, k:, :].any()
            assert not batch.adjacency[b, :, k:].any()

    def test_graph_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            GraphBatch.from_graphs([])

    def test_engine_empty_list(self, models):
        assert BatchedM2G4RTP(models("full")).predict([]) == []

    def test_engine_restores_training_mode(self, models, graph_pool):
        model = models("full")
        model.train()
        try:
            BatchedM2G4RTP(model).predict(graph_pool[:2])
            assert model.training
        finally:
            model.eval()

    def test_padding_gets_zero_attention(self, models, graph_pool):
        """GAT-e attention over a padded batch puts exactly 0 on padding."""
        model = models("full")
        batch = GraphBatch.from_graphs(graph_pool[:6])
        level = batch.location
        head = model.encoder.location_encoder.gat.layers[0].heads[0]
        rng = np.random.default_rng(9)
        shape = level.adjacency.shape  # (B, n, n)
        # Garbage (non-zero) values in padding positions on purpose: the
        # mask alone must prevent them from getting probability.
        nodes = Tensor(rng.normal(size=(shape[0], shape[1], 16)))
        edges = Tensor(rng.normal(size=shape + (16,)))
        with no_grad():
            alpha = reference_attention(head, nodes, edges, level.adjacency)
        for b in range(len(batch)):
            k = int(level.lengths[b])
            # Padding columns: probability exactly zero for every row.
            assert not alpha.data[b, :, k:].any()
            # Padding rows are entirely zero (masked_softmax, not NaN).
            assert not alpha.data[b, k:, :].any()
            assert np.isfinite(alpha.data[b]).all()
            # Real rows with neighbours still normalise to 1.
            has_neighbors = level.adjacency[b, :k].any(axis=1)
            np.testing.assert_allclose(
                alpha.data[b, :k][has_neighbors].sum(axis=1), 1.0)


# ----------------------------------------------------------------------
# Parity: every variant, deterministic mixed batch
# ----------------------------------------------------------------------
class TestVariantParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_parity(self, models, graph_pool, variant):
        assert_parity(models(variant), graph_pool[:6])

    def test_restrict_to_neighbors_parity(self, models, graph_pool):
        assert_parity(models("full", restrict_to_neighbors=True),
                      graph_pool[:6])

    def test_single_graph_batch(self, models, graph_pool):
        assert_parity(models("full"), graph_pool[:1])

    def test_duplicate_graphs_agree(self, models, graph_pool):
        """The same graph twice in one batch decodes identically."""
        model = models("full")
        graph = graph_pool[0]
        first, second = BatchedM2G4RTP(model).predict([graph, graph])
        np.testing.assert_array_equal(first.route, second.route)
        np.testing.assert_array_equal(first.arrival_times,
                                      second.arrival_times)


# ----------------------------------------------------------------------
# Fast path (grad disabled) vs Tensor path (grad enabled)
# ----------------------------------------------------------------------
class TestFastPathParity:
    def test_decoder_fast_path_matches_tensor_path(self, models, graph_pool):
        """forward_batch must give bit-identical results whether it runs
        the fused kernels (grad off) or Tensor ops."""
        from repro.autodiff import concat, no_grad

        model = models("full")
        model.eval()
        batch = GraphBatch.from_graphs(graph_pool[:5])
        courier = concat(
            [model.courier_embedding(
                batch.courier_ids % model.config.num_couriers),
             Tensor(batch.courier_profiles)], axis=-1)
        _, aoi_reps = model.encoder.forward_batch(batch)
        routes_tensor, _ = model.aoi_route_decoder.forward_batch(
            aoi_reps, courier, batch.aoi.lengths,
            adjacency=batch.aoi.adjacency)
        times_tensor = model.aoi_time_decoder.forward_batch(
            aoi_reps, routes_tensor, batch.aoi.lengths)
        with no_grad():
            routes_fast, _ = model.aoi_route_decoder.forward_batch(
                aoi_reps, courier, batch.aoi.lengths,
                adjacency=batch.aoi.adjacency)
            times_fast = model.aoi_time_decoder.forward_batch(
                aoi_reps, routes_fast, batch.aoi.lengths)
        np.testing.assert_array_equal(routes_tensor, routes_fast)
        np.testing.assert_array_equal(times_tensor.data, times_fast.data)


# ----------------------------------------------------------------------
# Parity: property-based over random heterogeneous batches
# ----------------------------------------------------------------------
class TestRandomBatchParity:
    @given(indices=st.lists(st.integers(0, 23), min_size=1, max_size=8),
           variant=st.sampled_from(VARIANTS))
    @settings(max_examples=20, deadline=None)
    def test_random_batches(self, models, graph_pool, indices, variant):
        graphs = [graph_pool[i] for i in indices]
        assert_parity(models(variant), graphs)

    @given(indices=st.lists(st.integers(0, 23), min_size=1, max_size=8),
           restrict=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_random_batches_decoder_options(self, models, graph_pool,
                                            indices, restrict):
        graphs = [graph_pool[i] for i in indices]
        assert_parity(models("full", restrict), graphs)

    @pytest.mark.slow
    @given(indices=st.lists(st.integers(0, 23), min_size=1, max_size=8),
           variant=st.sampled_from(VARIANTS),
           restrict=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_extended_sweep(self, models, graph_pool, indices, variant,
                            restrict):
        graphs = [graph_pool[i] for i in indices]
        assert_parity(models(variant, restrict), graphs)


# ----------------------------------------------------------------------
# Mode handling and route validation
# ----------------------------------------------------------------------
class TestPredictModes:
    def test_train_mode_outputs_identical_and_mode_kept(self, models,
                                                        graph_pool):
        model = models("full")
        graphs = graph_pool[:4]
        model.eval()
        expected = ([model.predict(g) for g in graphs]
                    + BatchedM2G4RTP(model).predict(graphs))
        model.train()
        try:
            outputs = [model.predict(g) for g in graphs]
            assert all(module.training for module in model.modules())
            outputs += BatchedM2G4RTP(model).predict(graphs)
            assert all(module.training for module in model.modules())
        finally:
            model.eval()
        for out, ref in zip(outputs, expected):
            np.testing.assert_array_equal(out.route, ref.route)
            np.testing.assert_array_equal(out.arrival_times,
                                          ref.arrival_times)

    def test_eval_mode_model_is_not_switched(self, models, graph_pool,
                                             monkeypatch):
        model = models("full")
        model.eval()

        def refuse():
            raise AssertionError("predict switched an eval-mode model")

        monkeypatch.setattr(model, "eval", refuse)
        monkeypatch.setattr(model, "train", refuse)
        model.predict(graph_pool[0])
        BatchedM2G4RTP(model).predict(graph_pool[:3])


class TestSortRouteValidation:
    """``SortLSTM.forward_batch`` rejects a non-permutation route on both
    the Tensor and kernel paths; padding entries beyond ``lengths[b]``
    are never inspected."""

    @pytest.fixture()
    def sort(self, models):
        return models("full").location_time_decoder

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("routes,lengths", [
        ([[0, 0, 2]], [3]),          # repeated node
        ([[0, 1, 3, 2]], [3]),       # id beyond the row's length
        ([[0, 1, 2], [1, 1, 0]], [3, 2]),
        ([[-1, 0, 1]], [3]),
    ])
    def test_malformed_route_raises(self, sort, routes, lengths, grad):
        routes = np.asarray(routes)
        nodes = Tensor(np.ones((len(lengths), routes.shape[1],
                                sort.recurrent.cell.weight_x.shape[0]
                                - sort.position_dim)))
        with pytest.raises(ValueError, match="permutation"):
            if grad:
                sort.forward_batch(nodes, routes, np.asarray(lengths))
            else:
                with no_grad():
                    sort.forward_batch(nodes, routes, np.asarray(lengths))

    @pytest.mark.parametrize("grad", [True, False])
    def test_padded_rows_accepted(self, sort, grad):
        routes = np.array([[2, 0, 1], [1, 0, 7], [0, 5, 5]])
        lengths = np.array([3, 2, 1])
        nodes = Tensor(np.ones((3, 3, sort.recurrent.cell.weight_x.shape[0]
                                - sort.position_dim)))
        if grad:
            times = sort.forward_batch(nodes, routes, lengths)
        else:
            with no_grad():
                times = sort.forward_batch(nodes, routes, lengths)
        assert times.shape == (3, 3)
        assert np.all(times.data[1, 2:] == 0.0) and np.all(
            times.data[2, 1:] == 0.0)


# ----------------------------------------------------------------------
# The spec stays the Tensor code
# ----------------------------------------------------------------------
class TestSpecIsTensorCode:
    """``M2G4RTP.predict`` is what every served answer is checked
    against.  Were it to run the fused kernels, each such check would
    compare fused with fused and prove nothing.  Its GAT-e stack runs
    the kernel's forward as a tape node, so ``TestServedAnswers`` in
    ``tests/test_gat_tape.py`` checks served answers against the spec
    run on the per-head Tensor code."""

    @staticmethod
    def traced_names(run):
        collector = enable_tracing()
        try:
            run()
        finally:
            disable_tracing()
        return [span.name for root in collector.roots
                for span in root.iter_spans()]

    def test_predict_emits_no_kernel_span(self, models, graph_pool):
        model = models("full")
        spec = self.traced_names(lambda: model.predict(graph_pool[0]))
        assert "encoder" in spec and "route_decode" in spec
        assert not [name for name in spec if name.startswith("kernel.")]
        served = self.traced_names(
            lambda: BatchedM2G4RTP(model).predict(graph_pool[:1]))
        assert "kernel.sort_rnn" in served

    def test_perturbed_kernel_fails_parity(self, models, graph_pool,
                                           monkeypatch):
        original = fused.sort_rnn_forward
        monkeypatch.setattr(fused, "sort_rnn_forward",
                            lambda *args: original(*args) + 1e-3)
        with pytest.raises(AssertionError):
            assert_parity(models("full"), graph_pool[:3])


# ----------------------------------------------------------------------
# Padded training losses and gradients
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def target_pool(dataset):
    return [RTPTargets.from_instance(instance)
            for instance in list(dataset)[:24]]


def losses_and_grads(model, graphs, targets):
    """Task losses and parameter gradients of one teacher-forced step."""
    for parameter in model.parameters():
        parameter.zero_grad()
    output = model(GraphBatch.from_graphs(graphs), targets)
    output.total_loss.backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for p in model.parameters()]
    return {task: float(loss.data) for task, loss in output.losses.items()}, grads


class TestPaddedTrainingParity:
    """``model(batch, targets)`` on a mixed-length batch equals the mean
    of its rows run as batches of one — the check that batching the
    optimizer step rests on."""

    @pytest.mark.parametrize("variant,restrict",
                             [(v, False) for v in VARIANTS]
                             + [("full", True)])
    def test_losses_and_grads_are_row_means(self, models, graph_pool,
                                            target_pool, variant, restrict):
        model = models(variant, restrict)
        rng = np.random.default_rng(17)
        for size in (2, 5, 8):
            indices = rng.choice(len(graph_pool), size=size, replace=False)
            graphs = [graph_pool[i] for i in indices]
            targets = [target_pool[i] for i in indices]
            assert len({g.num_locations for g in graphs}) > 1
            losses, grads = losses_and_grads(model, graphs, targets)
            rows = [losses_and_grads(model, [g], [t])
                    for g, t in zip(graphs, targets)]
            for task, loss in losses.items():
                expected = np.mean([row_losses[task] for row_losses, _ in rows])
                assert abs(loss - expected) <= 1e-12 * abs(expected), task
            scale = max(np.max(np.abs(g)) for g in grads)
            for index, grad in enumerate(grads):
                expected = np.mean([row_grads[index] for _, row_grads in rows],
                                   axis=0)
                np.testing.assert_allclose(grad, expected, rtol=0,
                                           atol=1e-9 * scale)
