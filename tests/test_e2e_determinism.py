"""End-to-end determinism: same seed ⇒ bitwise-identical predictions.

``ParallelDataLoader`` derives each item's RNG from ``(seed, index)``,
so the number of loader workers (0 = inline, 1, 2 = pooled) must not
change a single bit of the transformed graphs nor of the predictions
the fused kernels compute from them; every configuration is checked
against one golden output.  The kernels themselves are checked against
the Tensor code in ``tests/test_kernel_conformance.py``.
"""

import numpy as np
import pytest

from repro.core import BatchedM2G4RTP, M2G4RTP, M2G4RTPConfig
from repro.parallel import ParallelDataLoader


def small_config(**overrides) -> M2G4RTPConfig:
    base = dict(hidden_dim=16, num_heads=2, num_encoder_layers=1,
                continuous_embed_dim=8, discrete_embed_dim=4,
                position_dim=4, courier_embed_dim=4, seed=5)
    base.update(overrides)
    return M2G4RTPConfig(**base)


@pytest.fixture(scope="module")
def instances(dataset):
    return list(dataset)[:10]


def load_graphs(instances, builder, num_workers):
    loader = ParallelDataLoader(instances, transform=builder.build,
                                batch_size=4, num_workers=num_workers,
                                seed=99)
    graphs = []
    for batch in loader:
        graphs.extend(batch)
    return graphs


def flatten_outputs(outputs):
    parts = []
    for out in outputs:
        parts.append(out.route.astype(np.float64))
        parts.append(out.arrival_times)
        if out.aoi_route is not None:
            parts.append(out.aoi_route.astype(np.float64))
            parts.append(out.aoi_arrival_times)
    return np.concatenate([p.ravel() for p in parts])


class TestLoaderDeterminism:
    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_graphs_identical_across_worker_counts(self, instances, builder,
                                                   num_workers):
        """Graph tensors are bitwise-equal whether built inline or in a
        worker pool of any size."""
        inline = load_graphs(instances, builder, num_workers=0)
        pooled = load_graphs(instances, builder, num_workers=num_workers)
        assert len(inline) == len(pooled) == len(instances)
        for a, b in zip(inline, pooled):
            np.testing.assert_array_equal(a.location.continuous,
                                          b.location.continuous)
            np.testing.assert_array_equal(a.location.edge_features,
                                          b.location.edge_features)
            np.testing.assert_array_equal(a.location.adjacency,
                                          b.location.adjacency)
            np.testing.assert_array_equal(a.aoi.continuous, b.aoi.continuous)
            np.testing.assert_array_equal(a.aoi.adjacency, b.aoi.adjacency)
            np.testing.assert_array_equal(a.aoi_of_location,
                                          b.aoi_of_location)


class TestEndToEndDeterminism:
    def test_predictions_bitwise_identical_across_configs(self, instances,
                                                          builder):
        """Loader workers {0, 1, 2} all produce one bitwise-identical
        answer."""
        model = M2G4RTP(small_config())
        engine = BatchedM2G4RTP(model)
        golden = None
        for num_workers in (0, 1, 2):
            graphs = load_graphs(instances, builder, num_workers=num_workers)
            flat = flatten_outputs(engine.predict(graphs))
            if golden is None:
                golden = flat
            else:
                np.testing.assert_array_equal(
                    flat, golden, err_msg=f"workers={num_workers}")

    def test_repeated_prediction_is_stable(self, instances, builder):
        """Two runs of the same configuration agree with themselves —
        no fused-kernel state may leak across calls."""
        model = M2G4RTP(small_config())
        engine = BatchedM2G4RTP(model)
        graphs = load_graphs(instances, builder, num_workers=0)
        first = flatten_outputs(engine.predict(graphs))
        # Interleave a different-shaped batch between the two runs.
        engine.predict(graphs[:3])
        second = flatten_outputs(engine.predict(graphs))
        np.testing.assert_array_equal(first, second)


@pytest.mark.slow
class TestTrainerLoaderDeterminism:
    def test_training_loss_invariant_to_loader_workers(self, instances,
                                                       builder):
        """One training epoch through DataParallelTrainer produces the
        same loss whether graphs are built inline or by loader workers."""
        from repro.data import RTPDataset
        from repro.parallel import DataParallelTrainer, ParallelConfig
        from repro.training import TrainerConfig

        train = RTPDataset(instances[:6])
        losses = {}
        for workers in (0, 2):
            model = M2G4RTP(small_config())
            trainer = DataParallelTrainer(
                model, TrainerConfig(epochs=1, patience=1),
                ParallelConfig(num_workers=1, loader_workers=workers),
                builder=builder)
            history = trainer.fit(train)
            losses[workers] = history.train_loss[-1]
        assert losses[0] == losses[2]
