"""Tests for AOI-contiguity repair and sampling-based uncertainty."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import (
    M2G4RTP,
    M2G4RTPConfig,
    RouteDecoder,
    enforce_aoi_contiguity,
    predict_with_uncertainty,
    sample_route,
)
from repro.eval import aoi_switch_count


class TestAOIContiguity:
    def test_already_contiguous_unchanged(self):
        route = np.array([0, 1, 2, 3])
        aoi_of = np.array([0, 0, 1, 1])
        assert np.array_equal(enforce_aoi_contiguity(route, aoi_of), route)

    def test_bouncing_route_repaired(self):
        # Route bounces A-B-A-B; repair groups to A-A-B-B.
        route = np.array([0, 2, 1, 3])
        aoi_of = np.array([0, 0, 1, 1])
        repaired = enforce_aoi_contiguity(route, aoi_of)
        assert repaired.tolist() == [0, 1, 2, 3]

    def test_preserves_within_aoi_order(self):
        route = np.array([2, 0, 3, 1])
        aoi_of = np.array([0, 0, 1, 1])
        repaired = enforce_aoi_contiguity(route, aoi_of)
        # AOI 1 first (node 2 first seen), then AOI 0; orders preserved.
        assert repaired.tolist() == [2, 3, 0, 1]

    def test_switch_count_never_increases(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 12))
            aoi_of = rng.integers(0, 3, size=n)
            route = rng.permutation(n)
            repaired = enforce_aoi_contiguity(route, aoi_of)
            assert sorted(repaired.tolist()) == list(range(n))
            assert (aoi_switch_count(repaired, aoi_of)
                    <= aoi_switch_count(route, aoi_of))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            enforce_aoi_contiguity([0, 0, 1], [0, 0, 0])


class TestSampleRoute:
    """``sample_route`` takes one instance as a batch of one: ``(1, n, 6)``
    nodes and a ``(1, 3)`` courier."""

    COURIER = Tensor(np.zeros((1, 3)))

    @pytest.fixture
    def decoder(self, rng):
        return RouteDecoder(6, 8, 3, rng, restrict_to_neighbors=False)

    def test_sample_is_permutation(self, decoder, rng):
        nodes = Tensor(rng.normal(size=(1, 6, 6)))
        route = sample_route(decoder, nodes, self.COURIER, rng)
        assert sorted(route.tolist()) == list(range(6))

    def test_invalid_temperature(self, decoder, rng):
        nodes = Tensor(rng.normal(size=(1, 3, 6)))
        with pytest.raises(ValueError):
            sample_route(decoder, nodes, self.COURIER, rng, temperature=0.0)

    def test_low_temperature_approaches_greedy(self, decoder, rng):
        from repro.autodiff import no_grad
        nodes = Tensor(rng.normal(size=(1, 6, 6)) * 3)
        with no_grad():
            greedy, _ = decoder.forward_batch(nodes, self.COURIER,
                                              np.array([6]))
        matches = 0
        for seed in range(5):
            sampled = sample_route(decoder, nodes, self.COURIER,
                                   np.random.default_rng(seed),
                                   temperature=0.01)
            matches += int(np.array_equal(sampled, greedy[0]))
        assert matches >= 4

    def test_high_temperature_diversifies(self, decoder, rng):
        nodes = Tensor(rng.normal(size=(1, 7, 6)))
        routes = {tuple(sample_route(decoder, nodes, self.COURIER,
                                     np.random.default_rng(seed),
                                     temperature=5.0).tolist())
                  for seed in range(10)}
        assert len(routes) > 1


class TestUncertaintyPrediction:
    @pytest.fixture(scope="class")
    def model(self):
        return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                     num_encoder_layers=1))

    def test_shapes_and_ordering(self, model, graph, instance):
        prediction = predict_with_uncertainty(model, graph, num_samples=6)
        n = instance.num_locations
        assert sorted(prediction.route.tolist()) == list(range(n))
        assert prediction.eta_mean.shape == (n,)
        assert np.all(prediction.eta_low <= prediction.eta_high + 1e-9)
        assert np.all(prediction.eta_std >= 0)
        assert prediction.num_samples == 6

    def test_requires_multiple_samples(self, model, graph):
        with pytest.raises(ValueError):
            predict_with_uncertainty(model, graph, num_samples=1)

    def test_deterministic_given_seed(self, model, graph):
        a = predict_with_uncertainty(model, graph, num_samples=4, seed=3)
        b = predict_with_uncertainty(model, graph, num_samples=4, seed=3)
        assert np.array_equal(a.route, b.route)
        assert np.allclose(a.eta_mean, b.eta_mean)

    def test_restores_training_mode(self, model, graph):
        model.train()
        predict_with_uncertainty(model, graph, num_samples=3)
        assert model.training
        model.eval()
