"""Tests for beam-search route decoding."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.core import (
    M2G4RTP,
    M2G4RTPConfig,
    RouteDecoder,
    beam_search_predict,
    beam_search_route,
)


@pytest.fixture
def decoder(rng):
    return RouteDecoder(node_dim=6, state_dim=8, courier_dim=3, rng=rng,
                        restrict_to_neighbors=False)


def instance_nodes(rng, n):
    """Random ``(1, n, 6)`` decoder inputs: one instance as a batch of one."""
    return Tensor(rng.normal(size=(1, n, 6)))


COURIER = Tensor(np.zeros((1, 3)))


class TestBeamSearchRoute:
    def test_returns_permutation(self, decoder, rng):
        nodes = instance_nodes(rng, 6)
        route, log_prob = beam_search_route(decoder, nodes, COURIER, width=3)
        assert sorted(route.tolist()) == list(range(6))
        assert np.isfinite(log_prob)

    def test_width_one_matches_greedy(self, decoder, rng):
        nodes = instance_nodes(rng, 7)
        with no_grad():
            greedy, _ = decoder.forward_batch(nodes, COURIER, np.array([7]))
        beam, _ = beam_search_route(decoder, nodes, COURIER, width=1)
        assert np.array_equal(beam, greedy[0])

    def test_wider_beam_never_lower_log_prob(self, decoder, rng):
        nodes = instance_nodes(rng, 7)
        _, narrow = beam_search_route(decoder, nodes, COURIER, width=1)
        _, wide = beam_search_route(decoder, nodes, COURIER, width=5)
        assert wide >= narrow - 1e-9

    def test_invalid_width(self, decoder, rng):
        nodes = instance_nodes(rng, 3)
        with pytest.raises(ValueError):
            beam_search_route(decoder, nodes, COURIER, width=0)

    def test_single_node(self, decoder, rng):
        nodes = instance_nodes(rng, 1)
        route, _ = beam_search_route(decoder, nodes, COURIER, width=4)
        assert route.tolist() == [0]

    def test_respects_adjacency_restriction(self, rng):
        decoder = RouteDecoder(node_dim=6, state_dim=8, courier_dim=3,
                               rng=rng, restrict_to_neighbors=True)
        nodes = instance_nodes(rng, 5)
        adjacency = np.eye(5, dtype=bool)[None]  # fallback path must engage
        route, _ = beam_search_route(decoder, nodes, COURIER,
                                     adjacency=adjacency, width=3)
        assert sorted(route.tolist()) == list(range(5))


class TestBeamSearchPredict:
    @pytest.fixture(scope="class")
    def model(self):
        return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                     num_encoder_layers=1))

    def test_full_model_beam_inference(self, model, graph, instance):
        output = beam_search_predict(model, graph, width=3)
        assert sorted(output.route.tolist()) == list(range(instance.num_locations))
        assert output.arrival_times.shape == (instance.num_locations,)
        assert sorted(output.aoi_route.tolist()) == list(range(instance.num_aois))

    def test_width_one_matches_greedy_predict(self, model, graph):
        greedy = model.predict(graph)
        beam = beam_search_predict(model, graph, width=1)
        assert np.array_equal(beam.route, greedy.route)
        assert np.allclose(beam.arrival_times, greedy.arrival_times)

    def test_wo_aoi_variant_supported(self, graph, instance):
        from repro.core import make_variant
        model = M2G4RTP(make_variant("w/o aoi", M2G4RTPConfig(
            hidden_dim=16, num_heads=2, num_encoder_layers=1)))
        output = beam_search_predict(model, graph, width=2)
        assert output.aoi_route is None
        assert sorted(output.route.tolist()) == list(range(instance.num_locations))

    def test_restores_training_mode(self, model, graph):
        model.train()
        beam_search_predict(model, graph, width=2)
        assert model.training
        model.eval()
