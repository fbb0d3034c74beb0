"""Tests for uncertainty weighting, the encoder and the full M2G4RTP model."""

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor, no_grad
from repro.core import (
    FixedWeighting,
    GraphBatch,
    M2G4RTP,
    M2G4RTPConfig,
    MultiLevelEncoder,
    RTPTargets,
    TASKS,
    UncertaintyWeighting,
    VARIANT_NAMES,
    make_variant,
)


class TestUncertaintyWeighting:
    def test_formula_at_unit_sigma(self):
        weighting = UncertaintyWeighting()
        losses = {task: Tensor(np.array(2.0), requires_grad=True)
                  for task in TASKS}
        total = weighting(losses)
        # sigma=1: 0.5*2 + 0.5*2 + 1*2 + 1*2 + 4*log(1) = 6.
        assert np.isclose(total.item(), 6.0)

    def test_log_sigma_receives_gradient(self):
        weighting = UncertaintyWeighting()
        losses = {"aoi_route": Tensor(np.array(4.0), requires_grad=True),
                  "location_time": Tensor(np.array(3.0), requires_grad=True)}
        weighting(losses).backward()
        grad = weighting.log_sigma.grad
        assert grad is not None
        # Gradient exists for the used tasks, zero for the unused ones.
        assert grad[0] != 0 and grad[3] != 0
        assert grad[1] == 0 and grad[2] == 0

    def test_large_loss_pushes_sigma_up(self):
        weighting = UncertaintyWeighting()
        optimizer = Adam([weighting.log_sigma], lr=0.05)
        for _ in range(50):
            optimizer.zero_grad()
            losses = {"location_time": Tensor(np.array(100.0))}
            weighting(losses).backward()
            optimizer.step()
        assert weighting.sigmas()["location_time"] > 1.5

    def test_unknown_task_rejected(self):
        with pytest.raises(KeyError):
            UncertaintyWeighting()({"bogus": Tensor(np.array(1.0))})

    def test_empty_losses_rejected(self):
        with pytest.raises(ValueError):
            UncertaintyWeighting()({})

    def test_fixed_weighting_ratio(self):
        weighting = FixedWeighting(route_weight=100.0, time_weight=1.0)
        total = weighting({
            "location_route": Tensor(np.array(1.0)),
            "location_time": Tensor(np.array(1.0)),
        })
        assert np.isclose(total.item(), 101.0)


def batch_of(graph):
    return GraphBatch.from_graphs([graph])


class TestMultiLevelEncoder:
    def test_output_shapes(self, graph, instance, rng):
        encoder = MultiLevelEncoder(rng=rng)
        locations, aois = encoder.forward_batch(batch_of(graph))
        assert locations.shape == (1, instance.num_locations,
                                   encoder.config.hidden_dim)
        assert aois.shape == (1, instance.num_aois, encoder.config.hidden_dim)

    def test_sequence_variant_shapes(self, graph, instance, rng):
        encoder = MultiLevelEncoder(rng=rng, use_graph=False)
        locations, aois = encoder.forward_batch(batch_of(graph))
        assert locations.shape == (1, instance.num_locations,
                                   encoder.config.hidden_dim)
        assert aois.shape[1] == instance.num_aois


class TestM2G4RTPModel:
    @pytest.fixture(scope="class")
    def model(self):
        return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                     num_encoder_layers=1))

    def test_forward_inference_shapes(self, model, graph, instance):
        output = model.predict(graph)
        assert sorted(output.route.tolist()) == list(range(instance.num_locations))
        assert output.arrival_times.shape == (instance.num_locations,)
        assert sorted(output.aoi_route.tolist()) == list(range(instance.num_aois))
        assert output.aoi_arrival_times.shape == (instance.num_aois,)
        assert output.losses == {}
        assert output.total_loss is None

    def test_forward_training_losses(self, model, graph, instance):
        targets = RTPTargets.from_instance(instance)
        output = model(batch_of(graph), [targets])
        assert set(output.losses) == set(TASKS)
        assert output.total_loss is not None
        assert all(np.isfinite(loss.data) for loss in output.losses.values())

    def test_loss_decreases_with_training(self, graph, instance):
        model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                      num_encoder_layers=1, seed=3))
        targets = RTPTargets.from_instance(instance)
        optimizer = Adam(model.parameters(), lr=5e-3)
        first = None
        for step in range(30):
            optimizer.zero_grad()
            output = model(batch_of(graph), [targets])
            output.total_loss.backward()
            optimizer.step()
            if first is None:
                first = float(output.total_loss.data)
        final = float(output.total_loss.data)
        assert final < first

    def test_predict_restores_training_mode(self, model, graph):
        model.train()
        model.predict(graph)
        assert model.training

    def test_parameter_groups_disjoint_and_complete(self, model):
        route_ids = {id(p) for p in model.route_parameters()}
        time_ids = {id(p) for p in model.time_parameters()}
        assert not route_ids & time_ids
        assert len(route_ids) + len(time_ids) == len(model.parameters())

    def test_state_dict_roundtrip(self, model, graph):
        clone = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                      num_encoder_layers=1, seed=99))
        clone.load_state_dict(model.state_dict())
        a = model.predict(graph)
        b = clone.predict(graph)
        assert np.array_equal(a.route, b.route)
        assert np.allclose(a.arrival_times, b.arrival_times)


class TestVariants:
    def test_variant_names(self):
        for name in VARIANT_NAMES:
            make_variant(name)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_variant("bogus")

    def test_wo_aoi_has_no_aoi_decoders(self, graph, instance):
        model = M2G4RTP(make_variant("w/o aoi", M2G4RTPConfig(
            hidden_dim=16, num_heads=2, num_encoder_layers=1)))
        assert model.aoi_route_decoder is None
        output = model(batch_of(graph), [RTPTargets.from_instance(instance)])
        assert output.aoi_route is None
        assert set(output.losses) == {"location_route", "location_time"}

    def test_wo_graph_uses_sequence_encoder(self):
        from repro.core.encoder import SequenceEncoder
        model = M2G4RTP(make_variant("w/o graph", M2G4RTPConfig(
            hidden_dim=16, num_heads=2, num_encoder_layers=1)))
        assert isinstance(model.encoder.location_encoder, SequenceEncoder)

    def test_wo_uncertainty_uses_fixed_weights(self):
        model = M2G4RTP(make_variant("w/o uncertainty", M2G4RTPConfig(
            hidden_dim=16, num_heads=2, num_encoder_layers=1)))
        assert isinstance(model.loss_weighting, FixedWeighting)

    def test_two_step_detaches_time_inputs(self, graph, instance):
        model = M2G4RTP(make_variant("two-step", M2G4RTPConfig(
            hidden_dim=16, num_heads=2, num_encoder_layers=1)))
        targets = RTPTargets.from_instance(instance)
        output = model(batch_of(graph), [targets])
        time_loss = output.losses["location_time"] + output.losses["aoi_time"]
        time_loss.backward()
        encoder_params = model.encoder.parameters()
        # Time loss must not reach the encoder when detached.
        assert all(p.grad is None or np.allclose(p.grad, 0)
                   for p in encoder_params)

    def test_variants_run_forward(self, graph, instance):
        targets = RTPTargets.from_instance(instance)
        for name in VARIANT_NAMES:
            model = M2G4RTP(make_variant(name, M2G4RTPConfig(
                hidden_dim=16, num_heads=2, num_encoder_layers=1)))
            output = model(batch_of(graph), [targets])
            assert output.total_loss is not None
            prediction = model.predict(graph)
            assert sorted(prediction.route.tolist()) == list(
                range(instance.num_locations))
