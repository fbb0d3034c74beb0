"""Tests for baseline internals: plug-in time head, distance chaining,
cosine-schedule training option, and the deep-baseline template."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.baselines import DeepBaselineConfig, PluginTimeHead
from repro.baselines.deep_common import _route_distances
from repro.core import M2G4RTP, M2G4RTPConfig
from repro.training import Trainer, TrainerConfig


class TestRouteDistances:
    def test_legs_and_cumulative_consistent(self, dataset):
        instance = dataset[0]
        legs, cumulative = _route_distances(instance, instance.route)
        assert legs.shape == cumulative.shape == (instance.num_locations,)
        assert np.allclose(np.cumsum(legs), cumulative)
        assert np.all(legs >= 0)

    def test_first_leg_from_courier(self, dataset):
        instance = dataset[0]
        legs, _ = _route_distances(instance, instance.route)
        first = instance.locations[int(instance.route[0])]
        expected = first.distance_to(*instance.courier_position) / 1000.0
        assert np.isclose(legs[0], expected)


class TestPluginTimeHead:
    def test_output_in_node_order(self, dataset, rng):
        config = DeepBaselineConfig()
        head = PluginTimeHead(rep_dim=8, config=config, rng=rng)
        instance = dataset[0]
        n = instance.num_locations
        reps = Tensor(rng.normal(size=(n, 8)))
        times = head(reps, instance.route, instance)
        assert times.shape == (n,)

    def test_route_order_matters(self, dataset, rng):
        config = DeepBaselineConfig()
        head = PluginTimeHead(rep_dim=8, config=config, rng=rng)
        instance = next(i for i in dataset if i.num_locations >= 4)
        n = instance.num_locations
        reps = Tensor(rng.normal(size=(n, 8)))
        a = head(reps, instance.route, instance).data
        reversed_route = instance.route[::-1].copy()
        b = head(reps, reversed_route, instance).data
        assert not np.allclose(a, b)

    def test_gradients_flow(self, dataset, rng):
        config = DeepBaselineConfig()
        head = PluginTimeHead(rep_dim=8, config=config, rng=rng)
        instance = dataset[0]
        reps = Tensor(rng.normal(size=(instance.num_locations, 8)),
                      requires_grad=True)
        head(reps, instance.route, instance).sum().backward()
        assert reps.grad is not None


class TestCosineTrainer:
    def test_cosine_schedule_trains(self, splits):
        train, _, _ = splits
        model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                      num_encoder_layers=1))
        config = TrainerConfig(epochs=3, lr_schedule="cosine")
        history = Trainer(model, config).fit(train[:8])
        assert history.num_epochs == 3
        assert history.train_loss[-1] < history.train_loss[0]

    def test_unknown_schedule_rejected(self, splits):
        train, _, _ = splits
        model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                      num_encoder_layers=1))
        with pytest.raises(ValueError):
            config = TrainerConfig(epochs=1, lr_schedule="bogus")
            Trainer(model, config).fit(train[:2])
