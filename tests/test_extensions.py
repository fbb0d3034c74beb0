"""Tests for scheduled sampling and the DeepETA time-only baseline."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.baselines import DeepBaselineConfig, DeepETA, DistanceGreedy
from repro.core import (GraphBatch, M2G4RTP, M2G4RTPConfig, RouteDecoder,
                        RTPTargets)
from repro.training import Trainer, TrainerConfig


class TestScheduledSampling:
    @pytest.fixture
    def decoder(self, rng):
        return RouteDecoder(node_dim=6, state_dim=8, courier_dim=3, rng=rng)

    @staticmethod
    def record_steps(decoder, monkeypatch):
        """Capture every decode step's log-probability Tensor."""
        steps = []
        original = decoder.attention.log_probs_batch

        def spy(*args):
            steps.append(original(*args))
            return steps[-1]

        monkeypatch.setattr(decoder.attention, "log_probs_batch", spy)
        return steps

    @staticmethod
    def decode(decoder, nodes, teacher, **kwargs):
        """Teacher-forced ``forward_batch`` on one instance as a batch of one."""
        n = nodes.shape[0]
        routes, label_log_probs = decoder.forward_batch(
            nodes.reshape(1, n, -1), Tensor(np.zeros((1, 3))), np.array([n]),
            teacher_routes=teacher[None], **kwargs)
        return routes[0], label_log_probs.data[0]

    def test_zero_prob_matches_teacher_forcing(self, decoder, rng,
                                               monkeypatch):
        nodes = Tensor(rng.normal(size=(6, 6)))
        teacher = np.array([3, 1, 5, 0, 4, 2])
        steps = self.record_steps(decoder, monkeypatch)
        route, label_log_probs = self.decode(decoder, nodes, teacher,
                                             sample_prob=0.0)
        assert np.array_equal(route, teacher)
        # Plain teacher forcing scores every step in one (steps, B, n)
        # call, and each step is supervised by its teacher node.
        (log_probs,) = steps
        for step in range(len(teacher)):
            assert (label_log_probs[step]
                    == log_probs.data[step, 0, teacher[step]])

    def test_sampling_requires_rng(self, decoder, rng):
        nodes = Tensor(rng.normal(size=(4, 6)))
        with pytest.raises(ValueError):
            self.decode(decoder, nodes, np.arange(4), sample_prob=0.5)

    def test_full_sampling_still_supervised(self, decoder, rng, monkeypatch):
        nodes = Tensor(rng.normal(size=(6, 6)))
        teacher = np.array([3, 1, 5, 0, 4, 2])
        steps = self.record_steps(decoder, monkeypatch)
        route, label_log_probs = self.decode(
            decoder, nodes, teacher, sample_prob=1.0,
            rng=np.random.default_rng(0))
        # The decoded route is the model's own choice (a permutation)...
        assert sorted(route.tolist()) == list(range(6))
        # ... while targets stay aligned with the true ordering: each
        # target is the earliest unvisited node of the teacher route.
        visited = set()
        rank = {int(node): position for position, node in enumerate(teacher)}
        for step in range(6):
            expected = min((i for i in range(6) if i not in visited),
                           key=lambda i: rank[i])
            assert (label_log_probs[step]
                    == steps[step].data[0, expected])
            visited.add(int(route[step]))

    def test_draws_one_double_per_step(self, decoder, rng):
        """At batch size one, the per-step ``rng.random(1)`` draw is the
        scalar ``rng.random()`` stream of one coin per step."""
        nodes = Tensor(rng.normal(size=(6, 6)))
        used = np.random.default_rng(3)
        self.decode(decoder, nodes, np.arange(6), sample_prob=0.5, rng=used)
        reference = np.random.default_rng(3)
        for _ in range(6):
            reference.random()
        assert used.random() == reference.random()

    def test_model_forward_with_sampling(self, graph, instance):
        model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                      num_encoder_layers=1))
        output = model(GraphBatch.from_graphs([graph]),
                       [RTPTargets.from_instance(instance)],
                       sample_prob=0.8, rng=np.random.default_rng(1))
        assert np.isfinite(float(output.total_loss.data))

    def test_trainer_with_scheduled_sampling(self, splits):
        train, _, _ = splits
        model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                      num_encoder_layers=1))
        config = TrainerConfig(epochs=3, scheduled_sampling=0.5)
        history = Trainer(model, config).fit(train[:8])
        assert history.num_epochs == 3
        assert all(np.isfinite(loss) for loss in history.train_loss)


class TestDeepETA:
    def test_fit_predict_valid(self, splits):
        train, _, test = splits
        model = DeepETA(DeepBaselineConfig(epochs=2)).fit(train[:10])
        instance = test[0]
        prediction = model.predict(instance)
        assert sorted(prediction.route.tolist()) == list(
            range(instance.num_locations))
        assert prediction.arrival_times.shape == (instance.num_locations,)

    def test_route_comes_from_provider(self, splits):
        train, _, test = splits
        provider = DistanceGreedy()
        model = DeepETA(DeepBaselineConfig(epochs=1),
                        route_provider=provider).fit(train[:6])
        instance = test[0]
        assert np.array_equal(model.predict(instance).route,
                              provider.predict(instance).route)

    def test_training_improves_time_error(self, splits):
        from repro.metrics import mae
        train, _, _ = splits
        subset = train[:12]
        model = DeepETA(DeepBaselineConfig(epochs=4, seed=2))
        model.route_provider.fit(subset)

        def score():
            errors = []
            for instance in subset:
                prediction = model.predict(instance)
                errors.append(mae(prediction.arrival_times,
                                  instance.arrival_times))
            return float(np.mean(errors))

        before = score()
        model.fit(subset)
        after = score()
        assert after < before
