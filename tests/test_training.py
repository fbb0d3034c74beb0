"""Tests for the trainer, early stopping, two-step mode and checkpoints."""

import numpy as np
import pytest

from repro.autodiff import SGD, Adam
from repro.core import (GraphBatch, M2G4RTP, M2G4RTPConfig, RTPTargets,
                        make_variant)
from repro.training import (
    CheckpointError,
    Trainer,
    TrainerConfig,
    load_checkpoint,
    save_checkpoint,
    train_m2g4rtp,
)


def small_model(seed=0, **overrides):
    config = M2G4RTPConfig(hidden_dim=16, num_heads=2, num_encoder_layers=1,
                           seed=seed, **overrides)
    return M2G4RTP(config)


class TestTrainer:
    def test_loss_decreases(self, splits):
        train, _, _ = splits
        model = small_model()
        trainer = Trainer(model, TrainerConfig(epochs=4))
        history = trainer.fit(train[:12])
        assert history.num_epochs == 4
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_records_sigmas(self, splits):
        train, _, _ = splits
        model = small_model()
        history = Trainer(model, TrainerConfig(epochs=2)).fit(train[:6])
        assert len(history.sigmas) == 2
        assert set(history.sigmas[0]) == {
            "aoi_route", "location_route", "aoi_time", "location_time"}

    def test_early_stopping_restores_best(self, splits):
        train, val, _ = splits
        model = small_model()
        trainer = Trainer(model, TrainerConfig(epochs=30, patience=2))
        history = trainer.fit(train[:10], val[:6])
        assert history.num_epochs <= 30
        assert history.best_epoch >= 0
        # The restored model must reproduce the best validation loss.
        graphs = [trainer.builder.build(i) for i in val[:6]]
        targets = [RTPTargets.from_instance(i) for i in val[:6]]
        restored = trainer.evaluate_loss(graphs, targets)
        assert np.isclose(restored, min(history.val_loss), atol=1e-6)

    def test_model_left_in_eval_mode(self, splits):
        train, _, _ = splits
        model = small_model()
        Trainer(model, TrainerConfig(epochs=1)).fit(train[:4])
        assert not model.training

    def test_two_step_uses_separate_optimizers(self, splits):
        train, _, _ = splits
        model = small_model(detach_time_inputs=True)
        trainer = Trainer(model, TrainerConfig(epochs=2))
        history = trainer.fit(train[:8])
        assert history.num_epochs == 2
        assert np.isfinite(history.train_loss).all()

    def test_convenience_function(self, splits):
        train, val, _ = splits
        model, history = train_m2g4rtp(
            train[:6], val[:4], model=small_model(),
            trainer_config=TrainerConfig(epochs=2))
        assert isinstance(model, M2G4RTP)
        assert history.num_epochs >= 1

    def test_variant_training_smoke(self, splits):
        train, _, _ = splits
        for name in ("w/o aoi", "w/o uncertainty"):
            model = M2G4RTP(make_variant(name, M2G4RTPConfig(
                hidden_dim=16, num_heads=2, num_encoder_layers=1)))
            history = Trainer(model, TrainerConfig(epochs=1)).fit(train[:4])
            assert history.num_epochs == 1


class TestTrainerConfig:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_size", 0), ("batch_size", -3),
        ("learning_rate", 0.0), ("lr_schedule", "linear")])
    def test_bad_value_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})

    def test_defaults_and_both_schedules_accepted(self):
        TrainerConfig()
        TrainerConfig(lr_schedule="cosine", epochs=1, batch_size=1)


class TestCheckpoint:
    def test_roundtrip(self, splits, tmp_path, graph):
        train, _, _ = splits
        model = small_model()
        Trainer(model, TrainerConfig(epochs=1)).fit(train[:4])
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)

        clone = small_model(seed=42)
        load_checkpoint(clone, path)
        a = model.predict(graph)
        b = clone.predict(graph)
        assert np.array_equal(a.route, b.route)
        assert np.allclose(a.arrival_times, b.arrival_times)

    def test_load_into_wrong_architecture(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other = M2G4RTP(M2G4RTPConfig(hidden_dim=24, num_heads=2,
                                      num_encoder_layers=1))
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(other, path)


def _train_steps(model, optimizer, data, steps):
    """``steps`` deterministic single-instance optimisation steps."""
    model.train()
    for step in range(steps):
        graph, target = data[step % len(data)]
        optimizer.zero_grad()
        output = model(GraphBatch.from_graphs([graph]), [target])
        output.total_loss.backward()
        optimizer.step()


class TestResumeTraining:
    """save/load with ``optimizer=`` must make a resumed run identical
    to an uninterrupted one."""

    @pytest.fixture()
    def data(self, splits, builder):
        train, _, _ = splits
        return [(builder.build(instance),
                 RTPTargets.from_instance(instance))
                for instance in train[:4]]

    def test_resume_mid_training_is_identical(self, data, tmp_path):
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-3)
        _train_steps(model, optimizer, data, 3)
        path = save_checkpoint(model, tmp_path / "mid.npz", optimizer)
        _train_steps(model, optimizer, data, 3)
        reference = model.state_dict()

        resumed = small_model(seed=7)   # different init: all from ckpt
        resumed_optimizer = Adam(resumed.parameters(), lr=0.5)
        load_checkpoint(resumed, path, optimizer=resumed_optimizer)
        assert resumed_optimizer.lr == optimizer.lr
        _train_steps(resumed, resumed_optimizer, data, 3)
        restored = resumed.state_dict()
        for name in reference:
            assert np.array_equal(reference[name], restored[name]), name

    def test_cold_restart_differs_without_optimizer_state(self, data,
                                                          tmp_path):
        # Control for the test above: restoring the weights but NOT the
        # Adam moments does change the trajectory.
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-3)
        _train_steps(model, optimizer, data, 3)
        path = save_checkpoint(model, tmp_path / "mid.npz", optimizer)
        _train_steps(model, optimizer, data, 3)
        reference = model.state_dict()

        cold = small_model(seed=7)
        load_checkpoint(cold, path)     # weights only
        _train_steps(cold, Adam(cold.parameters(), lr=1e-3), data, 3)
        restored = cold.state_dict()
        assert any(not np.array_equal(reference[name], restored[name])
                   for name in reference)

    def test_weights_only_checkpoint_cannot_resume(self, data, tmp_path):
        model = small_model()
        path = save_checkpoint(model, tmp_path / "weights.npz")
        optimizer = Adam(model.parameters())
        with pytest.raises(CheckpointError, match="no optimizer state"):
            load_checkpoint(model, path, optimizer=optimizer)

    def test_optimizer_kind_mismatch_rejected(self, data, tmp_path):
        model = small_model()
        adam = Adam(model.parameters())
        _train_steps(model, adam, data, 1)
        path = save_checkpoint(model, tmp_path / "adam.npz", adam)
        before = model.state_dict()
        sgd = SGD(model.parameters(), lr=0.1)
        with pytest.raises(CheckpointError, match="does not match"):
            load_checkpoint(model, path, optimizer=sgd)
        # Validate-before-apply: the failed load touched nothing.
        after = model.state_dict()
        assert all(np.array_equal(before[name], after[name])
                   for name in before)
