"""Tests for the GRU decoder-cell option of M2G4RTP."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import (
    GraphBatch,
    M2G4RTP,
    M2G4RTPConfig,
    RouteDecoder,
    RTPTargets,
    SortLSTM,
    beam_search_predict,
)
from repro.core.decoder import RecurrentCell
from repro.training import Trainer, TrainerConfig


class TestRecurrentCell:
    def test_lstm_state_is_tuple(self, rng):
        cell = RecurrentCell(4, 6, rng, "lstm")
        h, state = cell.step(Tensor(np.zeros(4)), None)
        assert isinstance(state, tuple) and len(state) == 2
        assert h.shape == (6,)

    def test_gru_state_is_hidden(self, rng):
        cell = RecurrentCell(4, 6, rng, "gru")
        h, state = cell.step(Tensor(np.zeros(4)), None)
        assert state is h

    def test_unknown_cell_type(self, rng):
        with pytest.raises(ValueError):
            RecurrentCell(4, 6, rng, "rnn")


class TestGRUDecoders:
    def test_route_decoder_gru(self, rng):
        decoder = RouteDecoder(6, 8, 3, rng, restrict_to_neighbors=False,
                               cell_type="gru")
        routes, _ = decoder.forward_batch(Tensor(rng.normal(size=(1, 5, 6))),
                                          Tensor(np.zeros((1, 3))),
                                          np.array([5]))
        assert sorted(routes[0].tolist()) == list(range(5))

    def test_sortlstm_gru(self, rng):
        sorter = SortLSTM(6, 8, position_dim=4, rng=rng, cell_type="gru")
        times = sorter.forward_batch(Tensor(rng.normal(size=(1, 4, 6))),
                                     np.arange(4)[None], np.array([4]))
        assert times.shape == (1, 4)


class TestGRUModel:
    @pytest.fixture(scope="class")
    def gru_model(self):
        return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                     num_encoder_layers=1, cell_type="gru"))

    def test_forward_and_losses(self, gru_model, graph, instance):
        output = gru_model(GraphBatch.from_graphs([graph]),
                           [RTPTargets.from_instance(instance)])
        assert np.isfinite(float(output.total_loss.data))
        output.total_loss.backward()

    def test_predict(self, gru_model, graph, instance):
        output = gru_model.predict(graph)
        assert sorted(output.route.tolist()) == list(
            range(instance.num_locations))

    def test_beam_search(self, gru_model, graph, instance):
        output = beam_search_predict(gru_model, graph, width=3)
        assert sorted(output.route.tolist()) == list(
            range(instance.num_locations))

    def test_fewer_parameters_than_lstm(self, gru_model):
        lstm_model = M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                           num_encoder_layers=1,
                                           cell_type="lstm"))
        assert gru_model.num_parameters() < lstm_model.num_parameters()

    def test_trains(self, gru_model, splits):
        train, _, _ = splits
        history = Trainer(gru_model, TrainerConfig(epochs=2)).fit(train[:6])
        assert history.train_loss[-1] < history.train_loss[0] * 1.5
