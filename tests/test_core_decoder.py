"""Tests for the route decoder, SortLSTM and AOI guidance helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor
from repro.core import RouteDecoder, SortLSTM
from repro.core.decoder import route_positions
from repro.nn import position_table


def make_decoder(rng, node_dim=6):
    return RouteDecoder(node_dim=node_dim, state_dim=8, courier_dim=3,
                        rng=rng)


def decode(decoder, nodes, teacher=None):
    """``decoder.forward_batch`` on one ``(n, d)`` instance as a batch of one."""
    n = nodes.shape[0]
    routes, label_log_probs = decoder.forward_batch(
        nodes.reshape(1, n, -1), Tensor(np.zeros((1, 3))), np.array([n]),
        teacher_routes=None if teacher is None else teacher[None])
    return routes[0], label_log_probs


def record_log_probs(decoder, monkeypatch):
    """Capture every step's ``(B, n)`` log-probability rows."""
    steps = []
    original = decoder.attention.log_probs_batch

    def spy(keys, query, mask):
        out = original(keys, query, mask)
        steps.append(out.data.copy())
        return out

    monkeypatch.setattr(decoder.attention, "log_probs_batch", spy)
    return steps


class TestRouteDecoder:
    def test_output_is_permutation(self, rng):
        decoder = make_decoder(rng)
        route, _ = decode(decoder, Tensor(rng.normal(size=(7, 6))))
        assert sorted(route.tolist()) == list(range(7))

    def test_step_log_probs_count(self, rng):
        decoder = make_decoder(rng)
        nodes = Tensor(rng.normal(size=(5, 6)))
        _, label_log_probs = decode(decoder, nodes, teacher=np.arange(5))
        assert label_log_probs.shape == (1, 5)

    def test_teacher_forcing_follows_targets(self, rng):
        decoder = make_decoder(rng)
        nodes = Tensor(rng.normal(size=(6, 6)))
        teacher = np.array([3, 1, 5, 0, 4, 2])
        route, _ = decode(decoder, nodes, teacher=teacher)
        assert np.array_equal(route, teacher)

    def test_visited_nodes_masked(self, rng, monkeypatch):
        decoder = make_decoder(rng)
        steps = record_log_probs(decoder, monkeypatch)
        route, _ = decode(decoder, Tensor(rng.normal(size=(5, 6))))
        assert len(steps) == 5
        for step, log_probs in enumerate(steps):
            visited = route[:step]
            assert np.all(log_probs[0, visited] < -1e20)

    def test_single_node(self, rng):
        decoder = make_decoder(rng)
        route, _ = decode(decoder, Tensor(rng.normal(size=(1, 6))))
        assert route.tolist() == [0]

    def test_loss_gradients_flow(self, rng):
        decoder = make_decoder(rng)
        nodes = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        teacher = np.array([2, 0, 3, 1])
        _, label_log_probs = decode(decoder, nodes, teacher=teacher)
        (-label_log_probs.sum()).backward()
        assert nodes.grad is not None and np.any(nodes.grad != 0)


def sort_times(sort_lstm, nodes, route):
    """``SortLSTM.forward_batch`` on one ``(n, d)`` instance → ``(n,)``."""
    n = nodes.shape[0]
    return sort_lstm.forward_batch(nodes.reshape(1, n, -1),
                                   np.asarray(route)[None],
                                   np.array([n])).reshape(n)


class TestSortLSTM:
    def test_outputs_in_node_order(self, rng):
        sort_lstm = SortLSTM(6, 8, position_dim=4, rng=rng)
        nodes = Tensor(rng.normal(size=(5, 6)))
        route = np.array([4, 2, 0, 3, 1])
        times = sort_times(sort_lstm, nodes, route)
        assert times.shape == (5,)

    def test_position_dim_validation(self, rng):
        with pytest.raises(ValueError):
            SortLSTM(6, 8, position_dim=1, rng=rng)

    def test_rejects_non_permutation(self, rng):
        sort_lstm = SortLSTM(6, 8, position_dim=4, rng=rng)
        nodes = Tensor(rng.normal(size=(3, 6)))
        with pytest.raises(ValueError):
            sort_times(sort_lstm, nodes, np.array([0, 0, 2]))

    def test_route_order_changes_prediction(self, rng):
        sort_lstm = SortLSTM(6, 8, position_dim=4, rng=rng)
        nodes = Tensor(rng.normal(size=(4, 6)))
        a = sort_times(sort_lstm, nodes, np.array([0, 1, 2, 3])).data
        b = sort_times(sort_lstm, nodes, np.array([3, 2, 1, 0])).data
        assert not np.allclose(a, b)

    def test_scatter_correctness(self, rng):
        """The value predicted at step s lands on node route[s]."""
        sort_lstm = SortLSTM(6, 8, position_dim=4, rng=rng)
        nodes = Tensor(rng.normal(size=(4, 6)))
        route = np.array([2, 0, 3, 1])
        times = sort_times(sort_lstm, nodes, route).data
        # Recompute step-ordered outputs directly.
        identity = sort_times(sort_lstm, nodes[route], np.arange(4)).data
        assert np.allclose(times[route], identity)

    def test_not_forced_monotone(self, rng):
        """The paper stresses outputs are NOT constrained to increase."""
        candidates = []
        for seed in range(10):
            local = np.random.default_rng(seed)
            sort_lstm = SortLSTM(6, 8, position_dim=4, rng=local)
            nodes = Tensor(local.normal(size=(6, 6)) * 3)
            times = sort_times(sort_lstm, nodes, np.arange(6)).data
            candidates.append(np.any(np.diff(times) < 0))
        assert any(candidates)

    def test_gradients_flow(self, rng):
        sort_lstm = SortLSTM(6, 8, position_dim=4, rng=rng)
        nodes = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        sort_times(sort_lstm, nodes, np.arange(4)).sum().backward()
        assert nodes.grad is not None


class TestPositionalGuidance:
    """AOI guidance (Eq. 34) gathers each AOI's position encoding from
    the cached table at the AOI's step in the route."""

    def test_shape_and_values(self):
        route = np.array([[2, 0, 1]])
        guidance = position_table(3, 4)[route_positions(route, np.array([3]))[0]]
        assert guidance.shape == (3, 4)
        from repro.nn import sinusoidal_position_encoding
        # Node 2 is visited first -> position 1.
        assert np.allclose(guidance[2], sinusoidal_position_encoding(1, 4))
        assert np.allclose(guidance[0], sinusoidal_position_encoding(2, 4))
        assert np.allclose(guidance[1], sinusoidal_position_encoding(3, 4))

    @given(st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_every_row_filled(self, n):
        rng = np.random.default_rng(n)
        route = rng.permutation(n)[None]
        guidance = position_table(n, 6)[route_positions(route, np.array([n]))[0]]
        assert np.all(np.abs(guidance).sum(axis=1) > 0)
        # Bitwise the rows a fresh computation gives, and read-only.
        from repro.nn import sinusoidal_position_encoding
        for node, step in enumerate(np.argsort(route[0])):
            np.testing.assert_array_equal(
                guidance[node], sinusoidal_position_encoding(step + 1, 6))
        assert not position_table(n, 6).flags.writeable
