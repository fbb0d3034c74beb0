"""Property-based invariants of the full model over random instances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GraphBatch, M2G4RTP, M2G4RTPConfig, RTPTargets
from repro.data import GeneratorConfig, SyntheticWorld
from repro.graphs import GraphBuilder
from repro.nn import parameter_table, count_parameters_by_module


@pytest.fixture(scope="module")
def shared_model():
    return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                 num_encoder_layers=1))


@pytest.fixture(scope="module")
def shared_world():
    return SyntheticWorld(GeneratorConfig(num_aois=30, num_couriers=3,
                                          num_days=2, seed=321))


class TestModelInvariants:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_prediction_always_valid(self, shared_model, shared_world, seed):
        """For any generated instance: routes are permutations at both
        levels and times are finite."""
        rng = np.random.default_rng(seed)
        instance = shared_world.generate_instance(seed % 3, day=0, rng=rng)
        graph = GraphBuilder().build(instance)
        output = shared_model.predict(graph)
        assert sorted(output.route.tolist()) == list(
            range(instance.num_locations))
        assert sorted(output.aoi_route.tolist()) == list(
            range(instance.num_aois))
        assert np.all(np.isfinite(output.arrival_times))
        assert np.all(np.isfinite(output.aoi_arrival_times))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_losses_finite_for_any_instance(self, shared_model,
                                            shared_world, seed):
        rng = np.random.default_rng(seed)
        instance = shared_world.generate_instance(seed % 3, day=0, rng=rng)
        graph = GraphBuilder().build(instance)
        output = shared_model(GraphBatch.from_graphs([graph]),
                              [RTPTargets.from_instance(instance)])
        for name, loss in output.losses.items():
            assert np.isfinite(float(loss.data)), name

    def test_prediction_deterministic(self, shared_model, shared_world):
        rng = np.random.default_rng(5)
        instance = shared_world.generate_instance(0, day=0, rng=rng)
        graph = GraphBuilder().build(instance)
        a = shared_model.predict(graph)
        b = shared_model.predict(graph)
        assert np.array_equal(a.route, b.route)
        assert np.allclose(a.arrival_times, b.arrival_times)

    def test_input_order_permutation_changes_indices_not_set(
            self, shared_model, shared_world):
        """Permuting the input location order relabels indices; the set
        of predicted (location_id -> position) pairs may change (the
        decoder breaks ties by index), but the output stays a valid
        permutation and times stay finite."""
        rng = np.random.default_rng(9)
        instance = shared_world.generate_instance(0, day=0, rng=rng)
        import dataclasses
        perm = rng.permutation(instance.num_locations)
        inverse = np.argsort(perm)
        permuted = dataclasses.replace(
            instance,
            locations=[instance.locations[i] for i in perm],
            route=inverse[instance.route],
            arrival_times=instance.arrival_times[perm],
        )
        graph = GraphBuilder().build(permuted)
        output = shared_model.predict(graph)
        assert sorted(output.route.tolist()) == list(
            range(instance.num_locations))


class TestParameterTable:
    def test_table_totals(self, shared_model):
        table = parameter_table(shared_model)
        assert "total" in table
        total_line = table.splitlines()[-1]
        assert str(shared_model.num_parameters()) in total_line

    def test_group_counts_sum_to_total(self, shared_model):
        groups = count_parameters_by_module(shared_model)
        assert sum(groups.values()) == shared_model.num_parameters()
        assert "encoder" in groups

    def test_invalid_depth(self, shared_model):
        with pytest.raises(ValueError):
            parameter_table(shared_model, group_depth=0)
