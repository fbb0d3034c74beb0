"""Edge-case and failure-injection tests across the pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.core import GraphBatch, M2G4RTP, M2G4RTPConfig, RTPTargets
from repro.data import AOI, Courier, Location, RTPInstance
from repro.graphs import GraphBuilder
from repro.service import RTPRequest, RTPService


def tiny_instance(n_locations=1, n_aois=1):
    """A minimal but valid instance (single AOI / single location)."""
    courier = Courier(courier_id=0, speed=200.0, working_hours=8.0,
                      attendance_rate=0.9, service_time_mean=3.0,
                      aoi_type_preference=(0, 1, 2, 3, 4, 5))
    aois = [AOI(aoi_id=i, aoi_type=i % 6,
                center=(120.1 + 0.01 * i, 30.2)) for i in range(n_aois)]
    locations = []
    for i in range(n_locations):
        aoi = aois[i % n_aois]
        locations.append(Location(
            location_id=i, coord=(aoi.center[0] + 1e-4 * i, aoi.center[1]),
            aoi_id=aoi.aoi_id, accept_time=400.0, deadline=550.0))
    order = np.arange(n_locations)
    arrival = np.linspace(4.0, 4.0 + 5 * n_locations, n_locations)
    aoi_seen, aoi_arrival = [], []
    for i in order:
        a = locations[i].aoi_id
        if a not in aoi_seen:
            aoi_seen.append(a)
            aoi_arrival.append(arrival[i])
    aoi_route = np.array([aoi_seen.index(a.aoi_id) for a in aois
                          if a.aoi_id in aoi_seen])
    # Build aoi_route as permutation of all aois in visit order.
    aoi_route = np.argsort([aoi_seen.index(a.aoi_id) for a in aois])
    return RTPInstance(
        courier=courier, request_time=480.0,
        courier_position=(120.1, 30.2),
        locations=locations, aois=aois,
        route=order, arrival_times=arrival,
        aoi_route=aoi_route,
        aoi_arrival_times=np.array([
            min(arrival[i] for i in range(n_locations)
                if locations[i].aoi_id == aoi.aoi_id)
            for aoi in aois
        ]),
    )


@pytest.fixture(scope="module")
def tiny_model():
    return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                 num_encoder_layers=1))


class TestSingleLocation:
    def test_graph_builder_handles_n1(self):
        instance = tiny_instance(1, 1)
        graph = GraphBuilder().build(instance)
        assert graph.num_locations == 1
        assert graph.location.adjacency[0, 0]

    def test_model_predicts_n1(self, tiny_model):
        instance = tiny_instance(1, 1)
        graph = GraphBuilder().build(instance)
        output = tiny_model.predict(graph)
        assert output.route.tolist() == [0]
        assert output.aoi_route.tolist() == [0]

    def test_model_trains_on_n1(self, tiny_model):
        instance = tiny_instance(1, 1)
        graph = GraphBuilder().build(instance)
        output = tiny_model(GraphBatch.from_graphs([graph]),
                            [RTPTargets.from_instance(instance)])
        assert np.isfinite(float(output.total_loss.data))
        output.total_loss.backward()

    def test_service_handles_n1(self, tiny_model):
        service = RTPService(tiny_model)
        response = service.handle(RTPRequest.from_instance(tiny_instance(1, 1)))
        assert response.route.tolist() == [0]


class TestManyAOIs:
    def test_every_location_its_own_aoi(self, tiny_model):
        instance = tiny_instance(4, 4)
        graph = GraphBuilder().build(instance)
        assert graph.num_aois == 4
        output = tiny_model.predict(graph)
        assert sorted(output.aoi_route.tolist()) == [0, 1, 2, 3]

    def test_all_locations_one_aoi(self, tiny_model):
        instance = tiny_instance(5, 1)
        graph = GraphBuilder().build(instance)
        assert graph.num_aois == 1
        output = tiny_model.predict(graph)
        assert sorted(output.route.tolist()) == list(range(5))


class TestDegenerateGeometry:
    def test_identical_coordinates(self, tiny_model):
        """All locations at exactly the same point must not crash
        (zero distances everywhere)."""
        instance = tiny_instance(4, 1)
        same = [dataclasses.replace(loc, coord=(120.1, 30.2))
                for loc in instance.locations]
        instance = dataclasses.replace(instance, locations=same)
        graph = GraphBuilder().build(instance)
        assert np.all(np.isfinite(graph.location.edge_features))
        output = tiny_model.predict(graph)
        assert sorted(output.route.tolist()) == list(range(4))

    def test_identical_deadlines(self, tiny_model):
        instance = tiny_instance(4, 2)
        graph = GraphBuilder().build(instance)
        # deadline gaps are all zero -> temporal knn must still work.
        assert np.all(np.isfinite(graph.location.edge_features[..., 1]))
        tiny_model.predict(graph)

    def test_courier_far_away(self, tiny_model):
        instance = tiny_instance(3, 1)
        instance = dataclasses.replace(instance,
                                       courier_position=(121.5, 31.5))
        graph = GraphBuilder().build(instance)
        output = tiny_model.predict(graph)
        assert np.all(np.isfinite(output.arrival_times))


class TestLargeIdsAndVocabularies:
    def test_aoi_id_hashing(self, tiny_model):
        """AOI ids beyond the embedding vocabulary hash by modulo."""
        instance = tiny_instance(3, 2)
        big_aois = [dataclasses.replace(a, aoi_id=a.aoi_id + 10_000_000)
                    for a in instance.aois]
        big_locations = [dataclasses.replace(l, aoi_id=l.aoi_id + 10_000_000)
                         for l in instance.locations]
        instance = dataclasses.replace(instance, aois=big_aois,
                                       locations=big_locations)
        graph = GraphBuilder(num_aoi_ids=256).build(instance)
        assert np.all(graph.location.discrete[:, 0] < 256)
        tiny_model.predict(graph)

    def test_courier_id_hashing(self, tiny_model):
        instance = tiny_instance(3, 1)
        big_courier = dataclasses.replace(instance.courier,
                                          courier_id=987654321)
        instance = dataclasses.replace(instance, courier=big_courier)
        graph = GraphBuilder().build(instance)
        tiny_model.predict(graph)


class TestWeatherCodes:
    def test_all_weather_codes_accepted(self, tiny_model):
        for weather in range(4):
            instance = dataclasses.replace(tiny_instance(3, 1),
                                           weather=weather)
            graph = GraphBuilder().build(instance)
            tiny_model.predict(graph)
