"""Shared fixtures: a small synthetic world and dataset reused across tests.

Also wires the ``slow`` marker: tests marked ``@pytest.mark.slow``
(extended fuzz sweeps, large parity sweeps) are skipped unless pytest
runs with ``--runslow``.
"""

import numpy as np
import pytest

from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.graphs import GraphBuilder


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run tests marked slow (extended sweeps)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test, needs --runslow to execute")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow option to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def world():
    config = GeneratorConfig(
        num_aois=40, num_couriers=4, num_days=6,
        instances_per_courier_day=2, seed=123)
    return SyntheticWorld(config)


@pytest.fixture(scope="session")
def dataset(world):
    return RTPDataset(world.generate())


@pytest.fixture(scope="session")
def splits(dataset):
    return dataset.split_by_day()


@pytest.fixture(scope="session")
def builder():
    return GraphBuilder(k_neighbors=3)


@pytest.fixture(scope="session")
def instance(dataset):
    # A multi-AOI instance with a handful of locations.
    for candidate in dataset:
        if candidate.num_aois >= 2 and candidate.num_locations >= 5:
            return candidate
    return dataset[0]


@pytest.fixture(scope="session")
def graph(builder, instance):
    return builder.build(instance)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


#: (locations, AOIs) of the conformance sweep's instances.
SWEEP_SIZES = [(1, 1), (2, 1), (6, 3), (16, 8), (33, 12), (64, 16)]


@pytest.fixture(scope="module")
def sweep_graphs(world, builder):
    """Instances spanning 1-64 locations and 1-16 AOIs."""
    graphs = []
    for index, (num_locations, num_aois) in enumerate(SWEEP_SIZES):
        instance = world.simulate_courier_day(
            courier_index=index % 4, day=index % 6,
            num_locations=num_locations, num_aois=num_aois,
            seed=1000 + index)
        graphs.append(builder.build(instance))
    return graphs
