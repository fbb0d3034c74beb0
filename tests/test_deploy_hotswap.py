"""Hot-swap concurrency: coherent versions for in-flight requests.

A promote or rollback landing *while requests are in flight* must
never produce a torn answer: every response carries the
``model_version`` of a service it was actually admitted to, no request
errors out because the candidate was yanked mid-call, and once the
swap has drained every new request is stamped with the surviving
version.  :class:`~repro.deploy.DeploymentController`, the one
rollout controller, is hammered from serving threads while the main
thread flips canary → promote / rollback.  A
:class:`~repro.serving_shard.ShardRouter` serves one version and has
no rollout of its own; its ``swap_to`` drain over worker queues is
covered in ``tests/test_serving_shard.py``.
"""

import threading

import numpy as np
import pytest

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.deploy import (DeploymentController, ModelRegistry,
                          ResilienceConfig, RolloutPolicy)
from repro.service import RTPRequest


def tiny_model(seed: int) -> M2G4RTP:
    model = M2G4RTP(M2G4RTPConfig(
        hidden_dim=16, num_heads=2, num_encoder_layers=1,
        continuous_embed_dim=8, discrete_embed_dim=4, position_dim=4,
        courier_embed_dim=4, seed=seed))
    model.eval()
    return model


@pytest.fixture()
def registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(tiny_model(seed=11), created_at="t1", data_seed=123)
    registry.register(tiny_model(seed=29), created_at="t2", data_seed=123)
    return registry


@pytest.fixture(scope="module")
def requests(dataset):
    instances = list(dataset)
    return [RTPRequest.from_instance(instances[i % len(instances)])
            for i in range(16)]


def make_controller(registry) -> DeploymentController:
    # min_requests is set far above the traffic volume so the rollout
    # verdict stays manual — these tests drive promote/rollback
    # explicitly while traffic is in flight.
    return DeploymentController(
        registry, initial="v001", seed=5,
        policy=RolloutPolicy(canary_fraction=0.5, min_requests=10_000),
        resilience=ResilienceConfig(deadline_ms=10_000.0))


def assert_valid(response, request):
    assert (sorted(int(i) for i in response.route)
            == list(range(request.num_locations)))
    assert np.all(np.isfinite(response.eta_minutes))


class TestSingleProcessHotSwap:
    def _hammer(self, controller, requests, versions_seen, errors,
                stop, barrier):
        rng = np.random.default_rng()
        barrier.wait()
        while not stop.is_set():
            request = requests[int(rng.integers(len(requests)))]
            try:
                response = controller.handle(request)
                assert_valid(response, request)
                versions_seen.append(response.model_version)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)
                return

    def test_concurrent_promote_is_coherent(self, registry, requests):
        controller = make_controller(registry)
        versions_seen, errors = [], []
        stop, barrier = threading.Event(), threading.Barrier(3)
        threads = [threading.Thread(
            target=self._hammer,
            args=(controller, requests, versions_seen, errors, stop,
                  barrier)) for _ in range(2)]
        for thread in threads:
            thread.start()
        barrier.wait()
        controller.start_canary("v002")
        controller.promote(reason="test")
        # Post-promote traffic keeps flowing before the threads stop.
        for request in requests[:4]:
            assert controller.handle(request).model_version == "v002"
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, f"in-flight request broke during promote: {errors}"
        assert set(versions_seen) <= {"v001", "v002"}
        assert controller.active_version == "v002"
        assert registry.active() == "v002"

    def test_concurrent_rollback_is_coherent(self, registry, requests):
        controller = make_controller(registry)
        versions_seen, errors = [], []
        stop, barrier = threading.Event(), threading.Barrier(3)
        threads = [threading.Thread(
            target=self._hammer,
            args=(controller, requests, versions_seen, errors, stop,
                  barrier)) for _ in range(2)]
        for thread in threads:
            thread.start()
        barrier.wait()
        # Repeated canary/rollback flaps while traffic is in flight —
        # the single most race-prone lifecycle (candidate repeatedly
        # appears and vanishes under the serving threads).
        for _ in range(5):
            controller.start_canary("v002")
            controller.rollback(reason="test")
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, f"in-flight request broke during rollback: {errors}"
        assert set(versions_seen) <= {"v001", "v002"}
        assert controller.active_version == "v001"
        assert registry.active() == "v001"
        assert controller.mode is None and controller.candidate is None

    def test_rollback_without_candidate_still_raises(self, registry):
        controller = make_controller(registry)
        with pytest.raises(RuntimeError):
            controller.rollback()
        with pytest.raises(RuntimeError):
            controller.promote()
