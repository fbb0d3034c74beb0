"""End-to-end determinism: same seed ⇒ bitwise-identical predictions.

Repeated predictions from one engine must agree bit for bit, whatever
was predicted in between.  The kernels themselves are checked against
the Tensor code in ``tests/test_kernel_conformance.py``.
"""

import numpy as np
import pytest

from repro.core import BatchedM2G4RTP, M2G4RTP, M2G4RTPConfig


def small_config(**overrides) -> M2G4RTPConfig:
    base = dict(hidden_dim=16, num_heads=2, num_encoder_layers=1,
                continuous_embed_dim=8, discrete_embed_dim=4,
                position_dim=4, courier_embed_dim=4, seed=5)
    base.update(overrides)
    return M2G4RTPConfig(**base)


@pytest.fixture(scope="module")
def instances(dataset):
    return list(dataset)[:10]


def flatten_outputs(outputs):
    parts = []
    for out in outputs:
        parts.append(out.route.astype(np.float64))
        parts.append(out.arrival_times)
        if out.aoi_route is not None:
            parts.append(out.aoi_route.astype(np.float64))
            parts.append(out.aoi_arrival_times)
    return np.concatenate([p.ravel() for p in parts])


class TestEndToEndDeterminism:
    def test_repeated_prediction_is_stable(self, instances, builder):
        """Two runs of the same configuration agree with themselves —
        no fused-kernel state may leak across calls."""
        model = M2G4RTP(small_config())
        engine = BatchedM2G4RTP(model)
        graphs = [builder.build(instance) for instance in instances]
        first = flatten_outputs(engine.predict(graphs))
        # Interleave a different-shaped batch between the two runs.
        engine.predict(graphs[:3])
        second = flatten_outputs(engine.predict(graphs))
        np.testing.assert_array_equal(first, second)
