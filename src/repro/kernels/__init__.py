"""Fused no-grad inference kernels with backend dispatch.

``repro.core`` routes its hot inference paths (GAT-e stack, LSTM/GRU
unrolls, pointer decode, sort-RNN) through this package whenever
gradients are disabled; training and autodiff keep the existing
verified Tensor path.  Two backends are provided:

* ``reference`` — the previously inlined, test-certified paths;
* ``fused`` — single-pass kernels that write into per-call scratch
  arrays, bit-identical by construction and certified by
  ``tests/test_kernel_conformance.py``.

Both batched serving (``RTPService.handle_batch``) and single-request
serving (``RTPService.handle``, a batch of one) run through the
selected backend via :class:`repro.core.BatchedM2G4RTP`;
``M2G4RTP.predict`` stays the per-instance Tensor path they are
checked against.

Select with :func:`use` / :func:`backend_scope`, the ``REPRO_KERNELS``
environment variable, or the CLI ``--kernels`` flag.
"""

from .dispatch import (
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_VAR,
    KernelUnavailableError,
    active,
    active_name,
    available_backends,
    backend_scope,
    fallback_reason,
    require,
    use,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelUnavailableError",
    "active",
    "active_name",
    "available_backends",
    "backend_scope",
    "fallback_reason",
    "require",
    "use",
]
