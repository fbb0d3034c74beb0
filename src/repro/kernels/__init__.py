"""Fused no-grad inference kernels.

Whenever gradients are disabled, the ``forward_batch`` methods of
``repro.core`` (level embed, GAT-e stack, BiLSTM unroll, pointer
decode, sort-RNN) run :mod:`repro.kernels.fused`: single-pass kernels
over per-call scratch arrays.  Training and autodiff run the Tensor
code of the same methods, which is the specification:
``tests/test_kernel_conformance.py`` checks every kernel bitwise
against it, run with gradients enabled.

Both batched serving (``RTPService.handle_batch``) and single-request
serving (``RTPService.handle``, a batch of one) reach the kernels
through :class:`repro.core.BatchedM2G4RTP`.  There is one fast path:
no backend selection and no fallback.
"""

from . import fused

__all__ = ["fused"]
