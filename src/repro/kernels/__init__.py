"""Fused no-grad inference kernels.

Whenever gradients are disabled, four ``forward_batch`` stages of
``repro.core`` run :mod:`repro.kernels.fused`, single-pass kernels over
per-call scratch arrays: the level embed (``fused.level_embed``), the
GAT-e stack (``fused.gat_encoder_forward``), the greedy pointer decode
(``fused.pointer_decode``) and the sort-RNN (``fused.sort_rnn_forward``).
The "w/o graph" BiLSTM has no kernel: it runs ``LSTMCell.unroll`` with
gradients on or off.

Training shares one of these forwards: with gradients on, the GAT-e
stack is one tape node whose forward is ``fused.gat_encoder_forward``.
The other three stages train on Tensor code (the embedding ops, the
teacher-forced pointer pass, ``LSTMCell.unroll``), which is the
specification.  ``tests/test_kernel_conformance.py`` checks each kernel
bitwise against it, run with gradients enabled: the level embed against
the Tensor embedding, the pointer decode against the Tensor greedy step
loop, the sort-RNN against ``SortLSTM``'s Tensor pass, the LSTM stepper
those two share against ``LSTMCell.forward``, and the GAT-e stack
against the per-head Tensor code that its tape node replaced
(``reference_gat`` in ``tests/test_gat_tape.py``, which also checks that
node's gradients).

Both batched serving (``RTPService.handle_batch``) and single-request
serving (``RTPService.handle``, a batch of one) reach the kernels
through :class:`repro.core.BatchedM2G4RTP`.  There is one fast path:
no backend selection and no fallback.
"""

from . import fused

__all__ = ["fused"]
