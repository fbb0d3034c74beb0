"""Pure-numpy reverse-mode autodiff engine.

The deep-learning substrate of the reproduction: a tape-based
:class:`Tensor`, functional operations, optimisers and a
finite-difference gradient checker.
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from .ops import (
    as_tensor,
    concat,
    stack,
    repeat_steps,
    where,
    maximum,
    softmax,
    log_softmax,
    masked_softmax,
    padded_gather,
    cross_entropy,
    mae_loss,
    mse_loss,
    huber_loss,
    dropout,
)
from .optim import (
    SGD, Adam, AdamW, RMSprop, StepLR, CosineAnnealingLR, Optimizer,
    clip_grad_norm,
)
from .extra_ops import (
    clip,
    l2_norm,
    logsumexp,
    min_reduce,
    minimum,
    softplus,
    tensor_pow,
)
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "as_tensor", "concat", "stack", "repeat_steps", "where", "maximum",
    "softmax", "log_softmax", "masked_softmax", "padded_gather",
    "cross_entropy",
    "mae_loss", "mse_loss", "huber_loss", "dropout",
    "SGD", "Adam", "AdamW", "RMSprop", "StepLR", "CosineAnnealingLR",
    "Optimizer", "clip_grad_norm",
    "clip", "l2_norm", "logsumexp", "min_reduce", "minimum", "softplus",
    "tensor_pow",
    "check_gradients", "numerical_gradient",
]
