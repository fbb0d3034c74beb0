"""Functional operations composing or extending :class:`~repro.autodiff.tensor.Tensor`.

These are the operations that do not fit naturally as methods: variadic
joins (:func:`concat`, :func:`stack`), masked selection (:func:`where`),
numerically stable softmax family, and the loss functions used by the
models (cross-entropy over route pointers, MAE/MSE over arrival times).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .tensor import Tensor

ArrayLike = Union[Tensor, np.ndarray, float, int]


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op when it already is one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor.from_op(data, tensors, backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(np.take(grad, i, axis=axis))

    return Tensor.from_op(data, tensors, backward, "stack")


def repeat_steps(x: Tensor, steps: int) -> Tensor:
    """``x`` repeated along a new leading axis of ``steps`` steps.

    The backward adds each step's gradient into ``x`` on its own, step
    0 first: the order in which the tape accumulates a tensor that a
    loop of per-step branches reads once per step (a decoder scoring
    its steps one by one).  Step-batched code that reads ``x`` through
    this op keeps that loop's gradient bitwise.
    """
    data = np.broadcast_to(x.data, (steps,) + x.shape)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            for step in range(steps):
                x._accumulate(grad[step])

    return Tensor.from_op(data, (x,), backward, "repeat_steps")


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable ``np.where`` — ``condition`` is a plain boolean array."""
    a_t, b_t = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a_t.data, b_t.data)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if a_t.requires_grad:
            a_t._accumulate(np.where(condition, grad, 0.0))
        if b_t.requires_grad:
            b_t._accumulate(np.where(condition, 0.0, grad))

    return Tensor.from_op(data, (a_t, b_t), backward, "where")


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum; gradient goes to the larger operand (split on ties)."""
    a_t, b_t = as_tensor(a), as_tensor(b)
    return where(a_t.data >= b_t.data, a_t, b_t)


def softmax(logits: Tensor, axis: int = -1,
            mask: Optional[np.ndarray] = None) -> Tensor:
    """Numerically stable softmax.

    Parameters
    ----------
    logits:
        Raw scores.
    axis:
        Normalisation axis.
    mask:
        Optional boolean array, ``True`` where positions are *valid*.
        Invalid positions get probability exactly zero; gradients do not
        flow through them.  Slices with no valid position produce an
        all-zero output (not NaN), matching :func:`masked_softmax`.
    """
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    if mask is not None:
        mask_arr = np.asarray(mask, dtype=bool)
        exp = exp * Tensor(mask_arr.astype(np.float64))
        # +1 in the denominator of empty slices only: 0/1 = 0 there,
        # and adding 0.0 leaves every non-empty slice bit-identical.
        empty = (~mask_arr).all(axis=axis, keepdims=True)
        return exp / (exp.sum(axis=axis, keepdims=True)
                      + Tensor(empty.astype(np.float64)))
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1,
                mask: Optional[np.ndarray] = None) -> Tensor:
    """Numerically stable log-softmax with optional validity mask.

    Masked (invalid) positions receive a large negative constant before
    normalisation so that they contribute (numerically) nothing to the
    partition function while keeping the computation differentiable.
    """
    if mask is not None:
        penalty = np.where(np.asarray(mask, dtype=bool), 0.0, -1e30)
        logits = logits + Tensor(penalty)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    log_z = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_z


def masked_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Padding-safe masked softmax.

    Unlike :func:`softmax`, this op tolerates slices whose mask is
    entirely ``False`` (padding rows of a batched graph): such slices
    produce an all-zero output instead of ``nan``.  Masked positions get
    probability exactly zero and receive exactly zero gradient, and the
    shift point is the *masked* maximum so that arbitrary (finite)
    garbage in padding positions can never overflow ``exp``.
    """
    mask_arr = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    mask_f = mask_arr.astype(np.float64)
    with np.errstate(invalid="ignore"):
        row_max = np.where(mask_arr, logits.data, -np.inf).max(
            axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    shifted = logits - Tensor(row_max)
    # Clamp masked positions to zero *before* exp: their (finite but
    # arbitrary) values must not overflow, and where() routes them zero
    # gradient.
    shifted = where(mask_arr, shifted, Tensor(np.zeros(logits.shape)))
    exp = shifted.exp() * Tensor(mask_f)
    denominator = exp.sum(axis=axis, keepdims=True)
    # Fully-masked slices: denominator is 0; add 1 there so 0/1 = 0.
    empty = (~mask_arr).all(axis=axis, keepdims=True)
    denominator = denominator + Tensor(empty.astype(np.float64))
    return exp / denominator


def padded_gather(values: Tensor, indices: np.ndarray,
                  valid: Optional[np.ndarray] = None) -> Tensor:
    """Batched row gather with a validity mask for padding entries.

    ``values`` is ``(B, N, ...)``; ``indices`` is an integer array
    ``(B, ...)`` of row indices into axis 1.  Returns
    ``values[b, indices[b, ...]]`` per batch element.  Where ``valid``
    (same shape as ``indices``) is ``False`` the index is ignored: the
    output is exactly zero and *no* gradient flows back into ``values``
    — padded gather steps are inert.
    """
    indices = np.asarray(indices, dtype=np.int64)
    batch = np.arange(values.shape[0]).reshape(
        (-1,) + (1,) * (indices.ndim - 1))
    if valid is None:
        return values[batch, indices]
    valid = np.asarray(valid, dtype=bool)
    safe = np.where(valid, indices, 0)
    gathered = values[batch, safe]
    keep = valid.astype(np.float64).reshape(
        valid.shape + (1,) * (gathered.ndim - valid.ndim))
    return gathered * Tensor(keep)


def cross_entropy(logits: Tensor, target: int,
                  mask: Optional[np.ndarray] = None) -> Tensor:
    """Cross-entropy of a single decoding step.

    ``logits`` is a 1-D tensor of scores over candidates, ``target`` the
    index of the true next node, ``mask`` marks feasible candidates.
    """
    log_probs = log_softmax(logits, axis=-1, mask=mask)
    return -log_probs[int(target)]


def mae_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error against a constant target array (Eq. 39/40)."""
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    return diff.abs().mean()


def mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss — quadratic near zero, linear in the tails."""
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    abs_diff = diff.abs()
    quadratic = diff * diff * 0.5
    linear = abs_diff * delta - 0.5 * delta * delta
    return where(abs_diff.data <= delta, quadratic, linear).mean()


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * Tensor(mask)
