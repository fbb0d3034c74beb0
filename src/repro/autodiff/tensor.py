"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class, the computational
substrate for every neural model in this repository.  A ``Tensor`` wraps
a ``numpy.ndarray`` and records the operations applied to it so that
:meth:`Tensor.backward` can propagate gradients to every tensor with
``requires_grad=True``.

The design follows the classic define-by-run tape:

* every operation returns a new ``Tensor`` holding references to its
  parent tensors and a closure that accumulates gradients into them;
* :meth:`Tensor.backward` topologically sorts the graph and runs the
  closures in reverse order, freeing each interior node (its gradient,
  closure and parents) once it has propagated, as PyTorch does without
  ``retain_graph``: the tape is single-use, and only leaves keep
  ``.grad``;
* broadcasting is supported everywhere through :func:`_unbroadcast`.

All arithmetic is performed in ``float64`` so that the finite-difference
gradient checks in the test suite are meaningful.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used during evaluation and greedy decoding, where gradients are not
    needed and tape bookkeeping would waste time and memory.
    """
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Numpy broadcasting may have expanded an operand along leading axes or
    along axes of size one; the corresponding gradient must be summed
    back down to the operand's original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum away extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _freed(grad: np.ndarray) -> None:
    """The closure of an interior node an earlier backward freed."""
    raise RuntimeError(
        "backward() reached a node an earlier backward() already freed; "
        "a graph can be back-propagated only once")


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Anything convertible to a float64 ``numpy.ndarray``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`
        during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = np.asarray(
            data.data if isinstance(data, Tensor) else data, dtype=np.float64
        )
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str = "",
    ) -> "Tensor":
        """Build the result tensor of an operation.

        The tape edge is only recorded when grad mode is on and at least
        one parent requires a gradient.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a size-1 tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the tape."""
        return Tensor(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_tag})"

    # ------------------------------------------------------------------
    # Gradient accumulation
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        Each interior node drops its ``.grad``, closure and parents as
        soon as it has propagated, so the activations and gradients of
        the graph are released during the pass instead of after it.
        Leaves (parameters and tensors built with ``requires_grad``)
        keep ``.grad``; a later backward that reaches a freed node
        raises :class:`RuntimeError`.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required
            for non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on non-scalar tensor requires an explicit grad")
            grad = np.ones_like(self.data)

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=np.float64))
        while topo:
            # Popping drops the list's reference too, so a freed node's
            # data goes as soon as its last consumer has propagated.
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _freed
            node._parents = ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor.from_op(data, (self, other_t), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor.from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor.from_op(data, (self, other_t), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor.from_op(data, (self, other_t), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor.from_op(data, (self, other_t), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor.from_op(data, (self,), backward, "pow")

    # ------------------------------------------------------------------
    # Matrix multiply
    # ------------------------------------------------------------------
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data
        a, b = self.data, other_t.data

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    grad_a = grad * b
                elif b.ndim == 1:
                    # (..., d) @ (d,) -> (...,): expand grad over d.
                    grad_a = grad[..., None] * b
                else:
                    # Covers a.ndim == 1 too; _accumulate unbroadcasts.
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(grad_a)
            if other_t.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    grad_b = grad * a
                elif a.ndim == 1:
                    # (d,) @ (..., d, m) -> (..., m).
                    grad_b = a[:, None] * grad[..., None, :]
                elif b.ndim == 1:
                    # (..., d) @ (d,) -> (...): sum over every batch axis.
                    grad_b = (a * grad[..., None]).reshape(-1, a.shape[-1]).sum(axis=0)
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other_t._accumulate(grad_b)

        return Tensor.from_op(data, (self, other_t), backward, "matmul")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor.from_op(data, (self,), backward, "sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * g)

        return Tensor.from_op(data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor.from_op(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor.from_op(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor.from_op(data, (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return Tensor.from_op(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor.from_op(data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor.from_op(data, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, negative_slope)
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor.from_op(data, (self,), backward, "leaky_relu")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(original))

        return Tensor.from_op(data, (self,), backward, "reshape")

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        axes_arg = axes if axes else None
        data = self.data.transpose(axes_arg)
        if axes_arg is None:
            inverse = None
        else:
            inverse = np.argsort(axes_arg)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            self._accumulate(g.transpose(inverse) if inverse is not None else g.transpose())

        return Tensor.from_op(data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, np.asarray(grad))
            self._accumulate(full)

        return Tensor.from_op(data, (self,), backward, "getitem")
