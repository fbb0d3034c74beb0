"""Gradient-descent optimisers for :class:`~repro.autodiff.tensor.Tensor` parameters.

Implements the optimisers the paper's training recipes need: plain SGD
with momentum, Adam (used for all deep models here) and AdamW.  A small
:class:`StepLR` schedule and global-norm gradient clipping round out the
training substrate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base class holding a parameter list and the ``zero_grad`` loop.

    Every optimiser can round-trip its internal state (step counter,
    momentum / moment buffers) through :meth:`state_dict` /
    :meth:`load_state_dict`, so a resumed run continues
    *identically* to an uninterrupted one.  The state format is a plain
    dict of scalars and numpy arrays — the checkpoint layer
    (:mod:`repro.training.checkpoint`) persists it alongside the model
    weights.
    """

    #: Names of per-parameter numpy buffers (one list per name, aligned
    #: with ``self.parameters``); subclasses override.
    _slot_names: tuple = ()

    def __init__(self, parameters: Iterable[Tensor], lr: float):
        self.parameters: List[Tensor] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # State round-trip
    # ------------------------------------------------------------------
    def _scalar_state(self) -> Dict[str, float]:
        """Scalar entries of the state; subclasses extend."""
        return {"lr": self.lr}

    def _load_scalar_state(self, state: Dict[str, float]) -> None:
        self.lr = float(state["lr"])

    def state_dict(self) -> Dict[str, object]:
        """Full optimiser state: scalars plus per-parameter buffers.

        Returns ``{"kind": <class name>, "scalars": {...},
        "slots": {name: [array, ...]}}`` with the arrays copied, so the
        caller can serialise or stash the dict without aliasing live
        buffers.
        """
        return {
            "kind": type(self).__name__,
            "scalars": dict(self._scalar_state()),
            "slots": {
                name: [buffer.copy() for buffer in getattr(self, name)]
                for name in self._slot_names
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state saved by :meth:`state_dict`.

        Validates the optimiser kind and every buffer shape against the
        current parameter list *before* mutating anything, so a mismatch
        leaves the optimiser untouched.
        """
        kind = state.get("kind")
        if kind != type(self).__name__:
            raise ValueError(
                f"optimizer state is for {kind!r}, not {type(self).__name__!r}")
        slots = state.get("slots", {})
        missing = sorted(set(self._slot_names) - set(slots))
        if missing:
            raise ValueError(f"optimizer state missing buffers: {missing}")
        for name in self._slot_names:
            buffers = slots[name]
            if len(buffers) != len(self.parameters):
                raise ValueError(
                    f"optimizer state has {len(buffers)} {name!r} buffers "
                    f"for {len(self.parameters)} parameters")
            for buffer, parameter in zip(buffers, self.parameters):
                if np.asarray(buffer).shape != parameter.data.shape:
                    raise ValueError(
                        f"optimizer buffer {name} shape "
                        f"{np.asarray(buffer).shape} does not match "
                        f"parameter shape {parameter.data.shape}")
        self._load_scalar_state(state["scalars"])
        for name in self._slot_names:
            setattr(self, name, [np.asarray(buffer, dtype=np.float64).copy()
                                 for buffer in slots[name]])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    _slot_names = ("_velocity",)

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            parameter.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimiser used for every deep model here."""

    _slot_names = ("_m", "_v")

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def _scalar_state(self) -> Dict[str, float]:
        state = super()._scalar_state()
        state["t"] = self._t
        return state

    def _load_scalar_state(self, state: Dict[str, float]) -> None:
        super()._load_scalar_state(state)
        self._t = int(state["t"])

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def step(self) -> None:
        if self.weight_decay:
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.data -= self.lr * self.weight_decay * parameter.data
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            super().step()
        finally:
            self.weight_decay = decay


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton) — adaptive per-parameter step sizes."""

    _slot_names = ("_square_avg",)

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 alpha: float = 0.99, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._square_avg = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, square_avg in zip(self.parameters, self._square_avg):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            square_avg *= self.alpha
            square_avg += (1.0 - self.alpha) * grad * grad
            parameter.data -= self.lr * grad / (np.sqrt(square_avg) + self.eps)


class StepLR:
    """Multiply the optimiser learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        self.optimizer = optimizer
        self.step_size = int(step_size)
        self.gamma = float(gamma)
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


class CosineAnnealingLR:
    """Cosine learning-rate annealing from the initial LR to ``min_lr``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int,
                 min_lr: float = 0.0):
        if total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        self.optimizer = optimizer
        self.total_epochs = total_epochs
        self.min_lr = min_lr
        self._initial_lr = optimizer.lr
        self._epoch = 0

    def step(self) -> None:
        self._epoch = min(self._epoch + 1, self.total_epochs)
        progress = self._epoch / self.total_epochs
        cosine = 0.5 * (1.0 + np.cos(np.pi * progress))
        self.optimizer.lr = self.min_lr + (self._initial_lr - self.min_lr) * cosine


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad *= scale
    return total
