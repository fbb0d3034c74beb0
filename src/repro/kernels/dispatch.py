"""Kernel backend selection.

Two interchangeable backends implement the no-grad inference kernels
(GAT-e encoder stack, LSTM/GRU unrolls, pointer decode, sort-RNN):

* ``reference`` — the verified paths: the GAT-e stack delegates to the
  Tensor ``forward_batch`` code and the decoders run the raw-numpy
  replicas proven bit-identical to the Tensor path.
* ``fused`` — single-pass kernels writing into per-call scratch
  arrays; the differential conformance suite
  (``tests/test_kernel_conformance.py``) certifies them against the
  reference backend.

Selection order: an explicit :func:`use` call wins, then the
``REPRO_KERNELS`` environment variable, then the default (``fused``).
If the fused backend fails to import and nothing was requested
explicitly, dispatch falls back to ``reference`` — *loudly*, via a
``RuntimeWarning``, with the reason retrievable from
:func:`fallback_reason`.  A backend that was explicitly requested
(env var or :func:`use`) never falls back: the error propagates.
:func:`require` lets CI assert that a backend really is importable.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Dict, Optional

BACKENDS = ("reference", "fused")
DEFAULT_BACKEND = "fused"
ENV_VAR = "REPRO_KERNELS"


class KernelUnavailableError(RuntimeError):
    """A kernel backend failed to import (or was recorded as broken)."""


_modules: Dict[str, object] = {}
_import_errors: Dict[str, str] = {}
_active: Optional[str] = None
_fallback_reason: Optional[str] = None


def _load(name: str):
    """Import (once) and return the backend module; loud on failure."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from {BACKENDS}")
    if name in _modules:
        return _modules[name]
    if name in _import_errors:
        raise KernelUnavailableError(
            f"kernel backend {name!r} unavailable: {_import_errors[name]}")
    try:
        if name == "reference":
            from . import reference as module
        else:
            from . import fused as module
    except Exception as exc:  # record, so later calls fail the same way
        _import_errors[name] = repr(exc)
        raise KernelUnavailableError(
            f"kernel backend {name!r} failed to import: {exc!r}") from exc
    _modules[name] = module
    return module


def _resolve_initial() -> str:
    """First-use backend choice: env var, else default with explicit fallback."""
    global _fallback_reason
    requested = os.environ.get(ENV_VAR, "").strip().lower()
    if requested:
        _load(requested)  # explicit request: any failure propagates
        return requested
    try:
        _load(DEFAULT_BACKEND)
        return DEFAULT_BACKEND
    except KernelUnavailableError as exc:
        _fallback_reason = str(exc)
        warnings.warn(
            f"falling back to the 'reference' kernel backend: {exc}",
            RuntimeWarning, stacklevel=3)
        _load("reference")
        return "reference"


def active_name() -> str:
    """Name of the currently selected backend (resolving it on first use)."""
    global _active
    if _active is None:
        _active = _resolve_initial()
    return _active


def active():
    """The currently selected backend module."""
    return _load(active_name())


def use(name: str) -> str:
    """Select a backend by name; returns the previous name.

    Raises ``ValueError`` for unknown names and
    :class:`KernelUnavailableError` if the backend cannot import —
    the previous selection stays in effect in both cases.
    """
    global _active
    previous = active_name()
    _load(name)
    _active = name
    return previous


@contextmanager
def backend_scope(name: str):
    """Context manager that selects ``name`` and restores the previous backend."""
    previous = use(name)
    try:
        yield
    finally:
        use(previous)


def require(name: str) -> None:
    """Assert that backend ``name`` is importable; raise otherwise.

    CI calls ``require("fused")`` so an import regression fails the job
    instead of silently degrading every benchmark to the reference path.
    """
    _load(name)


def available_backends() -> Dict[str, Optional[str]]:
    """Map backend name -> ``None`` if importable, else the error string."""
    status: Dict[str, Optional[str]] = {}
    for name in BACKENDS:
        try:
            _load(name)
            status[name] = None
        except KernelUnavailableError as exc:
            status[name] = str(exc)
    return status


def fallback_reason() -> Optional[str]:
    """Why dispatch fell back to ``reference`` (``None`` if it did not)."""
    return _fallback_reason


def _reset(clear_import_errors: bool = True) -> None:
    """Test hook: forget the selection (and optionally recorded errors)."""
    global _active, _fallback_reason
    _active = None
    _fallback_reason = None
    if clear_import_errors:
        _import_errors.clear()
