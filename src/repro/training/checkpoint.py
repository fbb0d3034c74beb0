"""Checkpointing: persist model weights (and optimiser state) as ``.npz``.

Two durability guarantees matter for the deployment layer built on top
(:mod:`repro.deploy`):

* :func:`save_checkpoint` is **atomic** — the archive is written to a
  temporary file in the destination directory and renamed into place,
  so a crash mid-write can never leave a truncated file at ``path``.
  The same :func:`atomic_write` helper writes every other state file
  (registry manifests and pointers, online progress records, buffer
  snapshots, loop state).
* :func:`load_checkpoint` **validates before it applies** — parameter
  names and shapes are checked against the model first, so a mismatch
  raises :class:`CheckpointError` with the model left untouched rather
  than half-applied.

Passing ``optimizer=`` to both functions additionally round-trips the
optimiser's internal state (Adam moments, momentum velocities, step
counter, learning rate) inside the same archive under a reserved
``__optim__/`` key prefix, so a resumed run continues *identically* to
an uninterrupted one.  Checkpoints written without optimiser state load
fine without it, and checkpoints written *with* it stay loadable by
callers that only care about the weights.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Union

import numpy as np

from ..autodiff.optim import Optimizer
from ..nn import Module

#: Reserved key prefix separating optimiser entries from parameter names
#: (model parameter paths are dotted attribute names and never contain
#: a slash, so the prefix cannot collide).
_OPTIM_PREFIX = "__optim__/"
_OPTIM_META = _OPTIM_PREFIX + "meta"


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or disagrees with the model."""


def _normalized(path: Union[str, Path]) -> Path:
    """Mirror ``np.savez``'s habit of appending ``.npz`` to bare names."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _optimizer_entries(optimizer: Optimizer) -> Dict[str, np.ndarray]:
    """Flatten ``optimizer.state_dict()`` into npz-storable arrays."""
    state = optimizer.state_dict()
    entries: Dict[str, np.ndarray] = {}
    meta = {
        "kind": state["kind"],
        "scalars": state["scalars"],
        "slots": {name: len(buffers)
                  for name, buffers in state["slots"].items()},
    }
    entries[_OPTIM_META] = np.array(json.dumps(meta))
    for name, buffers in state["slots"].items():
        for index, buffer in enumerate(buffers):
            entries[f"{_OPTIM_PREFIX}slot/{name}/{index}"] = buffer
    return entries


@contextlib.contextmanager
def atomic_write(path: Union[str, Path], mode: str) -> Iterator[IO]:
    """Write ``path`` all or nothing, opened in ``mode`` (``"w"`` or ``"wb"``).

    Yields a handle on a temporary file in ``path``'s directory and
    renames it over ``path`` with :func:`os.replace` once the ``with``
    block has finished.  On any exception the temporary file is removed
    and ``path`` keeps its previous content, so a crash mid-write never
    leaves a truncated file behind.  Text modes write UTF-8.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, mode,
                       encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_checkpoint(model: Module, path: Union[str, Path],
                    optimizer: Optional[Optimizer] = None) -> Path:
    """Atomically write the model's parameters to ``path`` (``.npz``).

    The archive lands under a temporary name in the same directory and
    is renamed over ``path`` only once fully written.  With
    ``optimizer=``, its :meth:`~repro.autodiff.optim.Optimizer.state_dict`
    is stored in the same archive.  Returns the final path (with the
    ``.npz`` suffix ``np.savez`` would have added).
    """
    path = _normalized(path)
    state = model.state_dict()
    if optimizer is not None:
        state.update(_optimizer_entries(optimizer))
    with atomic_write(path, "wb") as handle:
        # Parameter names contain dots; np.savez handles arbitrary keys.
        np.savez(handle, **state)
    return path


def _read_archive(path: Path) -> Dict[str, np.ndarray]:
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    try:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is corrupt or truncated: {exc}") from exc


def _restore_optimizer(optimizer: Optimizer,
                       entries: Dict[str, np.ndarray], path: Path) -> None:
    if _OPTIM_META not in entries:
        raise CheckpointError(
            f"checkpoint {path} has no optimizer state; it was saved "
            "without optimizer= and cannot resume one")
    try:
        meta = json.loads(str(entries[_OPTIM_META]))
    except (json.JSONDecodeError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} has corrupt optimizer metadata: {exc}"
        ) from exc
    slots = {}
    for name, count in meta["slots"].items():
        buffers = []
        for index in range(count):
            key = f"{_OPTIM_PREFIX}slot/{name}/{index}"
            if key not in entries:
                raise CheckpointError(
                    f"checkpoint {path} is missing optimizer buffer {key}")
            buffers.append(entries[key])
        slots[name] = buffers
    try:
        optimizer.load_state_dict({
            "kind": meta["kind"],
            "scalars": meta["scalars"],
            "slots": slots,
        })
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} optimizer state does not match: {exc}"
        ) from exc


def load_checkpoint(model: Module, path: Union[str, Path],
                    optimizer: Optional[Optimizer] = None) -> None:
    """Load parameters saved by :func:`save_checkpoint` into ``model``.

    Raises :class:`CheckpointError` if the file is unreadable, if the
    parameter names disagree with the model, or if any shape differs —
    in every case **before** touching any model parameter.  With
    ``optimizer=``, the archive's optimiser state is restored into it
    as well (raising :class:`CheckpointError` if the archive was saved
    without one or it does not fit the optimiser's parameters).
    """
    path = _normalized(path)
    archive = _read_archive(path)
    state = {name: value for name, value in archive.items()
             if not name.startswith(_OPTIM_PREFIX)}
    own = dict(model.named_parameters())
    missing = sorted(set(own) - set(state))
    unexpected = sorted(set(state) - set(own))
    if missing or unexpected:
        raise CheckpointError(
            f"checkpoint {path} does not match the model: "
            f"missing={missing}, unexpected={unexpected}")
    bad_shapes = [
        f"{name}: checkpoint {np.asarray(state[name]).shape} "
        f"vs model {parameter.data.shape}"
        for name, parameter in own.items()
        if np.asarray(state[name]).shape != parameter.data.shape
    ]
    if bad_shapes:
        raise CheckpointError(
            f"checkpoint {path} has mismatched shapes: "
            + "; ".join(bad_shapes))
    if optimizer is not None:
        # Validate the optimizer state before applying model weights so
        # a mismatch leaves both objects untouched.
        _restore_optimizer(optimizer, archive, path)
    model.load_state_dict(state)
