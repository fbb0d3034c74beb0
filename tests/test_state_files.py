"""State files are written all or nothing.

Every file a restarted process reads back goes through
:func:`repro.training.checkpoint.atomic_write`: model checkpoints,
registry pointers and activation history, fine-tune progress records,
experience-buffer and frozen-holdout snapshots, and the online loop's
``loop_state.json``.  A write that fails part-way must leave the
previous file readable and no ``*.tmp`` file behind.
"""

import errno
import json
import os

import numpy as np
import pytest

from repro.deploy import DeploymentController, ModelRegistry
from repro.load.scenarios import small_model
from repro.online import (AntiRegressionGate, ExperienceBuffer, OnlineLoop,
                          OnlineLoopConfig, OnlineTrainer,
                          OnlineTrainerConfig, RetrainPolicy,
                          load_loop_state)
from repro.online.loop import HOLDOUT_FILE
from repro.training import save_checkpoint


class _DiskFull:
    """A file handle that takes a few bytes, then fails like a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[:3])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


@pytest.fixture
def fill_disk(monkeypatch):
    """``fill_disk(skip)``: every file opened for writing after the
    first ``skip`` fails on its first write."""
    real_fdopen = os.fdopen

    def arm(skip=0):
        opened = []

        def fdopen(*args, **kwargs):
            handle = real_fdopen(*args, **kwargs)
            opened.append(handle)
            return handle if len(opened) <= skip else _DiskFull(handle)

        monkeypatch.setattr(os, "fdopen", fdopen)

    return arm


@pytest.fixture
def loop(tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    parent = registry.register(small_model(17, 16), created_at="t0")
    registry.activate(parent.version)
    return OnlineLoop(
        registry,
        DeploymentController(registry, initial=parent.version, seed=5),
        ExperienceBuffer(capacity=8, reservoir=4, max_pending=16, seed=3),
        OnlineTrainer(registry, tmp_path / "jobs",
                      OnlineTrainerConfig(epochs=1)),
        RetrainPolicy(),
        AntiRegressionGate(),
        OnlineLoopConfig(train_window=8, holdout_every=4))


def test_interrupted_loop_state_write_keeps_previous_state(loop,
                                                          monkeypatch):
    """``json.dump`` streams: a value it cannot encode fails the write
    after part of the file is out."""
    loop.persist()
    before = load_loop_state(loop.trainer.workdir)
    status = loop.status
    monkeypatch.setattr(loop, "status",
                        lambda: {**status(), "zz_unencodable": object()})
    with pytest.raises(TypeError):
        loop.persist()
    assert load_loop_state(loop.trainer.workdir) == before
    assert not list(loop.trainer.workdir.glob("*.tmp"))


def _checkpoint(loop, tmp_path):
    path = tmp_path / "model.npz"
    model = small_model(17, 16)

    def write():
        save_checkpoint(model, path)

    def read():
        with np.load(path) as archive:
            return {name: archive[name].tolist() for name in archive.files}

    return write, read, tmp_path


def _registry_pointer(loop, tmp_path):
    registry = loop.registry
    versions = iter([registry.active(),
                     registry.register(small_model(18, 16),
                                       created_at="t1").version])

    def write():
        registry.activate(next(versions))

    return write, (registry.root / "ACTIVE").read_text, registry.root


def _progress_record(loop, tmp_path):
    path = loop.trainer.workdir / "job.json"
    epochs = iter(range(2))

    def write():
        loop.trainer._write_progress(path, {"epochs_done": next(epochs)})

    return write, lambda: json.loads(path.read_text()), path.parent


def _buffer_snapshot(loop, tmp_path):
    path = tmp_path / "buffer.pkl"

    def read():
        restored = ExperienceBuffer(capacity=1, reservoir=1)
        restored.restore(path)
        return restored.stats()

    return lambda: loop.buffer.snapshot(path), read, tmp_path


def _loop_state(loop, tmp_path):
    return (loop.persist, lambda: load_loop_state(loop.trainer.workdir),
            loop.trainer.workdir)


def _holdout_snapshot(loop, tmp_path):
    path = loop.trainer.workdir / HOLDOUT_FILE
    return loop.snapshot, path.read_bytes, path.parent


# Each site: (write, read, directory) plus the number of files a write
# opens before the one under test (the loop snapshot writes the buffer
# first, then the holdout).
SITES = {
    "checkpoint": (_checkpoint, 0),
    "registry_pointer": (_registry_pointer, 0),
    "progress_record": (_progress_record, 0),
    "buffer_snapshot": (_buffer_snapshot, 0),
    "loop_state": (_loop_state, 0),
    "holdout_snapshot": (_holdout_snapshot, 1),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_failed_write_keeps_previous_file_and_no_temp(site, loop, tmp_path,
                                                      fill_disk):
    make, skip = SITES[site]
    write, read, directory = make(loop, tmp_path)
    write()
    before = read()
    fill_disk(skip)
    with pytest.raises(OSError, match="No space left"):
        write()
    assert read() == before
    assert not list(directory.glob("*.tmp"))


@pytest.mark.parametrize("skip", [0, 1],
                         ids=["active_write", "history_write"])
def test_rollback_after_failed_activate_returns_to_previous_version(
        skip, tmp_path, monkeypatch, fill_disk):
    """``activate`` writes ``ACTIVE``, then ``ACTIVE_HISTORY``; whichever
    write fails, ``rollback_active`` returns to the version before the
    active one, never re-activating the active one."""
    registry = ModelRegistry(tmp_path / "reg")
    for seed in (17, 18, 19):
        registry.register(small_model(seed, 16), created_at="t")
    registry.activate("v001")
    registry.activate("v002")
    fill_disk(skip)
    with pytest.raises(OSError, match="No space left"):
        registry.activate("v003")
    monkeypatch.undo()   # the disk has room again
    active, previous = ("v002", "v001") if skip == 0 else ("v003", "v002")
    assert registry.active() == active
    assert registry.activation_history()[-1] == "v002"
    assert registry.rollback_active() == previous
    assert registry.active() == previous
