"""Incremental fine-tuning jobs over the experience window.

:class:`OnlineTrainer` owns the epoch loop of a fine-tune so it can
checkpoint *inside* a job: after every epoch the model **and** the Adam
state round-trip through
:func:`~repro.training.checkpoint.save_checkpoint` /
:func:`~repro.training.checkpoint.load_checkpoint` (the ``__optim__/``
archive keys from PR 4), next to an atomically-written progress record.
A job killed after epoch *k* and re-run with the same ``job_id``
resumes at epoch *k + 1* and finishes **bitwise identical** to an
uninterrupted run: the shuffle RNG replays the permutations of the
completed epochs before continuing, and the optimizer moments come back
exactly as saved.

Each mini-batch update is
:meth:`~repro.training.trainer.Trainer._joint_update_batch`, the step
:meth:`~repro.training.trainer.Trainer.fit` takes, so a fine-tune step
does the same math as an offline training step.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..autodiff import Adam
from ..core.model import M2G4RTP, RTPTargets
from ..data.entities import RTPInstance
from ..graphs import GraphBuilder
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import span
from ..training.checkpoint import (atomic_write, load_checkpoint,
                                   save_checkpoint)
from ..training.trainer import Trainer, TrainerConfig


@dataclasses.dataclass
class OnlineTrainerConfig:
    """Hyper-parameters of one fine-tune job.

    Deliberately hotter than offline training (`learning_rate`) and
    short (`epochs`): the job chases a recent distribution shift over a
    small window, under traffic, and the anti-regression gate — not the
    loss curve — decides whether the result ships.  The defaults are
    the empirically stable point: ``learning_rate`` above ~0.05 makes
    short fine-tunes on shifted windows diverge to NaN.
    """

    epochs: int = 4
    learning_rate: float = 0.02
    batch_size: int = 4
    grad_clip: float = 5.0
    shuffle_seed: int = 11
    #: Fraction of the live window's size to top up with pre-shift
    #: reservoir experiences (experience replay): ``fine_tune`` draws a
    #: seeded sample of ``round(replay_fraction * len(instances))``
    #: items from the ``replay`` pool and interleaves them into every
    #: epoch's permutation, so adaptation rehearses the old regime
    #: instead of overwriting it.  0 disables replay.
    replay_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.replay_fraction <= 1.0:
            raise ValueError("replay_fraction must be in [0, 1]")


@dataclasses.dataclass
class FineTuneResult:
    """What a finished (or paused) fine-tune job hands back."""

    model: M2G4RTP
    job_id: str
    parent: str
    epochs_done: int
    completed: bool
    losses: List[float]
    checkpoint_path: Path
    replay_samples: int = 0     # reservoir experiences interleaved


class OnlineTrainer:
    """Runs resumable fine-tune jobs from registry parents.

    Parameters
    ----------
    registry:
        The :class:`~repro.deploy.ModelRegistry` parents are loaded
        from (integrity-checked, same as serving).
    workdir:
        Where per-job checkpoints and progress records live; a job is
        resumable for as long as its files survive here.
    """

    def __init__(self, registry, workdir: Union[str, Path],
                 config: Optional[OnlineTrainerConfig] = None,
                 builder: Optional[GraphBuilder] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 event_log: Optional[EventLog] = None):
        self.registry = registry
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = config or OnlineTrainerConfig()
        self.builder = builder
        self.metrics = metrics
        self.event_log = event_log
        if metrics is not None:
            self._m_epochs = metrics.counter(
                "rtp_online_retrain_epochs_total",
                "Fine-tune epochs completed by the online trainer")
            self._m_loss = metrics.gauge(
                "rtp_online_fine_tune_loss",
                "Mean training loss of the latest fine-tune epoch")

    # ------------------------------------------------------------------
    def _paths(self, job_id: str) -> Dict[str, Path]:
        return {
            "checkpoint": self.workdir / f"{job_id}.npz",
            "progress": self.workdir / f"{job_id}.json",
        }

    def _write_progress(self, path: Path, record: Dict) -> None:
        with atomic_write(path, "w") as handle:
            json.dump(record, handle, sort_keys=True)

    # ------------------------------------------------------------------
    def fine_tune(self, parent: str, instances: Sequence[RTPInstance],
                  job_id: str,
                  stop_after_epoch: Optional[int] = None,
                  replay: Optional[Sequence[RTPInstance]] = None,
                  ) -> FineTuneResult:
        """Fine-tune a copy of registry version ``parent`` on ``instances``.

        If ``workdir`` holds a matching unfinished job (same ``job_id``
        and parent), training **resumes** from its checkpoint instead of
        starting over.  ``stop_after_epoch`` pauses the job after that
        many total epochs (``completed=False``) — the kill/restart
        tests use it to cut a job mid-flight deterministically.

        ``replay`` is a pool of pre-shift experiences (typically the
        :class:`ExperienceBuffer` reservoir); ``replay_fraction`` of the
        live window's size is sampled from it **once, at job start, from
        a fixed seed** and appended to the training set, so every
        epoch's permutation interleaves old-regime rehearsal with the
        shifted window — and a killed/restarted job draws the identical
        replay sample and stays bitwise resumable.
        """
        if not instances:
            raise ValueError("fine_tune needs at least one instance")
        cfg = self.config
        paths = self._paths(job_id)
        model, _ = self.registry.load(parent)
        replay_pool = list(replay or [])
        replay_count = 0
        if replay_pool and cfg.replay_fraction > 0.0:
            replay_count = min(
                len(replay_pool),
                int(round(cfg.replay_fraction * len(instances))))
        if replay_count:
            replay_rng = np.random.default_rng(cfg.shuffle_seed + 2)
            picks = replay_rng.choice(
                len(replay_pool), size=replay_count, replace=False)
            instances = list(instances) + [replay_pool[int(i)]
                                           for i in picks]
        if model.config.detach_time_inputs:
            raise ValueError(
                "fine-tuning takes one joint Adam step per batch; the "
                "two-step ablation (detach_time_inputs=True) trains "
                "offline only")
        trainer = Trainer(
            model,
            TrainerConfig(epochs=cfg.epochs, learning_rate=cfg.learning_rate,
                          grad_clip=cfg.grad_clip, batch_size=cfg.batch_size,
                          shuffle_seed=cfg.shuffle_seed),
            self.builder, registry=self.metrics)

        start_epoch = 0
        losses: List[float] = []
        if paths["progress"].exists():
            with open(paths["progress"], "r", encoding="utf-8") as handle:
                progress = json.load(handle)
            if progress.get("job") == job_id \
                    and progress.get("parent") == parent \
                    and not progress.get("completed", False):
                start_epoch = int(progress["epochs_done"])
                losses = [float(v) for v in progress["losses"]]

        with span("online.fine_tune", job=job_id, parent=parent,
                  instances=len(instances), replay=replay_count,
                  resume_epoch=start_epoch):
            graphs = [trainer.builder.build(i) for i in instances]
            targets = [RTPTargets.from_instance(i) for i in instances]
            optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
            if start_epoch > 0:
                load_checkpoint(model, paths["checkpoint"],
                                optimizer=optimizer)
            shuffle_rng = np.random.default_rng(cfg.shuffle_seed)
            sampling_rng = np.random.default_rng(cfg.shuffle_seed + 1)
            epochs_done = start_epoch
            model.train()
            for epoch in range(cfg.epochs):
                # The permutation stream is drawn for *every* epoch so a
                # resumed job sees the same epoch orders an
                # uninterrupted one would.
                order = shuffle_rng.permutation(len(graphs))
                if epoch < start_epoch:
                    continue
                epoch_loss = 0.0
                with span("online.epoch", job=job_id, epoch=epoch):
                    for start_index in range(0, len(order), cfg.batch_size):
                        chunk = order[start_index:start_index
                                      + cfg.batch_size]
                        epoch_loss += trainer._joint_update_batch(
                            [graphs[i] for i in chunk],
                            [targets[i] for i in chunk],
                            optimizer, 0.0, sampling_rng)
                epoch_loss /= max(len(graphs), 1)
                losses.append(float(epoch_loss))
                epochs_done = epoch + 1
                save_checkpoint(model, paths["checkpoint"],
                                optimizer=optimizer)
                self._write_progress(paths["progress"], {
                    "job": job_id, "parent": parent,
                    "epochs_done": epochs_done,
                    "completed": epochs_done >= cfg.epochs,
                    "losses": losses,
                    "replay_samples": replay_count,
                })
                if self.metrics is not None:
                    self._m_epochs.inc()
                    self._m_loss.set(float(epoch_loss))
                if self.event_log is not None:
                    self.event_log.log(
                        "online_epoch", job=job_id, epoch=epoch,
                        loss=round(float(epoch_loss), 6))
                if stop_after_epoch is not None \
                        and epochs_done >= stop_after_epoch:
                    break
            model.eval()
        return FineTuneResult(
            model=model, job_id=job_id, parent=parent,
            epochs_done=epochs_done,
            completed=epochs_done >= cfg.epochs,
            losses=losses, checkpoint_path=paths["checkpoint"],
            replay_samples=replay_count)
