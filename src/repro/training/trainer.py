"""Training loop for M²G4RTP and its ablation variants.

Implements the paper's multi-task training (Section IV-D): teacher
forcing through the padded :meth:`M2G4RTP.forward`, the four losses
combined by the model's weighting module, Adam with gradient clipping
and a step LR schedule, and early stopping on validation loss.

Each optimizer step packs its mini-batch into a few padded groups
(:func:`pack_groups`): rows sorted by location count, each group's
padded location cells held to :data:`GROUP_CELLS`, so no group's tape
outgrows that of one paper-scope instance.  Each group runs one
forward and one backward, scaled by its share of the batch, and the
step clips and updates once; the gradient is the batch mean, as if
every instance had run on its own.

The "two-step" ablation uses two optimisers over disjoint parameter
groups: the route stage (encoder + route decoders) and the time stage
(SortLSTMs).  Time-decoder inputs and the AOI time guidance of the
location decoders are detached inside the model, so one backward of
both losses gives each group only its own loss's gradient.

:meth:`Trainer.fit` and the online fine-tune
(:class:`~repro.online.trainer.OnlineTrainer`) both take every joint
step through :meth:`Trainer._joint_update_batch`.  Validation runs the
same groups under ``no_grad``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..autodiff import Adam, StepLR, Tensor, clip_grad_norm, no_grad
from ..core.batching import GraphBatch
from ..core.model import M2G4RTP, RTPTargets
from ..data.dataset import RTPDataset
from ..graphs import GraphBuilder, MultiLevelGraph
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import span

_ROUTE_TASKS = ("aoi_route", "location_route")
_TIME_TASKS = ("aoi_time", "location_time")

#: Most padded location cells (rows x largest n^2) one packed group may
#: hold: those of one 20-location instance, the paper-scope maximum.
GROUP_CELLS = 400

#: The step LR schedule: every ``LR_STEP_EPOCHS`` epochs the learning
#: rate is multiplied by ``LR_GAMMA``.
LR_STEP_EPOCHS = 6
LR_GAMMA = 0.5


@dataclasses.dataclass
class TrainerConfig:
    """Optimisation hyper-parameters."""

    epochs: int = 16
    learning_rate: float = 3e-3
    grad_clip: float = 5.0
    patience: int = 5
    shuffle_seed: int = 7
    scheduled_sampling: float = 0.0
    batch_size: int = 1
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch records produced by :meth:`Trainer.fit`."""

    train_loss: List[float] = dataclasses.field(default_factory=list)
    val_loss: List[float] = dataclasses.field(default_factory=list)
    sigmas: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    seconds: List[float] = dataclasses.field(default_factory=list)
    best_epoch: int = -1

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)


def _sum_losses(losses: Dict[str, Tensor], tasks) -> Tensor:
    selected = [losses[task] for task in tasks if task in losses]
    total = selected[0]
    for term in selected[1:]:
        total = total + term
    return total


def pack_groups(graphs: Sequence[MultiLevelGraph]) -> List[List[int]]:
    """Partition ``graphs`` into padded groups for one optimizer step.

    Indices are stable-sorted by location count and packed greedily: a
    group takes the next row while its padded location cells (rows x
    the largest n^2) stay within :data:`GROUP_CELLS`.  A row whose own
    cells exceed that forms a group alone.
    """
    order = sorted(range(len(graphs)),
                   key=lambda index: graphs[index].num_locations)
    groups: List[List[int]] = []
    for index in order:
        n = graphs[index].num_locations
        if groups and (len(groups[-1]) + 1) * n * n <= GROUP_CELLS:
            groups[-1].append(index)
        else:
            groups.append([index])
    return groups


class Trainer:
    """Fits an :class:`M2G4RTP` model on an :class:`RTPDataset`.

    Telemetry (both optional, off by default):

    * ``event_log`` — an :class:`~repro.obs.events.EventLog`; one
      ``epoch`` record (loss, val loss, sigmas, grad norm, LR, epoch
      seconds) is appended per epoch, plus a final ``fit`` record, so
      a run is inspectable mid-flight and plottable afterwards.
    * ``registry`` — a :class:`~repro.obs.metrics.MetricsRegistry`;
      ``rtp_train_*`` gauges/counters are updated per epoch, sharing
      the exposition with the service monitor.
    """

    def __init__(self, model: M2G4RTP,
                 config: Optional[TrainerConfig] = None,
                 builder: Optional[GraphBuilder] = None,
                 event_log: Optional[EventLog] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.model = model
        self.config = config or TrainerConfig()
        self.builder = builder or GraphBuilder(
            num_aoi_ids=model.config.num_aoi_ids)
        self._two_step = model.config.detach_time_inputs
        self.event_log = event_log
        self.registry = registry
        self._epoch_grad_norms: List[float] = []

    # ------------------------------------------------------------------
    def fit(self, train: RTPDataset,
            validation: Optional[RTPDataset] = None) -> TrainingHistory:
        cfg = self.config
        model = self.model
        fit_start = time.perf_counter()
        rng = np.random.default_rng(cfg.shuffle_seed)
        with span("train.build_graphs", instances=len(train)):
            graphs = [self.builder.build(instance) for instance in train]
            targets = [RTPTargets.from_instance(instance) for instance in train]
            val_graphs = val_targets = None
            if validation is not None and len(validation):
                val_graphs = [self.builder.build(i) for i in validation]
                val_targets = [RTPTargets.from_instance(i) for i in validation]

        if self._two_step:
            route_optimizer = Adam(model.route_parameters(), lr=cfg.learning_rate)
            time_optimizer = Adam(model.time_parameters(), lr=cfg.learning_rate)
            schedules = [StepLR(route_optimizer, LR_STEP_EPOCHS, LR_GAMMA),
                         StepLR(time_optimizer, LR_STEP_EPOCHS, LR_GAMMA)]
        else:
            optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
            schedules = [StepLR(optimizer, LR_STEP_EPOCHS, LR_GAMMA)]

        history = TrainingHistory()
        best_val = np.inf
        best_state = None
        stale = 0
        sampling_rng = np.random.default_rng(cfg.shuffle_seed + 1)

        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            model.train()
            order = rng.permutation(len(graphs))
            epoch_loss = 0.0
            self._epoch_grad_norms = []
            epoch_lr = (route_optimizer if self._two_step else optimizer).lr
            # Scheduled sampling ramps linearly from 0 to its target
            # probability across the epochs (curriculum).
            if cfg.scheduled_sampling > 0.0 and cfg.epochs > 1:
                sample_prob = cfg.scheduled_sampling * epoch / (cfg.epochs - 1)
            else:
                sample_prob = 0.0
            with span("train.epoch", epoch=epoch):
                if self._two_step:
                    # The two-step ablation optimises per instance (the
                    # paper's separate-optimizer setup); batch_size ignored.
                    for index in order:
                        epoch_loss += self._two_step_update(
                            graphs[index], targets[index], route_optimizer,
                            time_optimizer, sample_prob, sampling_rng)
                else:
                    for start_index in range(0, len(order), cfg.batch_size):
                        chunk = order[start_index:start_index + cfg.batch_size]
                        epoch_loss += self._joint_update_batch(
                            [graphs[i] for i in chunk],
                            [targets[i] for i in chunk],
                            optimizer, sample_prob, sampling_rng)
            for schedule in schedules:
                schedule.step()
            epoch_loss /= max(len(graphs), 1)
            history.train_loss.append(epoch_loss)
            sigmas = (model.loss_weighting.sigmas()
                      if hasattr(model.loss_weighting, "sigmas") else None)
            if sigmas is not None:
                history.sigmas.append(sigmas)
            seconds = time.perf_counter() - start
            history.seconds.append(seconds)

            val_loss = None
            if val_graphs is not None:
                with span("train.validate", epoch=epoch,
                          instances=len(val_graphs)):
                    val_loss = self.evaluate_loss(val_graphs, val_targets)
                history.val_loss.append(val_loss)
            self._emit_epoch_telemetry(epoch, epoch_loss, val_loss, sigmas,
                                       epoch_lr, seconds)
            if val_loss is not None:
                if cfg.verbose:
                    print(f"epoch {epoch}: train {epoch_loss:.4f} val {val_loss:.4f}")
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    best_state = model.state_dict()
                    history.best_epoch = epoch
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        break
            elif cfg.verbose:
                print(f"epoch {epoch}: train {epoch_loss:.4f}")

        if best_state is not None:
            model.load_state_dict(best_state)
        model.eval()
        if self.event_log is not None:
            self.event_log.log(
                "fit",
                epochs=history.num_epochs,
                best_epoch=history.best_epoch,
                best_val=(None if best_val == np.inf else float(best_val)),
                total_seconds=round(time.perf_counter() - fit_start, 6),
            )
        return history

    # ------------------------------------------------------------------
    def _emit_epoch_telemetry(self, epoch: int, train_loss: float,
                              val_loss: Optional[float],
                              sigmas: Optional[Dict[str, float]],
                              lr: float, seconds: float) -> None:
        """Write the epoch record to the event log and the registry."""
        grad_norm = (float(np.mean(self._epoch_grad_norms))
                     if self._epoch_grad_norms else None)
        if self.event_log is not None:
            self.event_log.log(
                "epoch",
                epoch=epoch,
                train_loss=round(float(train_loss), 6),
                val_loss=(round(float(val_loss), 6)
                          if val_loss is not None else None),
                sigmas=sigmas,
                grad_norm=(round(grad_norm, 6)
                           if grad_norm is not None else None),
                lr=lr,
                seconds=round(seconds, 6),
            )
        if self.registry is not None:
            registry = self.registry
            registry.counter("rtp_train_epochs_total",
                             "Completed training epochs").inc()
            registry.gauge("rtp_train_loss",
                           "Mean training loss, latest epoch").set(train_loss)
            if val_loss is not None:
                registry.gauge("rtp_train_val_loss",
                               "Validation loss, latest epoch").set(val_loss)
            if grad_norm is not None:
                registry.gauge(
                    "rtp_train_grad_norm",
                    "Mean pre-clip gradient norm, latest epoch").set(grad_norm)
            registry.gauge("rtp_train_lr", "Learning rate in effect").set(lr)
            registry.summary("rtp_train_epoch_seconds",
                             "Wall time per epoch").observe(seconds)
            if sigmas:
                sigma_gauge = registry.gauge(
                    "rtp_train_sigma", "Per-task uncertainty weights",
                    labels=("task",))
                for task, value in sigmas.items():
                    sigma_gauge.labels(task=task).set(value)

    # ------------------------------------------------------------------
    def _joint_update_batch(self, graphs, targets, optimizer: Adam,
                            sample_prob: float = 0.0, rng=None) -> float:
        """One Adam step on the mean gradient of a mini-batch.

        The batch runs as the padded groups of :func:`pack_groups`.  A
        group's loss is the mean over its rows, so back-propagating it
        scaled by ``len(group) / len(graphs)`` accumulates the
        batch-mean gradient; clipping and the step then run once.  Returns the sum
        of the per-instance losses.  With scheduled sampling, each
        group draws one coin per row per decode step.
        """
        optimizer.zero_grad()
        total = 0.0
        for group in pack_groups(graphs):
            output = self.model(
                GraphBatch.from_graphs([graphs[i] for i in group]),
                [targets[i] for i in group],
                sample_prob=sample_prob, rng=rng)
            (output.total_loss * (len(group) / len(graphs))).backward()
            total += float(output.total_loss.data) * len(group)
        self._epoch_grad_norms.append(
            clip_grad_norm(optimizer.parameters, self.config.grad_clip))
        optimizer.step()
        return total

    def _two_step_update(self, graph: MultiLevelGraph, target: RTPTargets,
                         route_optimizer: Adam, time_optimizer: Adam,
                         sample_prob: float = 0.0, rng=None) -> float:
        """One step of each optimizer on its own loss.

        The model detaches every path between the route and time stages
        (the time decoders' inputs and the AOI time guidance), so the
        two losses reach disjoint parameter groups and one backward of
        their sum gives each group exactly its own loss's gradient.
        """
        output = self.model(GraphBatch.from_graphs([graph]), [target],
                            sample_prob=sample_prob, rng=rng)
        route_loss = _sum_losses(output.losses, _ROUTE_TASKS)
        time_loss = _sum_losses(output.losses, _TIME_TASKS)
        route_optimizer.zero_grad()
        time_optimizer.zero_grad()
        (route_loss + time_loss).backward()
        for optimizer in (route_optimizer, time_optimizer):
            self._epoch_grad_norms.append(clip_grad_norm(
                optimizer.parameters, self.config.grad_clip))
            optimizer.step()
        return float(route_loss.data) + float(time_loss.data)

    # ------------------------------------------------------------------
    def evaluate_loss(self, graphs, targets) -> float:
        """Mean teacher-forced loss over a validation set.

        Runs the step's padded groups (:func:`pack_groups`) under
        ``no_grad``.  A group's losses are means over its rows, so its
        summed task losses weighted by its row count, summed over the
        groups and divided by the set size, give the per-instance mean.
        """
        model = self.model
        was_training = model.training
        model.eval()
        try:
            total = 0.0
            with no_grad():
                for group in pack_groups(graphs):
                    output = model(
                        GraphBatch.from_graphs([graphs[i] for i in group]),
                        [targets[i] for i in group])
                    # Compare raw task losses (not sigma-weighted) so
                    # early stopping is insensitive to the weighting
                    # parameters drifting.
                    total += len(group) * sum(
                        float(loss.data) for loss in output.losses.values())
            return total / len(graphs)
        finally:
            if was_training:
                model.train()
