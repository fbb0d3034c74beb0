"""M²G4RTP: the full multi-level multi-task model (paper Section IV).

Composition::

    MultiLevelEncoder ──> AOI RouteDecoder ──> AOI SortLSTM ─┐
                     │          (guidance: position enc + ETA)│
                     └─> Location RouteDecoder ──> Location SortLSTM

Training produces four losses (route cross-entropy and time MAE at each
level, Eqs. 37-40) combined by homoscedastic-uncertainty weighting
(Eq. 41).  The ablation variants of the paper's Section V-E are exposed
through :class:`M2G4RTPConfig` flags and :func:`make_variant`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, concat, padded_gather
from ..data.entities import RTPInstance
from ..graphs import MultiLevelGraph
from ..obs.tracing import span
from ..nn import Embedding, Module
from ..nn.positional import position_table
from .batching import GraphBatch
from .decoder import RouteDecoder, SortLSTM, route_positions
from .encoder import EncoderConfig, MultiLevelEncoder
from .uncertainty import FixedWeighting, UncertaintyWeighting


@dataclasses.dataclass
class M2G4RTPConfig:
    """Hyper-parameters and ablation switches for :class:`M2G4RTP`."""

    hidden_dim: int = 32
    num_encoder_layers: int = 2
    num_heads: int = 4
    continuous_embed_dim: int = 16
    discrete_embed_dim: int = 8
    position_dim: int = 8
    courier_embed_dim: int = 8
    num_couriers: int = 64
    num_aoi_ids: int = 256
    num_aoi_types: int = 8
    time_scale: float = 60.0
    restrict_to_neighbors: bool = False
    seed: int = 0
    # Ablation switches (paper Section V-E).
    use_aoi: bool = True          # False -> "w/o AOI" variant
    use_graph: bool = True        # False -> "w/o graph" (BiLSTM encoder)
    use_uncertainty: bool = True  # False -> fixed 100:1 weights
    detach_time_inputs: bool = False  # True -> "two-step" training

    @classmethod
    def from_dict(cls, stored: Mapping[str, object]) -> "M2G4RTPConfig":
        """Rebuild a stored config (``dataclasses.asdict`` output).

        Raises ``ValueError`` naming every field this config does not
        have; fields missing from ``stored`` take their defaults.
        """
        unknown = sorted(set(stored)
                         - {field.name for field in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown M2G4RTPConfig field(s): "
                             f"{', '.join(unknown)}")
        return cls(**stored)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            hidden_dim=self.hidden_dim,
            num_layers=self.num_encoder_layers,
            num_heads=self.num_heads,
            continuous_embed_dim=self.continuous_embed_dim,
            discrete_embed_dim=self.discrete_embed_dim,
            num_aoi_ids=self.num_aoi_ids,
            num_aoi_types=self.num_aoi_types,
        )


@dataclasses.dataclass
class RTPTargets:
    """Ground-truth labels for one instance, in model conventions."""

    route: np.ndarray
    arrival_times: np.ndarray
    aoi_route: np.ndarray
    aoi_arrival_times: np.ndarray

    @staticmethod
    def from_instance(instance: RTPInstance) -> "RTPTargets":
        return RTPTargets(
            route=instance.route,
            arrival_times=instance.arrival_times,
            aoi_route=instance.aoi_route,
            aoi_arrival_times=instance.aoi_arrival_times,
        )


@dataclasses.dataclass
class M2G4RTPOutput:
    """Predictions (and, when targets were given, the task losses).

    :meth:`M2G4RTP.forward` returns one output per batch: the arrays
    are padded ``(B, n)`` (locations) and ``(B, m)`` (AOIs), and each
    loss is a mean over the batch's rows.  :meth:`rows` splits it into
    one unpadded output per graph, as :meth:`M2G4RTP.predict` and
    :class:`~repro.core.batching.BatchedM2G4RTP` return.
    """

    route: np.ndarray
    arrival_times: np.ndarray
    aoi_route: Optional[np.ndarray]
    aoi_arrival_times: Optional[np.ndarray]
    losses: Dict[str, Tensor] = dataclasses.field(default_factory=dict)
    total_loss: Optional[Tensor] = None

    def rows(self, batch: GraphBatch) -> List["M2G4RTPOutput"]:
        """One output per graph of ``batch``, sliced to its real nodes."""
        outputs = []
        for b, (n_b, m_b) in enumerate(zip(batch.location.lengths,
                                           batch.aoi.lengths)):
            outputs.append(M2G4RTPOutput(
                route=self.route[b, :n_b].copy(),
                arrival_times=self.arrival_times[b, :n_b].copy(),
                aoi_route=(self.aoi_route[b, :m_b].copy()
                           if self.aoi_route is not None else None),
                aoi_arrival_times=(self.aoi_arrival_times[b, :m_b].copy()
                                   if self.aoi_arrival_times is not None
                                   else None),
            ))
        return outputs


def _padded(rows: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Stack per-row label arrays into a zero-padded ``(B, width)`` array."""
    out = np.zeros((len(rows), width), dtype=np.asarray(rows[0]).dtype)
    for b, row in enumerate(rows):
        out[b, :len(row)] = row
    return out


def _route_loss(label_log_probs: Tensor, lengths: np.ndarray) -> Tensor:
    """Step cross-entropy (Eqs. 37-38): mean over each row's real steps,
    then over rows.  Padded steps carry zero log-probability."""
    per_row = -label_log_probs.sum(axis=1) * Tensor(1.0 / lengths)
    return per_row.mean()


class M2G4RTP(Module):
    """Multi-level, multi-task graph model for route & time prediction."""

    def __init__(self, config: Optional[M2G4RTPConfig] = None):
        super().__init__()
        self.config = config or M2G4RTPConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        self.encoder = MultiLevelEncoder(
            cfg.encoder_config(), rng, use_graph=cfg.use_graph)
        self.courier_embedding = Embedding(cfg.num_couriers,
                                           cfg.courier_embed_dim, rng)
        courier_dim = cfg.courier_embed_dim + 3

        d = cfg.hidden_dim
        if cfg.use_aoi:
            self.aoi_route_decoder = RouteDecoder(
                d, d, courier_dim, rng,
                restrict_to_neighbors=cfg.restrict_to_neighbors)
            self.aoi_time_decoder = SortLSTM(d, d, cfg.position_dim, rng)
            location_input_dim = d + cfg.position_dim + 1
        else:
            self.aoi_route_decoder = None
            self.aoi_time_decoder = None
            location_input_dim = d

        self.location_route_decoder = RouteDecoder(
            location_input_dim, d, courier_dim, rng,
            restrict_to_neighbors=cfg.restrict_to_neighbors)
        self.location_time_decoder = SortLSTM(
            location_input_dim, d, cfg.position_dim, rng)

        self.loss_weighting = (
            UncertaintyWeighting() if cfg.use_uncertainty else FixedWeighting())

    # ------------------------------------------------------------------
    def _courier_batch(self, batch: GraphBatch) -> Tensor:
        """Courier vectors ``u`` (embedding + profile), ``(B, c)``."""
        embedding = self.courier_embedding(
            batch.courier_ids % self.config.num_couriers)
        return concat([embedding, Tensor(batch.courier_profiles)], axis=-1)

    def _guided_inputs(self, batch: GraphBatch, location_reps: Tensor,
                       aoi_routes: np.ndarray, aoi_times: Tensor) -> Tensor:
        """Location decoder inputs with AOI guidance (Eq. 34): each
        location's representation, the position encoding of its AOI in
        the AOI route, and that AOI's predicted arrival time.  The
        two-step variant detaches that time, so the route loss does
        not reach the AOI time decoder."""
        size, n = len(batch), batch.location.max_nodes
        aoi_positions = route_positions(aoi_routes, batch.aoi.lengths)
        location_positions = aoi_positions[np.arange(size)[:, None],
                                           batch.aoi_of_location]
        table = position_table(batch.aoi.max_nodes, self.config.position_dim)
        if self.config.detach_time_inputs:
            aoi_times = aoi_times.detach()
        per_location_eta = padded_gather(
            aoi_times, batch.aoi_of_location, valid=batch.location.mask)
        return concat([location_reps, Tensor(table[location_positions]),
                       per_location_eta.reshape(size, n, 1)], axis=-1)

    def _time_loss(self, predicted: Tensor, target_minutes: np.ndarray,
                   lengths: np.ndarray) -> Tensor:
        """MAE in scaled time units (Eqs. 39-40): mean over each row's
        real nodes, then over rows.  Padded entries are zero on both
        sides."""
        target = Tensor(target_minutes / self.config.time_scale)
        per_row = ((predicted - target).abs().sum(axis=1)
                   * Tensor(1.0 / lengths))
        return per_row.mean()

    # ------------------------------------------------------------------
    def forward(self, batch: GraphBatch,
                targets: Optional[Sequence[RTPTargets]] = None,
                sample_prob: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> M2G4RTPOutput:
        """Run the model over a padded batch; one graph is a batch of one.

        With ``targets`` (one per row) the decoders are teacher-forced,
        the SortLSTMs sort by the ground-truth routes and the four task
        losses are computed per row and averaged over rows; without
        targets the model decodes greedily on its own predictions.
        ``sample_prob`` enables scheduled sampling during training (see
        :meth:`RouteDecoder.forward_batch`).  Under ``no_grad`` every
        stage that has no teacher routes runs its fused kernel (the
        "w/o graph" BiLSTM runs :meth:`LSTMCell.unroll` with no tape).
        """
        cfg = self.config
        if targets is not None and len(targets) != len(batch):
            raise ValueError(f"{len(targets)} targets for a batch of "
                             f"{len(batch)} graphs")
        n, m = batch.location.max_nodes, batch.aoi.max_nodes
        with span("encoder", batch_size=len(batch)):
            location_reps, aoi_reps = self.encoder.forward_batch(batch)
        courier = self._courier_batch(batch)
        losses: Dict[str, Tensor] = {}

        aoi_routes: Optional[np.ndarray] = None
        aoi_times: Optional[Tensor] = None
        if cfg.use_aoi:
            assert self.aoi_route_decoder is not None
            aoi_labels = (None if targets is None else
                          _padded([t.aoi_route for t in targets], m))
            with span("route_decode", level="aoi"):
                aoi_routes, aoi_label_log_probs = \
                    self.aoi_route_decoder.forward_batch(
                        aoi_reps, courier, batch.aoi.lengths,
                        adjacency=batch.aoi.adjacency,
                        teacher_routes=aoi_labels,
                        sample_prob=sample_prob, rng=rng)
            aoi_sort = aoi_routes if targets is None else aoi_labels
            time_inputs = aoi_reps.detach() if cfg.detach_time_inputs else aoi_reps
            with span("time_decode", level="aoi"):
                aoi_times = self.aoi_time_decoder.forward_batch(
                    time_inputs, aoi_sort, batch.aoi.lengths)
            if targets is not None:
                losses["aoi_route"] = _route_loss(aoi_label_log_probs,
                                                  batch.aoi.lengths)
                losses["aoi_time"] = self._time_loss(
                    aoi_times,
                    _padded([t.aoi_arrival_times for t in targets], m),
                    batch.aoi.lengths)
            location_inputs = self._guided_inputs(batch, location_reps,
                                                  aoi_sort, aoi_times)
        else:
            location_inputs = location_reps

        labels = (None if targets is None else
                  _padded([t.route for t in targets], n))
        with span("route_decode", level="location"):
            routes, label_log_probs = self.location_route_decoder.forward_batch(
                location_inputs, courier, batch.location.lengths,
                adjacency=batch.location.adjacency, teacher_routes=labels,
                sample_prob=sample_prob, rng=rng)
        location_sort = routes if targets is None else labels
        time_inputs = (location_inputs.detach()
                       if cfg.detach_time_inputs else location_inputs)
        with span("time_decode", level="location"):
            times = self.location_time_decoder.forward_batch(
                time_inputs, location_sort, batch.location.lengths)

        if targets is not None:
            losses["location_route"] = _route_loss(label_log_probs,
                                                   batch.location.lengths)
            losses["location_time"] = self._time_loss(
                times, _padded([t.arrival_times for t in targets], n),
                batch.location.lengths)

        return M2G4RTPOutput(
            route=routes,
            arrival_times=times.data * cfg.time_scale,
            aoi_route=aoi_routes,
            aoi_arrival_times=(aoi_times.data * cfg.time_scale
                               if aoi_times is not None else None),
            losses=losses,
            total_loss=self.loss_weighting(losses) if losses else None,
        )

    # ------------------------------------------------------------------
    def predict(self, graph: MultiLevelGraph) -> M2G4RTPOutput:
        """The inference specification: ``graph`` as a batch of one.

        Runs in eval mode with gradients enabled, so every stage runs
        the code training runs and opens no kernel span: its Tensor
        code, and for the GAT-e stack the tape node whose forward is the
        fused kernel's (``tests/test_gat_tape.py`` pins it to the
        per-head Tensor code); every served path is checked against
        this answer.  The module tree is only walked to switch modes
        when the model is in train mode (and is restored after).
        """
        batch = GraphBatch.from_graphs([graph])
        was_training = self.training
        if was_training:
            self.eval()
        try:
            return self.forward(batch).rows(batch)[0]
        finally:
            if was_training:
                self.train()

    # ------------------------------------------------------------------
    # Parameter groups for the two-step ablation trainer
    # ------------------------------------------------------------------
    def time_parameters(self):
        """Parameters of the time decoders (the SortLSTMs + heads)."""
        modules = [self.location_time_decoder]
        if self.aoi_time_decoder is not None:
            modules.append(self.aoi_time_decoder)
        parameters = []
        for module in modules:
            parameters.extend(module.parameters())
        return parameters

    def route_parameters(self):
        """All parameters except the time decoders."""
        time_ids = {id(p) for p in self.time_parameters()}
        return [p for p in self.parameters() if id(p) not in time_ids]


def make_variant(name: str, base: Optional[M2G4RTPConfig] = None) -> M2G4RTPConfig:
    """Config for a paper ablation variant (Section V-E).

    ``name`` is one of ``full``, ``two-step``, ``w/o aoi``, ``w/o graph``,
    ``w/o uncertainty``.
    """
    config = dataclasses.replace(base) if base is not None else M2G4RTPConfig()
    normalized = name.strip().lower()
    if normalized == "full":
        return config
    if normalized in ("two-step", "two_step"):
        return dataclasses.replace(config, detach_time_inputs=True)
    if normalized in ("w/o aoi", "wo_aoi"):
        return dataclasses.replace(config, use_aoi=False)
    if normalized in ("w/o graph", "wo_graph"):
        return dataclasses.replace(config, use_graph=False)
    if normalized in ("w/o uncertainty", "wo_uncertainty"):
        return dataclasses.replace(config, use_uncertainty=False)
    raise ValueError(f"unknown variant {name!r}")


VARIANT_NAMES = ("full", "two-step", "w/o aoi", "w/o graph", "w/o uncertainty")
