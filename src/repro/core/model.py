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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor, concat, no_grad, stack
from ..data.entities import RTPInstance
from ..graphs import MultiLevelGraph
from ..obs.tracing import span
from ..nn import Embedding, Linear, Module
from .decoder import RouteDecoder, SortLSTM, positional_guidance
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
    cell_type: str = "lstm"   # "lstm" or "gru" for both decoders
    seed: int = 0
    # Ablation switches (paper Section V-E).
    use_aoi: bool = True          # False -> "w/o AOI" variant
    use_graph: bool = True        # False -> "w/o graph" (BiLSTM encoder)
    use_uncertainty: bool = True  # False -> fixed 100:1 weights
    detach_time_inputs: bool = False  # True -> "two-step" training

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
    """Predictions (and, when targets were given, the task losses)."""

    route: np.ndarray
    arrival_times: np.ndarray
    aoi_route: Optional[np.ndarray]
    aoi_arrival_times: Optional[np.ndarray]
    losses: Dict[str, Tensor] = dataclasses.field(default_factory=dict)
    total_loss: Optional[Tensor] = None


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
                restrict_to_neighbors=cfg.restrict_to_neighbors,
                cell_type=cfg.cell_type)
            self.aoi_time_decoder = SortLSTM(d, d, cfg.position_dim, rng,
                                             cell_type=cfg.cell_type)
            location_input_dim = d + cfg.position_dim + 1
        else:
            self.aoi_route_decoder = None
            self.aoi_time_decoder = None
            location_input_dim = d

        self.location_route_decoder = RouteDecoder(
            location_input_dim, d, courier_dim, rng,
            restrict_to_neighbors=cfg.restrict_to_neighbors,
            cell_type=cfg.cell_type)
        self.location_time_decoder = SortLSTM(
            location_input_dim, d, cfg.position_dim, rng,
            cell_type=cfg.cell_type)

        self.loss_weighting = (
            UncertaintyWeighting() if cfg.use_uncertainty else FixedWeighting())

    # ------------------------------------------------------------------
    def _courier_vector(self, graph: MultiLevelGraph) -> Tensor:
        embedding = self.courier_embedding(
            graph.courier_id % self.config.num_couriers)
        return concat([embedding, Tensor(graph.courier_profile)], axis=-1)

    @staticmethod
    def _route_loss(step_log_probs: List[Tensor],
                    teacher_route: np.ndarray) -> Tensor:
        """Mean step cross-entropy (Eqs. 37-38)."""
        terms = [
            -log_probs[int(target)]
            for log_probs, target in zip(step_log_probs, teacher_route)
        ]
        return stack(terms, axis=0).mean()

    def _time_loss(self, predicted: Tensor, target_minutes: np.ndarray) -> Tensor:
        """MAE in scaled time units (Eqs. 39-40)."""
        target = Tensor(np.asarray(target_minutes) / self.config.time_scale)
        return (predicted - target).abs().mean()

    # ------------------------------------------------------------------
    def forward(self, graph: MultiLevelGraph,
                targets: Optional[RTPTargets] = None,
                sample_prob: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> M2G4RTPOutput:
        """Run the model; with ``targets`` also compute the four losses.

        With targets the decoders are teacher-forced and the SortLSTMs
        sort by the ground-truth routes; without targets the model runs
        fully autoregressively on its own predictions.  ``sample_prob``
        enables scheduled sampling during training (see
        :meth:`RouteDecoder.forward`).
        """
        cfg = self.config
        with span("encoder"):
            location_reps, aoi_reps = self.encoder(graph)
        courier = self._courier_vector(graph)
        losses: Dict[str, Tensor] = {}

        aoi_route: Optional[np.ndarray] = None
        aoi_times_tensor: Optional[Tensor] = None
        if cfg.use_aoi:
            assert self.aoi_route_decoder is not None
            with span("route_decode", level="aoi"):
                aoi_decode = self.aoi_route_decoder(
                    aoi_reps, courier, adjacency=graph.aoi.adjacency,
                    teacher_route=(targets.aoi_route
                                   if targets is not None else None),
                    sample_prob=sample_prob, rng=rng)
            aoi_route = aoi_decode.route
            sort_route = targets.aoi_route if targets is not None else aoi_route
            time_inputs = aoi_reps.detach() if cfg.detach_time_inputs else aoi_reps
            with span("time_decode", level="aoi"):
                aoi_times_tensor = self.aoi_time_decoder(time_inputs, sort_route)
            if targets is not None:
                losses["aoi_route"] = self._route_loss(
                    aoi_decode.step_log_probs, aoi_decode.step_targets)
                losses["aoi_time"] = self._time_loss(
                    aoi_times_tensor, targets.aoi_arrival_times)

            # Guidance (Eq. 34): position of each location's AOI in the
            # AOI route, plus that AOI's predicted arrival time.
            guidance_route = sort_route
            aoi_positions = positional_guidance(guidance_route, cfg.position_dim)
            per_location_positions = Tensor(
                aoi_positions[graph.aoi_of_location])
            per_location_eta = aoi_times_tensor[graph.aoi_of_location]
            location_inputs = concat(
                [location_reps, per_location_positions,
                 per_location_eta.reshape(-1, 1)],
                axis=-1)
        else:
            location_inputs = location_reps

        with span("route_decode", level="location"):
            location_decode = self.location_route_decoder(
                location_inputs, courier, adjacency=graph.location.adjacency,
                teacher_route=targets.route if targets is not None else None,
                sample_prob=sample_prob, rng=rng)
        route = location_decode.route
        location_sort = targets.route if targets is not None else route
        time_inputs = (location_inputs.detach()
                       if cfg.detach_time_inputs else location_inputs)
        with span("time_decode", level="location"):
            location_times_tensor = self.location_time_decoder(
                time_inputs, location_sort)

        if targets is not None:
            losses["location_route"] = self._route_loss(
                location_decode.step_log_probs, location_decode.step_targets)
            losses["location_time"] = self._time_loss(
                location_times_tensor, targets.arrival_times)

        total = self.loss_weighting(losses) if losses else None
        return M2G4RTPOutput(
            route=route,
            arrival_times=location_times_tensor.data * cfg.time_scale,
            aoi_route=aoi_route,
            aoi_arrival_times=(aoi_times_tensor.data * cfg.time_scale
                               if aoi_times_tensor is not None else None),
            losses=losses,
            total_loss=total,
        )

    # ------------------------------------------------------------------
    def predict(self, graph: MultiLevelGraph) -> M2G4RTPOutput:
        """Inference: autoregressive decoding without the tape.

        Runs in eval mode; the module tree is only walked to switch
        modes when the model is in train mode (and is restored after).
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                return self.forward(graph)
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
