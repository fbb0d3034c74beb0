"""Shared machinery for the deep baselines (DeepRoute, FDNET, Graph2Route).

Each baseline is a *route-only* model: an encoder produces location
representations and the same masked-pointer decoder used by M²G4RTP
(Section IV-C) emits the route.  Per the paper's Section V-B, a
separate three-layer fully-connected time head is then trained on the
frozen representations ("the plugged time prediction module ... is
trained separately from the original model") — the error-accumulation
weakness the paper attributes to two-step designs is therefore
faithfully present.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..autodiff import Adam, Tensor, clip_grad_norm, concat, no_grad, stack
from ..data.dataset import RTPDataset
from ..data.entities import RTPInstance
from ..graphs import GraphBuilder, LevelGraph, MultiLevelGraph
from ..nn import FeatureEncoder, Linear, MLP, Module
from ..nn.positional import sinusoidal_position_encoding
from ..core.decoder import RouteDecoder
from .base import BaselinePrediction, RTPBaseline

_KM = 1000.0


@dataclasses.dataclass
class DeepBaselineConfig:
    """Training/shape hyper-parameters shared by the deep baselines."""

    hidden_dim: int = 32
    continuous_embed_dim: int = 16
    discrete_embed_dim: int = 8
    num_aoi_ids: int = 256
    num_aoi_types: int = 8
    position_dim: int = 8
    epochs: int = 10
    time_epochs: int = 8
    learning_rate: float = 3e-3
    grad_clip: float = 5.0
    time_scale: float = 60.0
    seed: int = 0


class LocationInputEncoder(Module):
    """Raw location features -> ``(n, hidden_dim)`` inputs (Eq. 18 style)."""

    def __init__(self, config: DeepBaselineConfig, rng: np.random.Generator):
        super().__init__()
        self.features = FeatureEncoder(
            continuous_dim=6,
            discrete_cardinalities=[config.num_aoi_ids, config.num_aoi_types],
            continuous_out=config.continuous_embed_dim,
            discrete_out=config.discrete_embed_dim,
            rng=rng,
        )
        self.proj = Linear(self.features.output_dim, config.hidden_dim, rng)

    def forward(self, location: LevelGraph) -> Tensor:
        return self.proj(self.features(Tensor(location.continuous),
                                       location.discrete))


class PluginTimeHead(Module):
    """Three-layer MLP time predictor plugged after a route model.

    Inputs per location: frozen representation, positional encoding of
    its (predicted) route position, and leg/cumulative distances.
    """

    def __init__(self, rep_dim: int, config: DeepBaselineConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.position_dim = config.position_dim
        input_dim = rep_dim + config.position_dim + 3
        self.mlp = MLP([input_dim, 2 * config.hidden_dim, config.hidden_dim, 1], rng)

    def forward(self, representations: Tensor, route: np.ndarray,
                instance: RTPInstance) -> Tensor:
        """Arrival times (scaled units) in node order."""
        n = representations.shape[0]
        legs, cumulative = _route_distances(instance, route)
        outputs: List[Tensor] = []
        for position, node in enumerate(route, start=1):
            encoding = sinusoidal_position_encoding(position, self.position_dim)
            extras = np.array([
                position / n, cumulative[position - 1], legs[position - 1],
            ])
            row = concat([
                representations[int(node)], Tensor(encoding), Tensor(extras)
            ], axis=-1)
            outputs.append(self.mlp(row).reshape(()))
        by_step = stack(outputs, axis=0)
        inverse = np.empty(n, dtype=np.int64)
        inverse[np.asarray(route)] = np.arange(n)
        return by_step[inverse]


def _route_distances(instance: RTPInstance,
                     route: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-leg and cumulative km along a route from the courier position."""
    legs = np.zeros(len(route))
    position = instance.courier_position
    for step, node in enumerate(route):
        location = instance.locations[int(node)]
        legs[step] = location.distance_to(*position) / _KM
        position = location.coord
    return legs, np.cumsum(legs)


class DeepRouteTimeBaseline(RTPBaseline):
    """Template: encoder + pointer route decoder + separate time head.

    Subclasses override :meth:`_build_encoder` and :meth:`_encode`.
    """

    name = "deep-baseline"

    def __init__(self, config: Optional[DeepBaselineConfig] = None,
                 builder: Optional[GraphBuilder] = None):
        self.config = config or DeepBaselineConfig()
        self.builder = builder or GraphBuilder(num_aoi_ids=self.config.num_aoi_ids)
        rng = np.random.default_rng(self.config.seed)
        self.input_encoder = LocationInputEncoder(self.config, rng)
        self.encoder = self._build_encoder(rng)
        self.decoder = RouteDecoder(
            node_dim=self.config.hidden_dim, state_dim=self.config.hidden_dim,
            courier_dim=3, rng=rng)
        self.time_head = PluginTimeHead(self.config.hidden_dim, self.config, rng)

    # -- subclass hooks -------------------------------------------------
    def _build_encoder(self, rng: np.random.Generator) -> Module:
        raise NotImplementedError

    def _encode(self, inputs: Tensor, graph: MultiLevelGraph) -> Tensor:
        raise NotImplementedError

    # -- training --------------------------------------------------------
    def _route_parameters(self):
        return (self.input_encoder.parameters() + self.encoder.parameters()
                + self.decoder.parameters())

    def fit(self, train: RTPDataset,
            validation: Optional[RTPDataset] = None) -> "DeepRouteTimeBaseline":
        cfg = self.config
        graphs = [self.builder.build(instance) for instance in train]

        # Stage 1: route model (teacher-forced cross-entropy).
        optimizer = Adam(self._route_parameters(), lr=cfg.learning_rate)
        for _ in range(cfg.epochs):
            for instance, graph in zip(train, graphs):
                optimizer.zero_grad()
                _, label_log_probs = self._decode(
                    self._representations(graph), graph,
                    teacher_route=instance.route)
                loss = -label_log_probs.mean()
                loss.backward()
                clip_grad_norm(optimizer.parameters, cfg.grad_clip)
                optimizer.step()

        # Stage 2: time head on frozen representations (two-step, as in
        # the paper's plugged module).
        time_optimizer = Adam(self.time_head.parameters(), lr=cfg.learning_rate)
        for _ in range(cfg.time_epochs):
            for instance, graph in zip(train, graphs):
                time_optimizer.zero_grad()
                with no_grad():
                    representations = self._representations(graph)
                predicted = self.time_head(
                    representations.detach(), instance.route, instance)
                target = Tensor(instance.arrival_times / cfg.time_scale)
                loss = (predicted - target).abs().mean()
                loss.backward()
                clip_grad_norm(time_optimizer.parameters, cfg.grad_clip)
                time_optimizer.step()
        return self

    def _representations(self, graph: MultiLevelGraph) -> Tensor:
        return self._encode(self.input_encoder(graph.location), graph)

    def _decode(self, representations: Tensor, graph: MultiLevelGraph,
                teacher_route: Optional[np.ndarray] = None):
        """Pointer-decode ``graph`` as a batch of one.

        Returns ``(route, label_log_probs)``; the latter is ``None``
        without a teacher route (greedy decoding).
        """
        n = graph.num_locations
        routes, label_log_probs = self.decoder.forward_batch(
            representations.reshape(1, n, -1),
            Tensor(graph.courier_profile.reshape(1, -1)), np.array([n]),
            teacher_routes=(None if teacher_route is None
                            else np.asarray(teacher_route)[None]))
        return routes[0], label_log_probs

    # -- inference --------------------------------------------------------
    def predict(self, instance: RTPInstance) -> BaselinePrediction:
        graph = self.builder.build(instance)
        with no_grad():
            representations = self._representations(graph)
            route, _ = self._decode(representations, graph)
            times = self.time_head(representations, route, instance)
        return BaselinePrediction(
            route=route,
            arrival_times=times.data * self.config.time_scale,
        )
