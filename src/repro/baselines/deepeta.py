"""DeepETA-style time-only baseline (Wu & Wu, AAAI 2019).

The paper's Table I lists DeepETA as the representative *time-only*
method: recurrent cells over the route plus attention layers that
pick out the most informative steps.  It cannot produce a route, so —
as with the other route-only/time-only baselines — we compose it with a
route provider (the shortest-route heuristic by default) to participate
in joint evaluations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import Adam, Tensor, clip_grad_norm, concat, no_grad
from ..data.dataset import RTPDataset
from ..data.entities import RTPInstance
from ..graphs import GraphBuilder
from ..nn import Linear, LSTM, Module, MultiHeadSelfAttention
from ..nn.positional import sinusoidal_position_encoding
from .base import BaselinePrediction, RTPBaseline
from .deep_common import DeepBaselineConfig, LocationInputEncoder
from .tsp import ShortestRouteTSP


class _DeepETANet(Module):
    """Recurrent + attention ETA network over a route-ordered sequence."""

    def __init__(self, config: DeepBaselineConfig, rng: np.random.Generator):
        super().__init__()
        d = config.hidden_dim
        self.position_dim = config.position_dim
        self.input_encoder = LocationInputEncoder(config, rng)
        self.recurrent = LSTM(d + config.position_dim, d, rng)
        self.attention = MultiHeadSelfAttention(d, num_heads=2, rng=rng)
        self.head = Linear(d, 1, rng)

    def forward(self, location, route: np.ndarray) -> Tensor:
        """Per-location ETA (scaled units) in node order."""
        inputs = self.input_encoder(location)
        n = inputs.shape[0]
        encodings = Tensor(np.stack([
            sinusoidal_position_encoding(position, self.position_dim)
            for position in range(1, n + 1)
        ]))
        ordered = concat([inputs[np.asarray(route)], encodings], axis=-1)
        states, _ = self.recurrent(ordered)
        attended = states + self.attention(states)
        by_step = self.head(attended).reshape(-1)
        inverse = np.empty(n, dtype=np.int64)
        inverse[np.asarray(route)] = np.arange(n)
        return by_step[inverse]


class DeepETA(RTPBaseline):
    """Time-only ETA model composed with a pluggable route provider."""

    name = "DeepETA"

    def __init__(self, config: Optional[DeepBaselineConfig] = None,
                 route_provider: Optional[RTPBaseline] = None,
                 builder: Optional[GraphBuilder] = None):
        self.config = config or DeepBaselineConfig()
        self.builder = builder or GraphBuilder(
            num_aoi_ids=self.config.num_aoi_ids)
        self.route_provider = route_provider or ShortestRouteTSP()
        rng = np.random.default_rng(self.config.seed)
        self.network = _DeepETANet(self.config, rng)

    def fit(self, train: RTPDataset,
            validation: Optional[RTPDataset] = None) -> "DeepETA":
        cfg = self.config
        self.route_provider.fit(train, validation)
        graphs = [self.builder.build(instance) for instance in train]
        optimizer = Adam(self.network.parameters(), lr=cfg.learning_rate)
        for _ in range(cfg.epochs):
            for instance, graph in zip(train, graphs):
                optimizer.zero_grad()
                predicted = self.network(graph.location, instance.route)
                target = Tensor(instance.arrival_times / cfg.time_scale)
                loss = (predicted - target).abs().mean()
                loss.backward()
                clip_grad_norm(optimizer.parameters, cfg.grad_clip)
                optimizer.step()
        return self

    def predict(self, instance: RTPInstance) -> BaselinePrediction:
        route = self.route_provider.predict(instance).route
        graph = self.builder.build(instance)
        with no_grad():
            times = self.network(graph.location, route)
        return BaselinePrediction(
            route=route,
            arrival_times=times.data * self.config.time_scale,
        )
