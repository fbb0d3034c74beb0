"""Dynamic courier-day simulation: RTP requests as the order set changes.

The deployed system (paper Sections V-F and VI) re-predicts whenever a
courier's set of unvisited locations changes — a pickup is completed or
a new order is dispatched.  This module simulates a full working day
with Poisson-ish order arrivals and emits one labelled
:class:`~repro.data.entities.RTPInstance` snapshot per re-plan event,
so the service layer can be replayed against a realistic query stream.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from .entities import Location, RTPInstance
from .generator import SyntheticWorld, _WEATHER_SPEED_FACTOR, NUM_WEATHER_TYPES


@dataclasses.dataclass
class DynamicDay:
    """The output of one simulated day.

    ``snapshots[i]`` is the labelled RTP instance visible at the i-th
    re-plan event; ``event_kinds[i]`` says what triggered it
    (``"start"``, ``"arrival"`` of new orders, or ``"pickup"``).
    """

    snapshots: List[RTPInstance]
    event_kinds: List[str]

    def __len__(self) -> int:
        return len(self.snapshots)


class DynamicDaySimulator:
    """Simulates one courier-day with mid-route order arrivals."""

    def __init__(self, world: SyntheticWorld, courier_index: int = 0,
                 initial_orders: int = 6, arrival_batches: int = 3,
                 orders_per_batch: int = 3, min_snapshot_orders: int = 3,
                 seed: int = 0):
        if initial_orders < min_snapshot_orders:
            raise ValueError("initial_orders must cover min_snapshot_orders")
        self.world = world
        self.courier_index = courier_index
        self.initial_orders = initial_orders
        self.arrival_batches = arrival_batches
        self.orders_per_batch = orders_per_batch
        self.min_snapshot_orders = min_snapshot_orders
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _sample_orders(self, count: int, base_time: float,
                       next_id: int) -> List[Location]:
        """New orders within the courier's service zone."""
        cfg = self.world.config
        rng = self._rng
        zone = self.world._zones[self.courier_index]
        orders = []
        for offset in range(count):
            aoi = self.world.aois[int(rng.choice(zone))]
            lon = aoi.center[0] + rng.normal(0.0, cfg.locations_per_aoi_spread)
            lat = aoi.center[1] + rng.normal(0.0, cfg.locations_per_aoi_spread)
            accept = base_time - float(rng.uniform(1.0, 30.0))
            orders.append(Location(
                location_id=next_id + offset,
                coord=(float(lon), float(lat)),
                aoi_id=aoi.aoi_id,
                accept_time=accept,
                deadline=accept + cfg.promise_window_minutes,
            ))
        return orders

    def _plan(self, position: Tuple[float, float], clock: float,
              unvisited: List[Location], weather: int
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Ground-truth continuation: the courier's policy from here."""
        aois = self._aois_of(unvisited)
        route, _ = self.world._simulate_route(
            self.world.couriers[self.courier_index], position,
            unvisited, aois, clock, self._rng)
        ordered = [unvisited[i] for i in route]
        arrivals_by_step = self.world._simulate_times(
            self.world.couriers[self.courier_index], position, ordered,
            weather, self._rng)
        arrival = np.zeros(len(unvisited))
        arrival[route] = arrivals_by_step
        return route, arrival

    def _aois_of(self, locations: List[Location]):
        seen = []
        by_id = {aoi.aoi_id: aoi for aoi in self.world.aois}
        for location in locations:
            if location.aoi_id not in {aoi.aoi_id for aoi in seen}:
                seen.append(by_id[location.aoi_id])
        return seen

    def _snapshot(self, position: Tuple[float, float], clock: float,
                  unvisited: List[Location], weather: int, weekday: int,
                  day: int) -> Tuple[RTPInstance, np.ndarray]:
        route, arrival = self._plan(position, clock, unvisited, weather)
        aois = self._aois_of(unvisited)
        aoi_index = {aoi.aoi_id: i for i, aoi in enumerate(aois)}
        aoi_route: List[int] = []
        for location_index in route:
            index = aoi_index[unvisited[int(location_index)].aoi_id]
            if index not in aoi_route:
                aoi_route.append(index)
        aoi_arrival = np.full(len(aois), np.inf)
        for location_index in route:
            index = aoi_index[unvisited[int(location_index)].aoi_id]
            aoi_arrival[index] = min(aoi_arrival[index],
                                     arrival[int(location_index)])
        instance = RTPInstance(
            courier=self.world.couriers[self.courier_index],
            request_time=clock,
            courier_position=position,
            locations=list(unvisited),
            aois=aois,
            route=route,
            arrival_times=arrival,
            aoi_route=np.array(aoi_route, dtype=np.int64),
            aoi_arrival_times=aoi_arrival,
            weather=weather,
            weekday=day % 7,
            day=day,
        )
        return instance, route

    # ------------------------------------------------------------------
    def simulate(self, day: int = 0) -> DynamicDay:
        """Run one day; returns the stream of labelled snapshots."""
        rng = self._rng
        weather = int(rng.choice(NUM_WEATHER_TYPES,
                                 p=[0.55, 0.25, 0.15, 0.05]))
        clock = float(rng.uniform(8 * 60, 10 * 60))
        courier = self.world.couriers[self.courier_index]
        speed = courier.speed * _WEATHER_SPEED_FACTOR[weather]

        next_id = 0
        unvisited = self._sample_orders(self.initial_orders, clock, next_id)
        next_id += self.initial_orders
        arrival_times = sorted(
            float(rng.uniform(clock + 20, clock + 240))
            for _ in range(self.arrival_batches))

        # Start roughly at the first order's AOI neighbourhood.
        position = self.world._courier_start(self._aois_of(unvisited), rng)

        snapshots: List[RTPInstance] = []
        kinds: List[str] = []
        instance, plan = self._snapshot(position, clock, unvisited,
                                        weather, day % 7, day)
        snapshots.append(instance)
        kinds.append("start")

        plan_queue = list(plan)
        while unvisited:
            if not plan_queue:
                instance, plan = self._snapshot(position, clock, unvisited,
                                                weather, day % 7, day)
                plan_queue = list(plan)
            next_index = int(plan_queue[0])
            target = unvisited[next_index]
            travel = target.distance_to(*position) / speed
            pickup_time = clock + travel

            if arrival_times and arrival_times[0] <= pickup_time:
                # New orders land before the next pickup: re-plan.
                event_time = arrival_times.pop(0)
                clock = max(clock, event_time)
                new_orders = self._sample_orders(
                    self.orders_per_batch, clock, next_id)
                next_id += self.orders_per_batch
                unvisited = unvisited + new_orders
                instance, plan = self._snapshot(position, clock, unvisited,
                                                weather, day % 7, day)
                snapshots.append(instance)
                kinds.append("arrival")
                plan_queue = list(plan)
                continue

            # Complete the pickup.
            service = rng.gamma(
                shape=1.0 / self.world.config.service_time_noise ** 2,
                scale=(courier.service_time_mean
                       * self.world.config.service_time_noise ** 2))
            clock = pickup_time + service
            position = target.coord
            removed = unvisited.pop(next_index)
            plan_queue = [i if i < next_index else i - 1
                          for i in plan_queue[1:]]
            if len(unvisited) >= self.min_snapshot_orders:
                instance, plan = self._snapshot(position, clock, unvisited,
                                                weather, day % 7, day)
                snapshots.append(instance)
                kinds.append("pickup")
                plan_queue = list(plan)

        return DynamicDay(snapshots=snapshots, event_kinds=kinds)
