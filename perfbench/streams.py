"""Seeded input streams of the three workloads, and their fingerprints.

Everything a run feeds the program is made here from ``--seed`` before
any timer starts: the request stream of ``poll``, the wave composition
of ``wave`` and the training batches of ``train``.  Request contents come
from :class:`repro.data.SyntheticWorld` (paper-scope sizes, 3-20
locations); the arrival schedule, the wave composition and the repeats
come from this module's own random generator, not from ``repro.load``.

A stream's fingerprint is a SHA-256 over everything the program reads
from it, hashed by this module's own code.  ``fingerprints.json`` holds
the value for the default seed and run length; every run regenerates
that stream and fails if it hashes differently, so a change to ``repro.data`` cannot silently
change what the benchmark measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data import GeneratorConfig, RTPDataset, SyntheticWorld
from repro.service import RTPRequest

FINGERPRINT_FILE = pathlib.Path(__file__).with_name("fingerprints.json")

#: World shape: the quick profile's city (60 AOIs, 3 instances per
#: courier-day) with 16 couriers, so a wave can hold 8 distinct ones;
#: requests stay in the paper's scope of 3-20 locations and 10 AOIs.
NUM_AOIS = 60
NUM_COURIERS = 16
INSTANCES_PER_COURIER_DAY = 3
MIN_LOCATIONS, MAX_LOCATIONS, MAX_AOIS = 3, 20, 10

#: poll: one request every 22.5 ms (about 44 per second), a third of
#: single-request capacity at about 7.5 ms per request.
POLL_SPACING_S = 0.0225
POLL_WARMUP = 8
#: poll: per-mille share of requests with 3, 4, ..., 20 locations, the
#: generator's size distribution.  Every seed measures this same mix, so
#: a percentile never moves because a seed drew more small requests; the
#: seed picks which requests of each size are used, and their order.
POLL_SIZE_MIX = (74, 89, 92, 91, 88, 83, 78, 72, 65, 59, 51, 44, 37, 29,
                 22, 15, 8, 2)

#: wave: 8 couriers every 80 ms; a wave takes about 25 ms, so the tier
#: is busy about a third of the time.  Half of each wave repeats that
#: courier's previous query unchanged.
WAVE_SPACING_S = 0.080
WAVE_SIZE = 8
WAVE_REPEATS = 4
WAVE_WARMUP = 3

#: train: one optimizer step over the next 8 training instances.  The
#: training split holds 120 batches, more than a 20-second run takes.
TRAIN_BATCH = 8
TRAIN_DAYS = 30


def _world(seed: int, num_days: int = 1) -> SyntheticWorld:
    return SyntheticWorld(GeneratorConfig(
        num_aois=NUM_AOIS, num_couriers=NUM_COURIERS, num_days=num_days,
        instances_per_courier_day=INSTANCES_PER_COURIER_DAY,
        min_locations=MIN_LOCATIONS, max_locations=MAX_LOCATIONS,
        max_aois_per_instance=MAX_AOIS,
        seed=seed))


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PollStream:
    """Distinct requests, one due every ``spacing_s`` seconds."""

    warmup: List[RTPRequest]
    requests: List[RTPRequest]
    spacing_s: float


@dataclasses.dataclass
class WaveStream:
    """Waves of requests due together; ``repeats`` flags reused queries."""

    warmup: List[List[RTPRequest]]
    waves: List[List[RTPRequest]]
    repeats: List[List[bool]]
    spacing_s: float


@dataclasses.dataclass
class TrainStream:
    """Training batches in order; the warm-up batch is not measured."""

    warmup: RTPDataset
    batches: List[RTPDataset]


def size_quota(count: int) -> Dict[int, int]:
    """Requests of each size among ``count``, in ``POLL_SIZE_MIX`` shares."""
    total = sum(POLL_SIZE_MIX)
    quota, reached = {}, 0
    cumulative = 0
    for offset, share in enumerate(POLL_SIZE_MIX):
        cumulative += share
        upto = round(count * cumulative / total)
        quota[MIN_LOCATIONS + offset] = upto - reached
        reached = upto
    return quota


def poll_stream(seed: int, seconds: float) -> PollStream:
    """Requests are drawn one at a time, round-robin over the couriers,
    and kept while their size's quota is open; then shuffled."""
    need = size_quota(int(seconds / POLL_SPACING_S))
    world = _world(seed)
    rng = np.random.default_rng([seed, 3])
    warmup, picked = [], []
    offset = 0
    for draw in itertools.count():
        instance = world.generate_instance(
            draw % NUM_COURIERS, draw // (NUM_COURIERS
                                         * INSTANCES_PER_COURIER_DAY),
            rng, location_id_offset=offset)
        offset += instance.num_locations
        if len(warmup) < POLL_WARMUP:
            warmup.append(instance)
        elif need.get(instance.num_locations, 0) > 0:
            need[instance.num_locations] -= 1
            picked.append(instance)
            if not any(need.values()):
                break
    order = rng.permutation(len(picked))
    return PollStream(
        [RTPRequest.from_instance(inst) for inst in warmup],
        [RTPRequest.from_instance(picked[i]) for i in order],
        POLL_SPACING_S)


def wave_composition(seed: int, count: int
                     ) -> Tuple[List[List[int]], List[List[bool]]]:
    """Couriers of each wave and which of them repeat their last query."""
    rng = np.random.default_rng([seed, 7])
    couriers: List[List[int]] = []
    repeats: List[List[bool]] = []
    asked = set()
    for _ in range(count):
        chosen = rng.choice(NUM_COURIERS, WAVE_SIZE, replace=False).tolist()
        eligible = [c for c in chosen if c in asked]
        repeating = (rng.choice(eligible, min(WAVE_REPEATS, len(eligible)),
                                replace=False).tolist() if eligible else [])
        couriers.append(chosen)
        repeats.append([c in repeating for c in chosen])
        asked.update(chosen)
    return couriers, repeats


def wave_stream(seed: int, seconds: float) -> WaveStream:
    count = WAVE_WARMUP + int(seconds / WAVE_SPACING_S)
    couriers, repeats = wave_composition(seed, count)
    world = _world(seed)
    rng = np.random.default_rng([seed, 5])
    asked = [0] * NUM_COURIERS
    last: Dict[int, RTPRequest] = {}
    offset = 0
    waves: List[List[RTPRequest]] = []
    for chosen, flags in zip(couriers, repeats):
        for courier, repeat in zip(chosen, flags):
            if not repeat:
                instance = world.generate_instance(
                    courier, asked[courier] // INSTANCES_PER_COURIER_DAY,
                    rng, location_id_offset=offset)
                offset += instance.num_locations
                asked[courier] += 1
                last[courier] = RTPRequest.from_instance(instance)
        waves.append([last[courier] for courier in chosen])
    return WaveStream(waves[:WAVE_WARMUP], waves[WAVE_WARMUP:],
                      repeats[WAVE_WARMUP:], WAVE_SPACING_S)


def train_stream(seed: int) -> TrainStream:
    dataset = RTPDataset(_world(seed, TRAIN_DAYS).generate())
    train, validation, _ = dataset.filter_paper_scope().split_by_day()
    batches = [train[i:i + TRAIN_BATCH]
               for i in range(0, len(train) - TRAIN_BATCH + 1, TRAIN_BATCH)]
    return TrainStream(validation[:TRAIN_BATCH], batches)


def make_stream(workload: str, seed: int, seconds: float):
    if workload == "poll":
        return poll_stream(seed, seconds)
    if workload == "wave":
        return wave_stream(seed, seconds)
    if workload == "train":
        return train_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _floats(digest, values: Sequence[float]) -> None:
    digest.update(struct.pack(f"<{len(values)}d", *values))


def _ints(digest, values: Sequence[int]) -> None:
    digest.update(struct.pack(f"<{len(values)}q", *values))


def _hash_request(digest, request) -> None:
    """Everything the graph builder and the model read from a request."""
    courier = request.courier
    _ints(digest, [courier.courier_id, request.weather, request.weekday,
                   len(request.locations), len(request.aois)])
    _floats(digest, [courier.speed, courier.working_hours,
                     courier.attendance_rate, request.request_time,
                     *request.courier_position])
    for location in request.locations:
        _ints(digest, [location.location_id, location.aoi_id])
        _floats(digest, [*location.coord, location.accept_time,
                         location.deadline])
    for aoi in request.aois:
        _ints(digest, [aoi.aoi_id, aoi.aoi_type])
        _floats(digest, aoi.center)


def _hash_instance(digest, instance) -> None:
    _hash_request(digest, instance)
    _ints(digest, [instance.day, *instance.route.tolist(),
                   *instance.aoi_route.tolist()])
    _floats(digest, [*instance.arrival_times.tolist(),
                     *instance.aoi_arrival_times.tolist()])


def fingerprint(stream) -> str:
    """SHA-256 over a stream's contents, order and composition."""
    digest = hashlib.sha256(type(stream).__name__.encode())
    if isinstance(stream, PollStream):
        _floats(digest, [stream.spacing_s])
        for request in stream.warmup + stream.requests:
            _hash_request(digest, request)
    elif isinstance(stream, WaveStream):
        _floats(digest, [stream.spacing_s])
        for wave in stream.warmup + stream.waves:
            _ints(digest, [len(wave)])
            for request in wave:
                _hash_request(digest, request)
        for flags in stream.repeats:
            _ints(digest, [int(flag) for flag in flags])
    elif isinstance(stream, TrainStream):
        for batch in [stream.warmup] + stream.batches:
            _ints(digest, [len(batch)])
            for instance in batch:
                _hash_instance(digest, instance)
    else:
        raise TypeError(f"not a stream: {stream!r}")
    return digest.hexdigest()


def check_recorded(workload: str) -> Tuple[bool, str]:
    """Regenerate the recorded stream and compare its fingerprint.

    Returns ``(matches, detail)``.  Run before the measured stream is
    made, so that both streams are never held at once and peak memory
    does not depend on whether the seed is the recorded one.
    """
    record = json.loads(FINGERPRINT_FILE.read_text())
    expected = record["workloads"][workload]
    actual = fingerprint(make_stream(workload, record["seed"],
                                     record["seconds"]))
    detail = (f"seed {record['seed']}, {record['seconds']} s: "
              f"{actual[:16]} vs recorded {expected[:16]}")
    return actual == expected, detail
