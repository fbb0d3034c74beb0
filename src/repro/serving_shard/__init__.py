"""Sharded multi-process serving tier.

A request router (:class:`ShardRouter`) fans traffic over N serving
shards — worker processes (or inline runtimes under a virtual clock),
each running the full batched engine with its own graph cache; a
worker drains queued requests into one padded batch per lane.
Placement is consistent by courier identity, admission is bounded per
shard with load shedding to the degraded fallback path, dead shards
respawn from current weights, and each shard serves two lanes: the
primary and, during a canary, the candidate.  Hot model
swap and canary start/stop broadcast serialized state dicts that drain
behind in-flight work.
"""

from .router import (SHARD_LATENCY_BUCKETS, SHARD_LATENCY_EXEMPLARS,
                     ShardConfig, ShardRouter, ShardTicket)
from .runtime import (CRASH_EXIT_CODE, ShardRuntime, build_model,
                      shard_worker_main)

__all__ = [
    "CRASH_EXIT_CODE",
    "SHARD_LATENCY_BUCKETS",
    "SHARD_LATENCY_EXEMPLARS",
    "ShardConfig",
    "ShardRouter",
    "ShardRuntime",
    "ShardTicket",
    "build_model",
    "shard_worker_main",
]
