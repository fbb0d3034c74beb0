"""Sharded multi-process serving tier.

A request router (:class:`ShardRouter`) fans traffic over N serving
shards — worker processes (or inline runtimes under a virtual clock),
each running the full batched engine with its own graph cache; a
worker drains queued requests into one padded batch.  Placement is
consistent by courier identity, admission is bounded per shard with
load shedding to the degraded fallback path, dead shards respawn from
current weights, and a router serves one model version at a time.  A
hot model swap broadcasts a serialized state dict that drains behind
in-flight work; canary, promote and rollback belong to
:class:`~repro.deploy.DeploymentController`.
"""

from .router import (SHARD_LATENCY_BUCKETS, SHARD_LATENCY_EXEMPLARS,
                     ShardConfig, ShardRouter, ShardTicket)
from .runtime import ShardRuntime, build_model, shard_worker_main

__all__ = [
    "SHARD_LATENCY_BUCKETS",
    "SHARD_LATENCY_EXEMPLARS",
    "ShardConfig",
    "ShardRouter",
    "ShardRuntime",
    "ShardTicket",
    "build_model",
    "shard_worker_main",
]
