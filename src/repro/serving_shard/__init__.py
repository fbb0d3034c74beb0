"""Sharded multi-process serving tier.

A request router (:class:`ShardRouter`) fans traffic over N serving
shards — worker processes (or inline runtimes under a virtual clock),
each running the full batched engine with its own micro-batcher and
graph cache.  Placement is consistent by courier identity, admission
is bounded per shard with load shedding to the degraded fallback path,
dead shards respawn from current weights, and hot model swap / canary
rollouts broadcast serialized state dicts that drain behind in-flight
work.  :class:`ShardDeploymentController` wires those lifecycle actions
to the model registry.
"""

from .deployment import ShardDeploymentController
from .router import (SHARD_LATENCY_BUCKETS, SHARD_LATENCY_EXEMPLARS,
                     ShardConfig, ShardRouter, ShardTicket)
from .runtime import (CRASH_EXIT_CODE, ShardRuntime, SleepLatencyService,
                      build_model, shard_worker_main)

__all__ = [
    "CRASH_EXIT_CODE",
    "SHARD_LATENCY_BUCKETS",
    "SHARD_LATENCY_EXEMPLARS",
    "ShardConfig",
    "ShardDeploymentController",
    "ShardRouter",
    "ShardRuntime",
    "ShardTicket",
    "SleepLatencyService",
    "build_model",
    "shard_worker_main",
]
