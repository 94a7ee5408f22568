"""Sharded multi-group SMR: many consensus groups, one keyspace.

The package that turns "a replicated log" into "a database": a
partitioned keyspace routed by a live :class:`ShardMap`, one consensus
group per shard (Multi-Paxos or Raft, even mixed), cross-shard
transactions via 2PC-over-consensus, single-shard ones as one log
entry, and live shard splitting under traffic.  See
:class:`ShardedCluster` for the one-stop entry point and ``DESIGN.md``
("Sharding") for the protocol walk-through.
"""

from .cluster import ShardedCluster
from .group import ShardGroup
from .keyspace import (
    HashPartitioner,
    RangePartitioner,
    ShardMap,
    polynomial_hash,
)
from .rebalance import SplitOrchestrator
from .state import ShardKVStateMachine

__all__ = [
    "HashPartitioner",
    "RangePartitioner",
    "ShardGroup",
    "ShardKVStateMachine",
    "ShardMap",
    "ShardedCluster",
    "SplitOrchestrator",
    "polynomial_hash",
]
