"""FleetSpec — the pure, picklable description of a partitioned run.

Everything a worker process needs to rebuild its slice of the fleet is
derived from this one dataclass: shard ids and protocols, the routing
table, the precomputed transfer workload, timing constants.  Nothing in
here touches a simulator, so the spec can be computed once in the parent
and shipped to every worker byte-identically.

The workload is *precomputed* as plain ``(txid, src, dst, delta)``
tuples: the legacy :meth:`ShardedCluster.run_workload` draws transfers
from ``random.Random(0x5AD0 + seed)`` interleaved with simulation
progress, but the draws themselves depend only on the seed and the
(static) routing table — so the exact same sequence can be rolled out
ahead of time and replayed by the driver, wave by wave, at virtual-time
boundaries that do not depend on the worker count.
"""

import random
from dataclasses import dataclass

from ..shard.layout import (
    build_shard_map,
    draw_transfer,
    protocol_for,
    settle_time,
)

__all__ = ["FleetSpec", "domain_of", "CTL_DOMAIN", "build_plan"]

#: Domain id of the control tier (transaction coordinator + workload
#: driver).  Node names without a ``gid/`` prefix route here.
CTL_DOMAIN = "ctl"


def domain_of(name):
    """The synchronization domain a node name belongs to: its group id
    (``"s3/r1"`` -> ``"s3"``), or the control tier for ungrouped names."""
    head, sep, _ = name.partition("/")
    return head if sep else CTL_DOMAIN


@dataclass(frozen=True)
class FleetSpec:
    """One sharded run, described without reference to any simulator.

    ``epoch`` is the conservative lookahead: it must not exceed
    ``cross_low`` (the minimum cross-domain link latency), so that no
    message sent inside an epoch can be due for delivery before the
    next barrier.
    """

    seed: int = 0
    n_shards: int = 2
    replicas: int = 3
    protocol: str = "multi-paxos"
    partitioning: str = "range"
    key_space: int = 64
    txns: int = 24
    cross_ratio: float = 0.4
    batch: int = 8
    amount: int = 5
    workers: int = 1
    # -- synchronization constants ------------------------------------
    epoch: float = 4.0
    cross_low: float = 4.0
    cross_high: float = 6.0
    in_low: float = 0.5
    in_high: float = 1.5
    drain_epochs: int = 6
    op_timeout: float = 3000.0
    max_epochs: int = 20000
    # -- observers ----------------------------------------------------
    trace: bool = False
    telemetry: bool = False
    monitors: bool = False
    #: Fault-injection hook for tests/CI: ``(worker_index, epoch)`` makes
    #: that worker raise at that epoch barrier.
    fail_worker: tuple = None
    #: Force the in-process engine even for ``workers > 1`` (tests).
    inline: bool = False

    def __post_init__(self):
        if self.epoch > self.cross_low:
            raise ValueError(
                "epoch %.3f exceeds the cross-domain lookahead %.3f"
                % (self.epoch, self.cross_low))
        if self.workers < 1:
            raise ValueError("need at least one worker")

    # -- fleet layout --------------------------------------------------

    def shard_ids(self):
        return ["s%d" % i for i in range(self.n_shards)]

    def protocol_for(self, index):
        return protocol_for(self.protocol, index)

    @property
    def settle(self):
        """Virtual time for leader elections before traffic starts."""
        return settle_time([self.protocol_for(i)
                            for i in range(self.n_shards)])

    def shard_map(self):
        """The static routing table.  Parallel runs never split shards,
        so it stays valid for the whole run and every worker can hold
        its own copy."""
        return build_shard_map(self.n_shards, self.partitioning,
                               self.key_space)

    def members_of(self, gid):
        return tuple("%s/r%d" % (gid, i) for i in range(self.replicas))

    def fleet_names(self):
        """Every network-registered node name in the fleet."""
        names = []
        for gid in self.shard_ids():
            names.extend(self.members_of(gid))
        names.append("txn-coord")
        return names

    def domains(self):
        """All synchronization domains, control tier first."""
        return [CTL_DOMAIN] + self.shard_ids()


def build_plan(spec):
    """The full workload as waves of ``(txid, src, dst, delta)`` tuples.

    Two segments mirror the CLI's two ``run_workload`` calls
    (``max(txns // 2, 1)`` then ``max(txns - txns // 2, 1)``), each
    restarting the workload rng the way a fresh ``run_workload`` call
    does.  Transaction ids continue across segments (one
    coordinator-side counter).
    """
    shard_map = spec.shard_map()
    segments = []
    txid = 0
    for seg_txns in (max(spec.txns // 2, 1),
                     max(spec.txns - spec.txns // 2, 1)):
        rng = random.Random(0x5AD0 + spec.seed)
        waves = []
        remaining = seg_txns
        while remaining > 0:
            wave = []
            for _ in range(min(spec.batch, remaining)):
                remaining -= 1
                src, dst, delta = draw_transfer(
                    rng, shard_map, spec.key_space, spec.cross_ratio,
                    spec.amount)
                wave.append(("tx%d" % txid, src, dst, delta))
                txid += 1
            waves.append(wave)
        segments.append(waves)
    return segments
