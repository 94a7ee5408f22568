"""ShardedCluster — a fleet of consensus groups behind one keyspace.

The paper's modern systems (Spanner and its descendants) are not "a
Paxos group"; they are *hundreds* of them, each owning a slice of the
keyspace, stitched together by a routing table and a transaction layer.
:class:`ShardedCluster` is that architecture on one simulator:

* N shards × R replicas, every node on one shared
  :class:`~repro.core.Cluster` (one virtual clock, one network, one
  trace) — group namespaces (``s3/r1``) keep the fleet legible;
* hash- or range-partitioned keyspace behind a live
  :class:`~repro.shard.keyspace.ShardMap`;
* per-shard consensus via Multi-Paxos or Raft (or a mix — shard by
  shard, the SMR abstraction doesn't care);
* cross-shard transactions through 2PC-over-consensus
  (:class:`~repro.dtxn.coordinator.TxnCoordinator`), single-shard ones
  as one log entry each; a transfer's participants lock, read and vote
  in one entry each;
* live splits under traffic via the
  :class:`~repro.shard.rebalance.SplitOrchestrator`;
* optional per-shard conformance monitors, each scoped to its group so
  same-protocol shards never collide in one trace.
"""

import random

from ..core.cluster import Cluster
from ..core.exceptions import LivenessFailure
from ..dtxn.coordinator import Transaction, TxnCoordinator
from ..monitor import NULL_HUB
from .group import ShardGroup
from .layout import (
    Shortfall,
    build_shard_map,
    draw_transfer,
    key_name,
    protocol_for,
    settle_time,
    transfer_update,
)
from .rebalance import SplitOrchestrator


def _all_finished(txns):
    """A ``stop_when`` predicate: true once every one of ``txns`` has an
    outcome.  An outcome is set once and never cleared, so a cursor
    skips finished transactions for good instead of re-scanning them
    after every event."""
    cursor = 0

    def finished():
        nonlocal cursor
        while cursor < len(txns) and txns[cursor].outcome is not None:
            cursor += 1
        return cursor == len(txns)
    return finished


class ShardedCluster:
    """A sharded, replicated, transactional deployment.

    Parameters
    ----------
    n_shards:
        Number of consensus groups the keyspace starts divided across.
    replicas:
        Replication factor per shard (2f+1 for f crash faults).
    protocol:
        ``"multi-paxos"``, ``"raft"``, or ``"mixed"`` (alternating —
        even shards Multi-Paxos, odd shards Raft).
    partitioning:
        ``"hash"`` (static, uniform) or ``"range"`` (contiguous,
        splittable); range boundaries are placed evenly over the
        ``key_space`` generated keys.
    key_space:
        Size of the generated key universe (``key(0) .. key(n-1)``);
        workloads and range boundaries draw from it.
    cluster:
        An existing :class:`~repro.core.Cluster` to build on (the CLI
        passes its traced/instrumented one); default builds a fresh one
        from ``seed``/``monitors``.
    """

    def __init__(self, n_shards=2, replicas=3, seed=0,
                 protocol="multi-paxos", partitioning="hash",
                 key_space=256, monitors=False, cluster=None,
                 delivery=None, op_timeout=3000.0):
        if cluster is None:
            cluster = Cluster(seed=seed, delivery=delivery,
                              monitors=monitors)
        self.cluster = cluster
        self.seed = getattr(cluster.sim, "seed", seed)
        self.n_replicas = replicas
        self.protocol = protocol
        self.partitioning = partitioning
        self.key_space = key_space
        self.op_timeout = op_timeout
        self.shard_map = build_shard_map(n_shards, partitioning, key_space)
        self.shard_groups = {}
        self._shard_counter = 0
        for _ in range(n_shards):
            self._build_shard()
        self.coordinator = self.cluster.add_node(
            TxnCoordinator, "txn-coord", self.shard_map, self.shard_groups)
        self.rebalancer = self.cluster.add_node(
            SplitOrchestrator, "rebalancer", self)
        self._txid_counter = 0
        self.cluster.start_all()
        self.cluster.sim.run_for(settle_time(
            [group.protocol for group in self.shard_groups.values()]))

    # -- construction helpers -----------------------------------------------

    def _build_shard(self):
        index = self._shard_counter
        self._shard_counter += 1
        gid = "s%d" % index
        group = ShardGroup(self.cluster, gid, self.n_replicas,
                           protocol=protocol_for(self.protocol, index))
        self.shard_groups[gid] = group
        if self.cluster.monitors is not NULL_HUB:
            group.attach_monitors(f=(self.n_replicas - 1) // 2)
        return group

    def spawn_shard(self):
        """Build, start and register a brand-new shard group mid-run
        (the rebalancer calls this when a split needs a destination).
        Returns the new shard id — not yet routed to; the caller flips
        the :class:`ShardMap` when the data is in place."""
        group = self._build_shard()
        group.start()
        return group.gid

    # -- keyspace -----------------------------------------------------------

    def key(self, i):
        """The ``i``-th generated key (zero-padded, order-preserving)."""
        return key_name(i)

    def shard_of(self, key):
        return self.shard_map.shard_of(key)

    # -- transactions -------------------------------------------------------

    def run_transaction(self, keys, update, abort_if=None):
        """Drive one transaction to completion; returns it."""
        txn = self.submit(keys, update, abort_if=abort_if)
        deadline = self.now + self.op_timeout
        self.cluster.run_until(lambda: txn.outcome is not None,
                               until=deadline)
        if txn.outcome is None:
            raise LivenessFailure("transaction %s did not finish" % txn.txid)
        return txn

    def submit(self, keys, update, abort_if=None):
        """Submit without driving (callers batch and run themselves)."""
        txid = "tx%d" % self._txid_counter
        self._txid_counter += 1
        txn = Transaction(txid, tuple(keys), update, abort_if=abort_if)
        self.coordinator.submit(txn)
        return txn

    def put(self, key, value):
        return self.run_transaction(
            (key,), lambda reads: {key: value}).outcome

    def get(self, key):
        return self.run_transaction((key,), lambda reads: {}).result[key]

    def transfer(self, src, dst, amount):
        return self.run_transaction((src, dst),
                                    transfer_update(src, dst, amount),
                                    abort_if=Shortfall(src, amount)).outcome

    def total_of(self, keys):
        txn = self.run_transaction(tuple(keys), lambda reads: {})
        return sum(value or 0 for value in txn.result.values())

    # -- workload -----------------------------------------------------------

    def run_workload(self, txns=40, cross_ratio=0.25, batch=8, amount=5):
        """A deterministic transfer workload: ``txns`` transactions in
        waves of ``batch``, a ``cross_ratio`` fraction deliberately
        cross-shard.  Transfers conserve the keyspace total (no
        overdraft guard; balances may go negative), so
        ``total_of(all keys) == 0`` afterwards is a safety check.

        The returned summary's ``committed_per_vtime`` is committed
        transactions per unit of *simulated* time (the same units every
        message delay uses; in-shard hops are 0.5–1.5 units).  It is a
        dimensionless scheduling-density figure for comparing
        configurations under one delay model — not a wall-clock TPS and
        not comparable across delay models.
        """
        rng = random.Random(0x5AD0 + self.seed)
        started = self.now
        finished = []
        remaining = txns
        while remaining > 0:
            wave = []
            for _ in range(min(batch, remaining)):
                remaining -= 1
                wave.append(self._random_transfer(rng, cross_ratio, amount))
            deadline = self.now + self.op_timeout
            self.cluster.run_until(_all_finished(wave), until=deadline)
            hung = [txn.txid for txn in wave if txn.outcome is None]
            if hung:
                raise LivenessFailure("workload transactions hung: %s"
                                      % ", ".join(hung))
            finished.extend(wave)
        duration = self.now - started
        committed = sum(1 for txn in finished
                        if txn.outcome == "committed")
        return {
            "txns": txns,
            "committed": committed,
            "aborted": txns - committed,
            "cross_shard": sum(
                1 for txn in finished
                if len({self.shard_of(k) for k in txn.keys}) > 1),
            "fast_commits": self.coordinator.fast_commits,
            "virtual_time": duration,
            "committed_per_vtime": committed / duration
            if duration > 0 else 0.0,
        }

    def _random_transfer(self, rng, cross_ratio, amount):
        src, dst, delta = draw_transfer(rng, self.shard_map, self.key_space,
                                        cross_ratio, amount)
        return self.submit((src, dst), transfer_update(src, dst, delta))

    # -- splits -------------------------------------------------------------

    def split_shard(self, sid, at=None, settle=400.0):
        """Split shard ``sid`` live (range partitioning only); drives
        the simulation until the split completes.  ``at`` defaults to
        the midpoint of the shard's generated-key range."""
        if at is None:
            lo, hi = self.shard_map.bounds(sid)
            lo_i = int(lo[1:]) if lo is not None else 0
            hi_i = int(hi[1:]) if hi is not None else self.key_space
            at = self.key((lo_i + hi_i) // 2)
        split = self.rebalancer.split(sid, at)
        deadline = self.now + settle
        self.cluster.run_until(lambda: split["done"], until=deadline)
        if not split["done"]:
            raise LivenessFailure("split of %s at %r did not finish"
                                  % (sid, at))
        return split

    # -- verification -------------------------------------------------------

    def settle(self, duration=80.0):
        self.cluster.sim.run_for(duration)

    def check_consistency(self):
        """Every shard's replicas agree on log and state."""
        return all(group.check_consistency()
                   for group in self.shard_groups.values())

    def stats(self):
        """Deterministic run summary (same seed ⇒ same dict)."""
        return {
            "shards": len(self.shard_groups),
            "replicas": self.n_replicas,
            "partitioning": self.partitioning,
            "epoch": self.shard_map.epoch,
            **self.coordinator.stats(),
            "splits_done": self.rebalancer.splits_done,
            "per_shard": {gid: group.stats() for gid, group
                          in sorted(self.shard_groups.items())},
        }

    # -- passthroughs -------------------------------------------------------

    @property
    def now(self):
        return self.cluster.now

    @property
    def monitors(self):
        return self.cluster.monitors

    def __repr__(self):
        return "ShardedCluster(%d shards x %d replicas, %s, %s)" % (
            len(self.shard_groups), self.n_replicas, self.protocol,
            self.partitioning)
