"""Tests for sharded multi-group SMR: fleets, 2PC-over-consensus,
fast path, crashes and live splits."""

import pytest

from repro.faults import FaultPlan
from repro.protocols.multipaxos import LogCommand
from repro.shard import ShardedCluster


def _cross_shard_pair(sharded):
    """Two generated keys routed to different shards."""
    first = sharded.key(0)
    for i in range(1, sharded.key_space):
        if sharded.shard_of(sharded.key(i)) != sharded.shard_of(first):
            return first, sharded.key(i)
    raise AssertionError("no cross-shard pair in the key space")


def _group_ops(group):
    """Operation names committed in a group's log (any replica)."""
    ops = set()
    for log in group.committed_logs():
        for _index, value in log:
            command = value.command if isinstance(value, LogCommand) \
                else value
            if isinstance(command, tuple):
                ops.add(command[0])
    return ops


class TestFleet:
    def test_groups_share_one_simulator_and_network(self):
        sharded = ShardedCluster(n_shards=3, replicas=3, seed=1)
        names = {node.name for node in sharded.cluster.nodes}
        for gid in ("s0", "s1", "s2"):
            for r in range(3):
                assert "%s/r%d" % (gid, r) in names
        assert len(sharded.cluster.nodes) == 9 + 2  # + coord, rebalancer
        # One virtual clock: everything advanced together during setup.
        assert sharded.now > 0

    def test_every_group_elects_independently(self):
        sharded = ShardedCluster(n_shards=3, replicas=3, seed=2)
        for group in sharded.shard_groups.values():
            leader = group.leader()
            assert leader is not None
            assert leader.name.startswith(group.gid + "/")

    def test_wave_predicate_is_true_once_every_outcome_is_in(self):
        from types import SimpleNamespace

        from repro.shard.cluster import _all_finished
        wave = [SimpleNamespace(outcome=None) for _ in range(3)]
        finished = _all_finished(wave)
        for txn, outcome in zip((wave[2], wave[0]), ("committed", "aborted")):
            txn.outcome = outcome
            assert not finished()  # out of order: the cursor must wait
        wave[1].outcome = "committed"
        assert finished() and finished()
        assert _all_finished([])()


class TestFastPath:
    def test_single_shard_txn_skips_2pc(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=3)
        key = sharded.key(0)
        assert sharded.put(key, 7) == "committed"
        assert sharded.coordinator.fast_commits == 1
        sharded.settle()
        ops = _group_ops(sharded.shard_groups[sharded.shard_of(key)])
        assert ops == {"txn_exec"}

    def test_fast_path_conflicts_still_serialize(self):
        sharded = ShardedCluster(n_shards=1, replicas=3, seed=4)
        key = sharded.key(1)
        sharded.put(key, 0)
        t1 = sharded.submit((key,), lambda r: {key: (r[key] or 0) + 1})
        t2 = sharded.submit((key,), lambda r: {key: (r[key] or 0) + 10})
        sharded.cluster.run_until(
            lambda: t1.outcome and t2.outcome, until=4000.0)
        assert t1.outcome == "committed" and t2.outcome == "committed"
        assert sharded.get(key) == 11


class TestCrossShard2PC:
    def test_commit_via_two_groups_with_monitors_green(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=5,
                                 monitors=True)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 100)
        sharded.put(b, 10)
        assert sharded.transfer(a, b, 40) == "committed"
        assert sharded.get(a) == 60 and sharded.get(b) == 50
        sharded.settle()
        assert sharded.check_consistency()
        sharded.monitors.finish()
        assert sharded.monitors.ok, sharded.monitors.anomalies

    def test_commit_decision_is_replicated_in_a_shard_log(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=6)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 9)
        txn = sharded.run_transaction(
            (a, b), lambda r: {a: r[a] - 1, b: (r[b] or 0) + 1})
        assert txn.outcome == "committed"
        sharded.settle()
        # Lock, prepare, commit in both participants' logs and no
        # separate decision record anywhere (a's put adds its exec).
        assert _group_ops(sharded.shard_groups[sharded.shard_of(a)]) \
            == {"txn_lock", "txn_exec", "txn_prepare", "txn_commit"}
        assert _group_ops(sharded.shard_groups[sharded.shard_of(b)]) \
            == {"txn_lock", "txn_prepare", "txn_commit"}
        for key, value in ((a, 8), (b, 1)):
            group = sharded.shard_groups[sharded.shard_of(key)]
            for log in group.committed_logs():
                commands = [v.command if isinstance(v, LogCommand) else v
                            for _index, v in log]
                assert ("txn_commit", txn.txid) in commands
            for machine in group.machines():
                assert machine.data[key] == value
                assert not machine.locks and not machine.staged

    def test_survives_participant_replica_crash(self):
        # A minority crash inside one participant group: the group
        # re-elects and the cross-shard transaction still commits.
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=7,
                                 monitors=True)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 50)
        sharded.put(b, 50)
        plan = FaultPlan(sharded.cluster).apply(
            [(sharded.now, "crash", sharded.shard_of(b) + "/leader")])
        assert sharded.transfer(a, b, 25) == "committed"
        assert len(plan.events) == 1  # a leader was there to crash
        assert sharded.total_of([a, b]) == 100
        sharded.settle()
        assert sharded.check_consistency()
        sharded.monitors.finish()
        assert sharded.monitors.ok, sharded.monitors.anomalies

    def test_whole_shard_crash_mid_2pc_aborts_deterministically(self):
        def doomed(seed):
            sharded = ShardedCluster(n_shards=2, replicas=3, seed=seed)
            a, b = _cross_shard_pair(sharded)
            sharded.put(a, 50)
            victim = sharded.shard_of(b)
            # Crash the whole participant shard shortly after submit —
            # genuinely mid-2PC.
            FaultPlan(sharded.cluster).apply(
                [(sharded.now + 2.0, "crash", victim + "/*")])
            txn = sharded.submit(
                (a, b), lambda r: {a: r[a] - 5, b: (r[b] or 0) + 5})
            sharded.cluster.run_until(lambda: txn.outcome is not None,
                                      until=sharded.now + 2000.0)
            assert txn.outcome == "aborted"
            assert sharded.coordinator.timeout_aborts >= 1
            # Locks on the surviving shard were released.
            assert sharded.run_transaction(
                (a,), lambda r: {a: r[a] + 1}).outcome == "committed"
            return txn.finished_at

        assert doomed(8) == doomed(8)


class TestProtocolMix:
    def test_raft_backed_shards_commit_cross_shard(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=9,
                                 protocol="raft", monitors=True)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 30)
        assert sharded.transfer(a, b, 10) == "committed"
        sharded.settle()
        assert sharded.check_consistency()
        sharded.monitors.finish()
        assert sharded.monitors.ok, sharded.monitors.anomalies

    def test_mixed_fleet_interoperates(self):
        sharded = ShardedCluster(n_shards=4, replicas=3, seed=10,
                                 protocol="mixed", monitors=True)
        protocols = {group.protocol
                     for group in sharded.shard_groups.values()}
        assert protocols == {"multi-paxos", "raft"}
        stats = sharded.run_workload(txns=16, cross_ratio=0.5)
        assert stats["committed"] == 16
        assert stats["cross_shard"] > 0
        sharded.settle()
        assert sharded.check_consistency()
        sharded.monitors.finish()
        assert sharded.monitors.ok, sharded.monitors.anomalies


class TestLiveSplit:
    def test_split_under_traffic_conserves_totals(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=11,
                                 partitioning="range", key_space=64,
                                 monitors=True)
        funded = [sharded.key(i) for i in range(0, 64, 4)]
        for key in funded:
            sharded.put(key, 10)
        before = sharded.run_workload(txns=10, cross_ratio=0.5)
        assert before["committed"] == 10
        split = sharded.split_shard("s1")
        assert split["done"] and split["new_sid"] == "s2"
        assert sharded.shard_map.epoch == 1
        after = sharded.run_workload(txns=10, cross_ratio=0.5)
        assert after["committed"] == 10
        # Transfers conserve the fleet total through the migration.
        assert sharded.total_of([sharded.key(i) for i in range(64)]) \
            == 10 * len(funded)
        sharded.settle()
        assert sharded.check_consistency()
        sharded.monitors.finish()
        assert sharded.monitors.ok, sharded.monitors.anomalies

    def test_split_moves_data_and_routes_new_traffic(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=12,
                                 partitioning="range", key_space=32)
        moved_key = sharded.key(28)  # upper half of s1's range
        kept_key = sharded.key(17)  # lower half of s1's range
        sharded.put(moved_key, 5)
        sharded.put(kept_key, 6)
        split = sharded.split_shard("s1")
        assert sharded.shard_of(moved_key) == split["new_sid"]
        assert sharded.shard_of(kept_key) == "s1"
        # Data followed the routing; reads and writes still work.
        assert sharded.get(moved_key) == 5
        assert sharded.get(kept_key) == 6
        assert sharded.put(moved_key, 50) == "committed"
        sharded.settle()
        # The source shard tombstoned the range and dropped the data.
        source = sharded.shard_groups["s1"]
        for machine in source.machines():
            assert moved_key not in machine.data
            assert machine.moved

    def test_timeout_abort_reaches_a_shard_a_split_spawned(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=12,
                                 partitioning="range", key_space=32)
        kept, moved = sharded.key(3), sharded.key(28)
        sharded.put(kept, 5)
        split = sharded.split_shard("s1")
        assert sharded.shard_of(moved) == split["new_sid"] == "s2"
        FaultPlan(sharded.cluster).apply([(sharded.now, "crash", "s2/*")])
        txn = sharded.submit((kept, moved), lambda r: {moved: 1})
        sharded.cluster.run_until(lambda: txn.outcome is not None,
                                  until=sharded.now + 2000.0)
        assert txn.outcome == "aborted"
        assert sharded.coordinator.timeout_aborts == 1
        # The abort released the lock the surviving shard granted.
        assert sharded.put(kept, 6) == "committed"

    def test_split_refused_for_hash_partitioning(self):
        sharded = ShardedCluster(n_shards=2, replicas=3, seed=13)
        with pytest.raises(ValueError):
            sharded.split_shard("s0", at=sharded.key(1))


class TestStats:
    def test_stats_are_deterministic(self):
        def run(seed):
            sharded = ShardedCluster(n_shards=2, replicas=3, seed=seed)
            sharded.run_workload(txns=8, cross_ratio=0.5)
            return sharded.stats()

        assert run(14) == run(14)
        stats = run(14)
        assert stats["commits"] == 8
        assert stats["shards"] == 2
        assert set(stats["per_shard"]) == {"s0", "s1"}
