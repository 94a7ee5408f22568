"""Chaos tests: longer randomized runs under combined fault schedules.

Each scenario throws several fault types at a protocol at once (crashes,
restarts, partitions, targeted message loss) and asserts the invariants
that must survive *anything*: no two replicas ever conflict on a
committed position, state machines at equal progress are identical, and
— when the fault budget is respected — the workload eventually
completes.
"""

import pytest

from repro.core import Cluster
from repro.faults import FaultPlan
from repro.net import UniformDelayModel
from repro.smr import ReplicatedKV


class TestMultiPaxosChaos:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_crash_restart_partition_storm(self, seed):
        kv = ReplicatedKV(n_replicas=5, protocol="multi-paxos", seed=seed,
                          delivery=UniformDelayModel(0.5, 2.0))
        plan = FaultPlan(kv.cluster)
        names = [r.name for r in kv.replicas]
        # Rolling crashes and restarts of two replicas.
        plan.crash_at(15.0, names[1])
        plan.restart_at(70.0, names[1])
        plan.crash_at(90.0, names[2])
        plan.restart_at(160.0, names[2])
        # A transient partition cutting one replica off.
        plan.partition_at(40.0, [names[3]],
                          [n for n in names if n != names[3]] + ["kvclient"])
        plan.heal_at(65.0)
        # Lossy link for a while.
        plan.drop_messages(
            lambda src, dst, msg: src == names[4] and
            kv.cluster.sim.rng.random() < 0.3,
            between=(100.0, 140.0),
        )
        for i in range(12):
            kv.put("key-%d" % i, i)
        kv.settle(200.0)
        assert kv.get("key-0") == 0
        assert kv.get("key-11") == 11
        assert kv.check_consistency()

    def test_repeated_leader_assassination(self):
        kv = ReplicatedKV(n_replicas=5, protocol="multi-paxos", seed=404)
        killed = []
        for i in range(2):
            kv.put("round-%d" % i, i)
            victim = kv.crash_leader()
            if victim:
                killed.append(victim)
        kv.put("final", "ok")
        assert kv.get("final") == "ok"
        assert len(killed) == 2
        kv.settle(100.0)
        assert kv.check_consistency()


class TestRaftChaos:
    @pytest.mark.parametrize("seed", [17, 71])
    def test_partition_flapping(self, seed):
        kv = ReplicatedKV(n_replicas=5, protocol="raft", seed=seed)
        names = [r.name for r in kv.replicas]
        plan = FaultPlan(kv.cluster)
        # Three partition/heal cycles hitting different replicas.
        for cycle, victim in enumerate(names[:3]):
            start = 20.0 + 60.0 * cycle
            plan.partition_at(start, [victim],
                              [n for n in names if n != victim]
                              + ["kvclient"])
            plan.heal_at(start + 30.0)
        for _ in range(10):
            kv.incr("counter")
        assert kv.get("counter") == 10
        kv.settle(150.0)
        assert kv.check_consistency()

    def test_snapshot_pressure_with_crashes(self):
        from repro.protocols.raft import run_raft
        cluster = Cluster(seed=88, monitors=True)
        cluster.attach_monitors("raft", n=3, f=1)
        FaultPlan(cluster).crash_at(30.0, "leader")
        result = run_raft(cluster, n_nodes=3, n_clients=2,
                          commands_per_client=12, snapshot_threshold=4)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        # The streaming battery agrees: no split brain, no divergent
        # applies, even across the crash and the snapshot transfers.
        cluster.monitors.finish()
        assert cluster.monitors.ok, cluster.monitors.anomalies
        histories = [n.state_machine.history for n in result.nodes]
        longest = max(histories, key=len)
        assert len(longest) == 24
        for history in histories:
            assert history == longest[: len(history)]


class TestPbftChaos:
    @pytest.mark.parametrize("seed", [5, 55])
    def test_crash_plus_lossy_network(self, seed):
        from repro.protocols.pbft import run_pbft
        cluster = Cluster(seed=seed, delivery=UniformDelayModel(0.5, 1.5),
                          monitors=True)
        cluster.attach_monitors("pbft", n=4, f=1)
        plan = FaultPlan(cluster)
        plan.drop_messages(
            lambda src, dst, msg: cluster.sim.rng.random() < 0.05,
            between=(10.0, 60.0),
        )
        plan.crash_at(8.0, "r0")
        result = run_pbft(cluster, f=1, n_clients=1,
                          operations_per_client=5, horizon=5000.0)
        assert result.logs_consistent()
        assert all(c.done for c in result.clients)
        # Crash + loss must not register as safety violations: no
        # divergent executes, no split-view primaries, no equivocation.
        cluster.monitors.finish()
        safety = [a for a in cluster.monitors.anomalies
                  if a.category == "safety"]
        assert not safety, safety

    def test_two_byzantine_one_crashed_at_f2(self):
        from repro.protocols.pbft import run_pbft, SilentPrimary
        cluster = Cluster(seed=9)
        # f=2 budget: primary silent-Byzantine AND one backup crashed.
        result = run_pbft(cluster, f=2, n_clients=1,
                          operations_per_client=3,
                          primary_class=SilentPrimary,
                          horizon=5000.0)
        cluster.sim.schedule(1.0, result.replicas[3].crash)
        cluster.run_until(lambda: all(c.done for c in result.clients),
                          until=5000.0)
        assert result.logs_consistent()


class TestBlockchainChaos:
    def test_partitioned_miners_reorg_on_heal(self):
        from repro.blockchain.miner import Miner
        from repro.crypto import HASH_SPACE
        cluster = Cluster(seed=31, delivery=UniformDelayModel(0.5, 2.0))
        names = ["m0", "m1", "m2", "m3"]
        params = {"initial_target": int(HASH_SPACE / (400.0 * 20.0)),
                  "target_block_time": 20.0, "pow_check": False}
        miners = [cluster.add_node(Miner, n, names, 100.0,
                                   chain_params=params) for n in names]
        plan = FaultPlan(cluster)
        # Split 2-2 for a while: both sides mine their own branches.
        plan.partition_at(100.0, names[:2], names[2:])
        plan.heal_at(600.0)
        cluster.start_all()
        cluster.run(until=1500.0)
        for miner in miners:
            miner.hashrate = 0.0
        cluster.run(until=2500.0)
        # After healing, everyone converged on one branch (reorgs happened).
        tips = {m.chain.tip for m in miners}
        assert len(tips) == 1
        assert any(m.chain.reorgs > 0 for m in miners)

    def test_miner_crash_and_restart(self):
        from repro.blockchain.miner import Miner
        from repro.crypto import HASH_SPACE
        cluster = Cluster(seed=32)
        names = ["m0", "m1", "m2"]
        params = {"initial_target": int(HASH_SPACE / (300.0 * 15.0)),
                  "target_block_time": 15.0, "pow_check": False}
        miners = [cluster.add_node(Miner, n, names, 100.0,
                                   chain_params=params) for n in names]
        cluster.sim.schedule(100.0, miners[2].crash)

        def revive():
            miners[2].restart()
            miners[2]._restart_race()
        cluster.sim.schedule(400.0, revive)
        cluster.start_all()
        cluster.run(until=1200.0)
        for miner in miners:
            miner.hashrate = 0.0
        cluster.run(until=2000.0)
        heights = [m.chain.height for m in miners]
        # The restarted miner caught back up with the network.
        assert max(heights) - min(heights) <= 1


class TestDtxnChaos:
    def test_transfers_under_rolling_crashes(self):
        from repro.shard import ShardedCluster
        db = ShardedCluster(n_shards=2, replicas=3, seed=77)
        keys = ["k%d" % i for i in range(6)]
        for key in keys:
            db.put(key, 100)
        total = db.total_of(keys)
        for sid in db.shard_groups:
            db.crash_follower(sid)
        for i in range(5):
            src, dst = keys[i], keys[(i + 1) % len(keys)]
            outcome = db.transfer(src, dst, 10)
            assert outcome == "committed"
        assert db.total_of(keys) == total
        db.settle()
        assert db.check_consistency()
