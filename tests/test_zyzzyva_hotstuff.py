"""Tests for the optimistic/linear BFT protocols: Zyzzyva and HotStuff."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.net import SynchronousModel
from repro.protocols.hotstuff import (
    ChainedHotStuffReplica,
    run_basic_hotstuff,
    run_chained_hotstuff,
)
from repro.protocols.zyzzyva import ZyzzyvaReplica, run_zyzzyva


class TestZyzzyvaCase1:
    def test_all_healthy_completes_fast(self, cluster):
        result = run_zyzzyva(cluster, f=1, operations=4)
        ones, twos = result.case_counts()
        assert (ones, twos) == (4, 0)
        assert result.logs_consistent()

    def test_case1_single_phase_latency(self, make_cluster):
        cluster = make_cluster(seed=1, delivery=SynchronousModel(1.0))
        result = run_zyzzyva(cluster, f=1, operations=2)
        # request (1) + order (1) + spec-reply (1) = 3 one-way delays.
        assert result.clients[0].latencies[0] == pytest.approx(3.0)

    def test_speculative_faster_than_pbft(self, make_cluster):
        from repro.protocols.pbft import run_pbft
        zc = make_cluster(seed=1, delivery=SynchronousModel(1.0))
        zyz = run_zyzzyva(zc, f=1, operations=2)
        pc = make_cluster(seed=1, delivery=SynchronousModel(1.0))
        pbft = run_pbft(pc, f=1, n_clients=1, operations_per_client=2)
        assert zyz.clients[0].latencies[0] < pbft.clients[0].latencies[0]

    def test_linear_message_complexity(self, make_cluster):
        counts = {}
        for f in (1, 2, 3):
            cluster = make_cluster(seed=2)
            run_zyzzyva(cluster, f=f, operations=2)
            counts[3 * f + 1] = cluster.metrics.messages_total
        assert counts[10] < 4 * counts[4]  # linear-ish


class TestZyzzyvaCase2:
    def test_silent_replica_forces_commit_certificate(self, make_cluster):
        for seed in (2, 5):
            result = run_zyzzyva(make_cluster(seed=seed), f=1, operations=3,
                                 slow_replicas=(3,))
            ones, twos = result.case_counts()
            assert twos == 3 and ones == 0
            assert result.clients[0].done

    def test_case2_slower_than_case1(self, make_cluster):
        fast = run_zyzzyva(make_cluster(seed=1), f=1, operations=2)
        slow = run_zyzzyva(make_cluster(seed=1), f=1, operations=2,
                           slow_replicas=(3,))
        assert min(slow.clients[0].latencies) > max(fast.clients[0].latencies)

    def test_commit_cert_requires_2f_plus_1(self, cluster):
        names = ["r%d" % i for i in range(4)]
        replicas = cluster.add_nodes(ZyzzyvaReplica, names, names, 1)
        from repro.protocols.zyzzyva import CommitCert
        replica = replicas[1]
        replica.handle_commitcert(CommitCert(0, 5, "h", ("r0", "r1")), "r0")
        assert replica.max_cc_seq == -1  # 2 < 2f+1: rejected
        replica.handle_commitcert(CommitCert(0, 5, "h", ("r0", "r1", "r2")),
                                  "r0")
        assert replica.max_cc_seq == 5

    def test_configuration_bound(self, cluster):
        with pytest.raises(ConfigurationError):
            ZyzzyvaReplica(cluster.sim, cluster.network, "r0",
                           ["r0", "r1"], 1)


class TestBasicHotStuff:
    def test_seven_exchanges_end_to_end(self, make_cluster):
        cluster = make_cluster(seed=1, delivery=SynchronousModel(1.0))
        result = run_basic_hotstuff(cluster, f=1, operations=2)
        client = result.clients[0]
        assert client.done
        # request + (prepare, votes, pre-commit, votes, commit, votes,
        # decide) = 1 + 7 one-way exchanges.
        assert client.latencies[0] == pytest.approx(8.0)
        assert result.logs_consistent()

    def test_qc_phases_marked(self, cluster):
        run_basic_hotstuff(cluster, f=1, operations=1)
        phases = cluster.metrics.phases_for("hotstuff")
        assert phases == ["prepare", "pre-commit", "commit", "decide"]

    def test_linear_complexity_vs_pbft(self, make_cluster):
        hot, pbft = {}, {}
        from repro.protocols.pbft import run_pbft
        for f in (1, 2, 3):
            n = 3 * f + 1
            ch = make_cluster(seed=1)
            run_basic_hotstuff(ch, f=f, operations=2)
            hot[n] = ch.metrics.messages_total / 2
            cp = make_cluster(seed=1)
            run_pbft(cp, f=f, n_clients=1, operations_per_client=2)
            pbft[n] = cp.metrics.messages_total / 2
        # Growth factor from n=4 to n=10: HotStuff ~linear, PBFT ~quadratic.
        assert hot[10] / hot[4] < pbft[10] / pbft[4]

    def test_leader_rotates_per_commit(self, cluster):
        result = run_basic_hotstuff(cluster, f=1, operations=3)
        views = {r.view for r in result.replicas}
        assert max(views) >= 3  # one rotation per decided command


class TestChainedHotStuff:
    def test_pipeline_decides_all_commands(self, make_cluster):
        result = run_chained_hotstuff(make_cluster(seed=2), f=1, commands=8)
        for replica in result.replicas:
            assert [c for c in replica.decided if c.startswith("cmd")] == \
                ["cmd-%d" % i for i in range(8)]

    def test_one_block_per_view_at_steady_state(self, make_cluster):
        result = run_chained_hotstuff(make_cluster(seed=2), f=1, commands=12)
        replica = result.replicas[0]
        # Views consumed ≈ commands + pipeline depth (3) + bootstrap.
        assert replica.view <= 12 + 6

    def test_prefix_consistency(self, make_cluster):
        for seed in (2, 9):
            result = run_chained_hotstuff(make_cluster(seed=seed), f=1,
                                          commands=6)
            assert result.logs_consistent(), seed

    def test_crashed_leader_recovered_by_pacemaker(self, make_cluster):
        for seed in (3, 13):
            cluster = make_cluster(seed=seed)
            FaultPlan(cluster).crash_at(4.0, "leader")
            result = run_chained_hotstuff(cluster, f=1, commands=5)
            live = [r for r in result.replicas if not r.crashed]
            for replica in live:
                decided_cmds = {c for c in replica.decided
                                if c.startswith("cmd")}
                assert decided_cmds == {"cmd-%d" % i for i in range(5)}, seed
            assert result.logs_consistent(), seed

    def test_safety_rule_rejects_stale_fork(self, cluster):
        from repro.crypto import ThresholdScheme
        names = ["r%d" % i for i in range(4)]
        scheme = ThresholdScheme(3, names)
        replicas = cluster.add_nodes(
            ChainedHotStuffReplica, names, names, 1, scheme, ["c1"]
        )
        replica = replicas[0]
        replica.view = 10
        from repro.protocols.hotstuff import Block, Proposal
        stale = Block(3, "nonexistent", "evil", 2, None)
        replica.handle_proposal(Proposal(stale), replica.primary_of(3))
        assert stale.hash not in replica.blocks  # view too old: dropped
