"""Tests for PBFT: the three phases, quorum arithmetic, Byzantine
primaries, view change, and garbage collection."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.protocols.pbft import (
    Checkpoint,
    EquivocatingPrimary,
    PbftCommit,
    PbftPrepare,
    PbftReplica,
    SilentPrimary,
    ViewChange,
    run_pbft,
)
from repro.trace import (
    assert_quorum_before_decide,
    assert_unique_leader_per_view,
)


class TestConfiguration:
    def test_rejects_too_few_replicas(self, cluster):
        with pytest.raises(ConfigurationError):
            PbftReplica(cluster.sim, cluster.network, "r0",
                        ["r0", "r1", "r2"], f=1)

    def test_quorum_is_2f_plus_1(self, cluster):
        names = ["r%d" % i for i in range(7)]
        replica = PbftReplica(cluster.sim, cluster.network, "r0", names, f=2)
        assert replica.quorums.q2 == 5

    def test_votes_from_non_replicas_are_dropped(self, cluster):
        names = ["r%d" % i for i in range(4)]
        replica = PbftReplica(cluster.sim, cluster.network, "r3", names, f=1)
        replica.handle_pbftprepare(PbftPrepare(0, 0, "d"), "mallory")
        replica.handle_pbftcommit(PbftCommit(0, 0, "d"), "mallory")
        replica.handle_checkpoint(Checkpoint(15, "d"), "mallory")
        replica.handle_viewchange(ViewChange(1, -1, ()), "mallory")
        slot = replica.slots.get(0)
        assert slot is None or not (slot.prepares or slot.commits)
        assert not replica._checkpoint_votes
        assert not replica._view_changes
        # A replica's vote still counts.
        replica.handle_pbftprepare(PbftPrepare(0, 0, "d"), "r2")
        replica.handle_pbftcommit(PbftCommit(0, 0, "d"), "r2")
        assert replica.slots[0].prepares == replica.slots[0].commits == {"r2"}


class TestNormalCase:
    def test_clients_complete_logs_consistent(self, make_cluster):
        cluster = make_cluster(trace=True)
        result = run_pbft(cluster, f=1, n_clients=2, operations_per_client=4)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        # Causal invariant: every execute milestone must be causally
        # preceded by commit messages for that sequence number from 2f
        # distinct peers (the replica's own commit never hits the wire).
        assert_quorum_before_decide(cluster.trace, "execute", "pbftcommit",
                                    quorum=2, link_keys=("seq",))

    def test_three_phase_message_types_present(self, cluster):
        run_pbft(cluster, f=1, n_clients=1, operations_per_client=2)
        by_type = cluster.metrics.by_type
        assert by_type["preprepare"] > 0
        assert by_type["pbftprepare"] > 0
        assert by_type["pbftcommit"] > 0

    def test_quadratic_message_complexity(self, make_cluster):
        counts = {}
        for f in (1, 2, 3):
            cluster = make_cluster(seed=1)
            run_pbft(cluster, f=f, n_clients=1, operations_per_client=2)
            n = 3 * f + 1
            counts[n] = cluster.metrics.by_type["pbftprepare"] + \
                cluster.metrics.by_type["pbftcommit"]
        # prepare+commit grow ~n² (each replica broadcasts to n−1 others).
        assert counts[10] > 4 * counts[4]

    def test_f2_cluster(self, make_cluster):
        result = run_pbft(make_cluster(seed=5), f=2, n_clients=1,
                          operations_per_client=3)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()

    def test_execution_strictly_in_sequence_order(self, cluster):
        result = run_pbft(cluster, f=1, n_clients=2, operations_per_client=3)
        for replica in result.honest_replicas():
            seqs = [seq for seq, _op in replica.executed_requests]
            assert seqs == sorted(seqs)


class TestCrashedPrimary:
    def test_view_change_restores_liveness(self, make_cluster):
        for seed in (2, 6):
            cluster = make_cluster(seed=seed, trace=True)
            FaultPlan(cluster).crash_at(5.0, "r0")
            result = run_pbft(cluster, f=1, n_clients=1,
                              operations_per_client=3)
            assert all(c.done for c in result.clients), seed
            assert result.logs_consistent(), seed
            live_views = [r.view for r in result.replicas if not r.crashed]
            assert all(v >= 1 for v in live_views)
            # Across the whole run, at most one replica ever became
            # primary for any given view.
            assert_unique_leader_per_view(cluster.trace, "view")

    def test_committed_requests_survive_view_change(self, make_cluster):
        # The prepared-certificate transfer: nothing executed before the
        # crash may be reassigned a different request.
        for seed in range(2, 10):
            cluster = make_cluster(seed=seed)
            FaultPlan(cluster).crash_at(5.0, "r0")
            result = run_pbft(cluster, f=1, n_clients=1,
                              operations_per_client=3)
            assert result.logs_consistent(), seed

    def test_closed_loop_client_follows_the_view(self, make_cluster):
        # After the view change the client sends to the new primary;
        # one that kept asking the dead one would wait out the 30 vt
        # retransmit timer on every later request (143.5 vt in all).
        cluster = make_cluster(seed=0)
        FaultPlan(cluster).crash_at(12.0, "r0")
        result = run_pbft(cluster, f=1, n_clients=1,
                          operations_per_client=6)
        client = result.clients[0]
        assert client.done and result.logs_consistent()
        assert client.target == "r1"
        assert max(client.latencies[4:]) < 10.0
        assert result.duration <= 90.0


class TestByzantinePrimaries:
    def test_silent_primary_triggers_view_change(self, make_cluster):
        result = run_pbft(make_cluster(seed=3), f=1, n_clients=1,
                          operations_per_client=2,
                          primary_class=SilentPrimary)
        assert all(c.done for c in result.clients)
        backups = result.replicas[1:]
        assert all(r.view >= 1 for r in backups)

    def test_equivocating_primary_cannot_split_execution(self, make_cluster):
        """The attack PBFT's prepare phase exists for: same sequence
        number, different requests.  No two honest replicas may execute
        different operations at one sequence number."""
        for seed in (4, 5, 6):
            result = run_pbft(make_cluster(seed=seed), f=1, n_clients=1,
                              operations_per_client=2,
                              primary_class=EquivocatingPrimary)
            assert result.logs_consistent(), seed
            assert all(c.done for c in result.clients), seed

    def test_client_needs_f_plus_1_matching_replies(self, cluster):
        result = run_pbft(cluster, f=1, n_clients=1, operations_per_client=1)
        client = result.clients[0]
        assert client.f + 1 == 2
        assert client.done


class TestGarbageCollection:
    def test_checkpointing_truncates_log(self, make_cluster):
        result = run_pbft(make_cluster(seed=6), f=1, n_clients=1,
                          operations_per_client=20, checkpoint_interval=4)
        assert all(c.done for c in result.clients)
        stable = [r.last_stable_seq for r in result.replicas]
        assert max(stable) >= 15
        # Slots at or below the stable checkpoint were discarded.
        for replica in result.replicas:
            assert all(seq > replica.last_stable_seq for seq in replica.slots)

    def test_checkpoint_needs_quorum_of_matching_digests(self, cluster):
        names = ["r%d" % i for i in range(4)]
        replicas = cluster.add_nodes(PbftReplica, names, names, 1)
        replica = replicas[0]
        replica._record_checkpoint_vote(3, "digest-a", "r1")
        replica._record_checkpoint_vote(3, "digest-b", "r2")
        replica._record_checkpoint_vote(3, "digest-a", "r3")
        assert replica.last_stable_seq == -1  # only 2 matching, need 3
        replica._record_checkpoint_vote(3, "digest-a", "r0")
        assert replica.last_stable_seq == 3


class TestClientAuthentication:
    """Client signatures: the defence against request fabrication."""

    def test_forging_primary_succeeds_without_auth(self, make_cluster):
        # The vulnerability demo: unauthenticated clusters can be fed
        # fabricated operations by a Byzantine primary.
        from repro.protocols.pbft import ForgingPrimary
        result = run_pbft(make_cluster(seed=4), f=1, n_clients=1,
                          operations_per_client=1,
                          primary_class=ForgingPrimary, horizon=400.0)
        forged = any(
            op == ("forged-op",)
            for replica in result.honest_replicas()
            for _seq, op in replica.executed_requests
        )
        assert forged

    def test_forging_primary_defeated_by_signatures(self, make_cluster):
        from repro.protocols.pbft import ForgingPrimary
        for seed in (4, 7):
            result = run_pbft(make_cluster(seed=seed), f=1, n_clients=1,
                              operations_per_client=1,
                              primary_class=ForgingPrimary,
                              authenticate_clients=True, horizon=800.0)
            forged = any(
                op == ("forged-op",)
                for replica in result.honest_replicas()
                for _seq, op in replica.executed_requests
            )
            assert not forged, seed
            assert result.clients[0].done, seed
            assert result.logs_consistent(), seed

    def test_honest_cluster_with_auth_still_works(self, make_cluster):
        result = run_pbft(make_cluster(seed=1), f=1, n_clients=2,
                          operations_per_client=3,
                          authenticate_clients=True)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()

    def test_unsigned_request_refused_when_auth_on(self, make_cluster):
        from repro.protocols.pbft import PbftRequest
        cluster = make_cluster(seed=1)
        names = ["r%d" % i for i in range(4)]
        replicas = cluster.add_nodes(PbftReplica, names, names, 1,
                                     keys=cluster.keys)
        primary = replicas[0]
        primary.deliver(PbftRequest(("put", "x", 1), 0.0, "mallory"), "r1")
        cluster.run(until=50.0)
        assert primary.next_seq == 0  # nothing was ordered
