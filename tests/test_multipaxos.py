"""Tests for Multi-Paxos: the replicated log, the phase-1 amortisation,
leader failover, and client semantics."""

import pytest

from repro.core import Node
from repro.core.ballot import Ballot
from repro.load import engine
from repro.load.engine import LoadSpec, run_loadtest
from repro.protocols.multipaxos import (
    ClientRequest,
    Heartbeat,
    LogCommand,
    MPAccept,
    MPCatchUpReply,
    MPPrepareAck,
    MultiPaxosReplica,
    MultiPaxosResult,
    run_multipaxos,
)
from repro.smr import KVStateMachine, check_log_consistency


class TestNormalOperation:
    def test_clients_complete_and_logs_agree(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=2,
                                commands_per_client=5)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()

    def test_log_is_gap_free_and_ordered(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=6)
        log = result.replicas[0].committed_log()
        indices = [index for index, _ in log]
        assert indices == list(range(len(indices)))

    def test_state_machines_apply_in_log_order(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=4)
        cluster.sim.run_for(30.0)  # commits drain to followers
        leader_history = None
        for replica in result.replicas:
            history = replica.state_machine.history
            if leader_history is None or len(history) > len(leader_history):
                leader_history = history
        # Every replica's history is a prefix of the longest one.
        for replica in result.replicas:
            history = replica.state_machine.history
            assert history == leader_history[: len(history)]

    def test_client_results_are_log_positions(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=5)
        assert result.clients[0].results == [0, 1, 2, 3, 4]

    def test_five_replicas(self, make_cluster):
        result = run_multipaxos(make_cluster(seed=4), n_replicas=5,
                                n_clients=2, commands_per_client=4)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()


class TestPhaseOneAmortisation:
    """The slides' optimisation: phase 1 only on leader change."""

    def test_single_prepare_for_many_commands(self, cluster):
        run_multipaxos(cluster, n_replicas=3, n_clients=1,
                       commands_per_client=10)
        by_type = cluster.metrics.by_type
        # One bootstrap election: n-1 prepare messages, regardless of the
        # number of commands.
        assert by_type["mpprepare"] == 2
        assert by_type["mpaccept"] >= 10 * 2

    def test_steady_state_cost_per_command(self, make_cluster):
        # Marginal cost of extra commands excludes any phase-1 traffic.
        costs = {}
        for k in (5, 15):
            cluster = make_cluster(seed=2)
            run_multipaxos(cluster, n_replicas=3, n_clients=1,
                           commands_per_client=k)
            costs[k] = cluster.metrics.by_type["mpprepare"]
        assert costs[5] == costs[15]  # prepares don't scale with commands


class TestLeaderFailover:
    def test_view_change_after_leader_crash(self, make_cluster):
        result = run_multipaxos(make_cluster(seed=9), n_replicas=5,
                                n_clients=1, commands_per_client=8,
                                crash_leader_at=6.0)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        views = sum(r.view_changes for r in result.replicas)
        assert views >= 2  # bootstrap + at least one takeover

    def test_no_committed_entry_lost_on_failover(self, make_cluster):
        for seed in (3, 11, 27):
            result = run_multipaxos(make_cluster(seed=seed), n_replicas=3,
                                    n_clients=1, commands_per_client=6,
                                    crash_leader_at=8.0)
            assert all(c.done for c in result.clients), seed
            assert check_log_consistency(result.committed_logs()), seed

    def test_crashed_replica_rejoin_consistency(self, make_cluster):
        cluster = make_cluster(seed=5)
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=4, crash_leader_at=5.0)
        crashed = [r for r in result.replicas if r.crashed][0]
        crashed.restart()
        cluster.sim.run_for(60.0)
        assert result.logs_consistent()


class TestCustomStateMachine:
    def test_kv_state_machine_plugs_in(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=0,
                                state_machine_factory=KVStateMachine)
        # Inject commands manually via a fresh client-less check: just
        # assert wiring produced KV machines.
        assert all(isinstance(r.state_machine, KVStateMachine)
                   for r in result.replicas)


class TestDeposedLeader:
    def test_deposed_leader_cannot_overwrite_committed_slot(self, cluster):
        """Partition-heal: the old leader hears the new leader's MPAccept
        before any heartbeat.  Adopting that ballot must depose it — else
        it proposes its stale next_index under the new leader's ballot
        and the followers overwrite a slot they already applied."""
        names = ["r0", "r1", "r2"]
        replicas = cluster.add_nodes(MultiPaxosReplica, names, names)
        old, others = replicas[0], replicas[1:]
        client = cluster.add_node(Node, "c")  # replies go unread
        cluster.start_all()

        def submit(replica, request_id):
            client.send(replica.name, ClientRequest("op-" + request_id,
                                                    request_id))

        def everywhere(request_id, group):
            return lambda: all(request_id in r._applied_requests
                               for r in group)

        cluster.run_until(lambda: old.is_leader, until=50.0)
        submit(old, "a")
        cluster.run_until(everywhere("a", replicas), until=100.0)

        cluster.network.partitions.split(["r0"], ["r1", "r2", "c"])
        cluster.run_until(lambda: any(r.is_leader for r in others),
                          until=200.0)
        new = next(r for r in others if r.is_leader)
        submit(new, "b")
        cluster.run_until(everywhere("b", others), until=300.0)
        assert old.is_leader and "b" not in old._applied_requests

        # Heal, but let only phase-2 traffic through to the old leader.
        cluster.network.add_interceptor(
            lambda src, dst, msg: not (
                dst == "r0" and msg.mtype in ("heartbeat", "mpcatchupreply")))
        cluster.network.partitions.heal()
        submit(new, "c")
        cluster.run_until(lambda: old.ballot_num == new.ballot_num,
                          until=400.0)
        assert not old.is_leader
        submit(old, "stale")
        cluster.sim.run_for(30.0)

        assert not any("stale" in r._applied_requests for r in replicas)
        result = MultiPaxosResult(replicas, [client], 0, cluster.now)
        assert result.logs_consistent()
        histories = [r.state_machine.history for r in others]
        assert histories[0] == histories[1] == ["op-a", "op-b", "op-c"]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_healed_leader_takes_the_majoritys_slot_not_its_own(
            self, make_cluster, seed):
        """r0 proposes ``stale`` while cut off; the majority commits ``b``
        at the same index.  After the heal the leader's applied prefix
        covers that index, but r0 holds it at its old ballot: it must not
        commit ``stale``, and catch-up brings it ``b``."""
        cluster = make_cluster(seed=seed)
        names = ["r0", "r1", "r2"]
        replicas = cluster.add_nodes(MultiPaxosReplica, names, names)
        old, others = replicas[0], replicas[1:]
        near, far = cluster.add_nodes(Node, ["c0", "c1"])  # replies unread
        cluster.start_all()

        def submit(client, replica, request_id):
            client.send(replica.name, ClientRequest("op-" + request_id,
                                                    request_id))

        def everywhere(request_id, group):
            return lambda: all(request_id in r._applied_requests
                               for r in group)

        cluster.run_until(lambda: old.is_leader, until=50.0)
        submit(far, old, "a")
        cluster.run_until(everywhere("a", replicas), until=100.0)

        cluster.network.partitions.split(["r0", "c0"], ["r1", "r2", "c1"])
        submit(near, old, "stale")
        cluster.run_until(lambda: any(r.is_leader for r in others),
                          until=200.0)
        new = next(r for r in others if r.is_leader)
        submit(far, new, "b")
        cluster.run_until(everywhere("b", others), until=300.0)
        assert old.log[1].value.request_id == "stale"

        cluster.network.partitions.heal()
        cluster.sim.run_for(50.0)

        assert [r.state_machine.history for r in replicas] == \
            [["op-a", "op-b"]] * 3
        result = MultiPaxosResult(replicas, [near, far], 0, cluster.now)
        assert result.logs_consistent()

    @pytest.mark.parametrize("learned_by", ["applied prefix", "catch-up"])
    def test_a_resent_accept_never_uncommits_a_slot(self, cluster,
                                                    learned_by):
        names = ["r0", "r1", "r2"]
        follower = cluster.add_nodes(MultiPaxosReplica, names, names)[1]
        ballot = Ballot(1, "r0")
        value = LogCommand("op-a", "a")
        accept = MPAccept(ballot, 0, (value,), -1)
        if learned_by == "catch-up":
            follower.handle_mpcatchupreply(
                MPCatchUpReply(ballot, ((0, ballot, value),)), "r0")
        else:
            follower.handle_mpaccept(accept, "r0")
            follower.handle_heartbeat(Heartbeat(ballot, 0), "r0")
        assert follower.committed_log() == [(0, value)]
        # The leader lost the ack and sends the slot's accept again.
        follower.handle_mpaccept(accept, "r0")
        assert follower.committed_log() == [(0, value)]
        assert follower.state_machine.history == ["op-a"]

    def test_superseded_candidate_does_not_take_over(self, cluster):
        """A late phase-1 ack for a ballot we abandoned must not make us
        leader under the ballot of the replica that superseded it."""
        names = ["r0", "r1", "r2"]
        candidate = cluster.add_nodes(MultiPaxosReplica, names, names)[1]
        candidate._start_prepare()
        own = candidate.ballot_num
        candidate.handle_heartbeat(Heartbeat(own.successor("r2"), -1), "r2")
        candidate.handle_mpprepareack(MPPrepareAck(own, (), -1), "r0")
        assert not candidate.is_leader
        assert candidate.ballot_num.pid == "r2"


def _losing_the_acks_of(cluster, lost, requests):
    """Three replicas whose leader is handed ``requests`` new requests,
    one per vt, and loses the first ``MPAccepted`` of slot ``lost`` from
    each follower.  Returns the replicas and the leader."""
    names = ["r0", "r1", "r2"]
    replicas = cluster.add_nodes(MultiPaxosReplica, names, names)
    cluster.add_node(Node, "c0")  # replies unread
    cluster.start_all()
    cluster.run_until(lambda: replicas[0].is_leader, until=50.0)
    leader = replicas[0]
    dropped = set()

    def drop(src, dst, msg):
        if msg.mtype == "mpaccepted" and msg.index == lost and \
                src not in dropped:
            dropped.add(src)
            return False
        return True

    cluster.network.add_interceptor(drop)
    for i in range(requests):
        cluster.sim.schedule(1.0 + i, leader.deliver,
                             ClientRequest("op-%d" % i, "q%d" % i), "c0")
    return replicas, leader


class TestRepair:
    """The leader re-sends a slot's accept once its acks look lost."""

    def test_a_slot_a_later_one_overtook_is_resent_under_load(self,
                                                              cluster):
        # Acks for later slots keep coming, so only "a later slot
        # already committed" can tell that slot 3's acks were lost.
        _, leader = _losing_the_acks_of(cluster, lost=3, requests=40)
        cluster.sim.run_for(25.0)
        assert leader._acked_at > cluster.now - 2.0  # acks still flow
        assert leader.last_applied >= 15

    def test_the_last_slot_is_resent_once_acks_stop(self, cluster):
        replicas, _ = _losing_the_acks_of(cluster, lost=2, requests=3)
        cluster.sim.run_for(30.0)
        assert [r.state_machine.history for r in replicas] == \
            [["op-0", "op-1", "op-2"]] * 3

    def test_a_run_of_lost_slots_is_resent_in_one_accept(self, cluster):
        names = ["r0", "r1", "r2"]
        replicas = cluster.add_nodes(MultiPaxosReplica, names, names)
        cluster.add_node(Node, "c0")  # replies unread
        cluster.start_all()
        cluster.run_until(lambda: replicas[0].is_leader, until=50.0)
        leader = replicas[0]
        first = leader.next_index
        accepts = []

        def lose_acks(src, dst, msg):
            if msg.mtype == "mpaccept":
                accepts.append((dst, msg.index, len(msg.values)))
            return msg.mtype != "mpaccepted"

        cluster.network.add_interceptor(lose_acks)
        for i in range(5):  # five slots, one accept each
            leader.deliver(ClientRequest("op-%d" % i, "q%d" % i), "c0")
        cluster.run_until(lambda: len(accepts) > 10, until=cluster.now + 30.0)
        assert accepts[:10] == [(peer, first + i, 1) for i in range(5)
                                for peer in ("r1", "r2")]
        assert accepts[10:] == [("r1", first, 5), ("r2", first, 5)]
        cluster.network.remove_interceptor(lose_acks)
        cluster.sim.run_for(30.0)
        assert [r.state_machine.history for r in replicas] == \
            [["op-%d" % i for i in range(5)]] * 3


class TestNoRepairWithoutFaults:
    @pytest.mark.parametrize("rate", [4.0, 12.0, 16.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_drained_open_loop_run_sends_no_repair(self, monkeypatch,
                                                     rate, seed):
        """Unbatched (4 req/vt) and batched (12 and 16), with nothing
        lost: no follower asks for catch-up and the leader sends each
        slot to each follower once, whatever runs its accepts carry."""
        clusters = []
        slots = []
        fleet = engine._core_fleet

        def count_slots(src, dst, msg):
            if msg.mtype == "mpaccept":
                slots.append(len(msg.values))

        def keep(cluster, spec, accountant):
            clusters.append(cluster)
            cluster.network.add_interceptor(count_slots)
            return fleet(cluster, spec, accountant)

        monkeypatch.setattr(engine, "_core_fleet", keep)
        report = run_loadtest(LoadSpec(protocol="multi-paxos", rate=rate,
                                       duration=60.0, seed=seed))
        accounting = report["accounting"]
        assert accounting["completed"] == accounting["offered"] > 200
        (cluster,) = clusters
        replicas = [n for n in cluster.nodes
                    if isinstance(n, MultiPaxosReplica)]
        (leader,) = [r for r in replicas if r.is_leader]
        by_type = cluster.metrics.by_type
        assert by_type["mpcatchup"] == by_type["mpcatchupreply"] == 0
        assert len(slots) == by_type["mpaccept"]
        assert sum(slots) == (len(replicas) - 1) * leader.next_index
