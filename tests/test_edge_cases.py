"""Targeted edge-case tests for paths the scenario tests pass over."""




class TestFastPaxosRecoveryRule:
    """The collision-recovery value rule: a value reported by >= f+1
    replicas might have been chosen by an unobserved fast quorum and MUST
    be re-proposed."""

    def _leader(self, cluster):
        from repro.protocols.fast_paxos import FastPaxosLeader, FastPaxosReplica
        names = ["r%d" % i for i in range(4)]
        leader = cluster.add_node(FastPaxosLeader, "leader", names, 1)
        cluster.add_nodes(FastPaxosReplica, names, "leader")
        return leader

    def test_possibly_chosen_value_wins_recovery(self, cluster):
        from repro.protocols.fast_paxos import FastAccepted
        leader = self._leader(cluster)
        # 2 votes X (= f+1, possibly chosen), 2 votes Y arriving later
        # can't change that X is the only recoverable candidate once the
        # split is 2-2... feed 2 X then 1 Y then 1 Y: at the 4th vote the
        # collision triggers with counts {X: 2, Y: 2}; X and Y are both
        # f+1 candidates, so the count tie-break picks deterministically.
        for src, value in (("r0", "X"), ("r1", "X"), ("r2", "Y"), ("r3", "Y")):
            leader.handle_fastaccepted(FastAccepted(1, value), src)
        assert leader.collision
        cluster.run(until=50.0)
        assert leader.decided in ("X", "Y")

    def test_majority_reported_value_is_the_proposal(self, cluster):
        from repro.protocols.fast_paxos import FastAccepted
        leader = self._leader(cluster)
        # 3 votes X = fast quorum: decided without any collision.
        for src in ("r0", "r1", "r2"):
            leader.handle_fastaccepted(FastAccepted(1, "X"), src)
        assert leader.decided == "X" and not leader.collision

    def test_stale_round_votes_ignored(self, cluster):
        from repro.protocols.fast_paxos import FastAccepted
        leader = self._leader(cluster)
        leader.handle_fastaccepted(FastAccepted(99, "stale"), "r0")
        assert not leader.fast_votes


class TestHotStuffChainWalk:
    def test_extends_handles_unknown_parent(self, cluster):
        from repro.crypto import ThresholdScheme
        from repro.protocols.hotstuff import Block, ChainedHotStuffReplica
        names = ["r%d" % i for i in range(4)]
        scheme = ThresholdScheme(3, names)
        replicas = cluster.add_nodes(ChainedHotStuffReplica, names, names,
                                     1, scheme, ["c"])
        replica = replicas[0]
        orphan = Block(5, "missing-parent", "cmd", 4, None)
        assert not replica._extends(orphan, "anything")

    def test_vote_quorum_is_exact(self, cluster):
        from repro.crypto import ThresholdScheme
        from repro.protocols.hotstuff import (ChainedHotStuffReplica, GENESIS,
                                              GenericVote)
        names = ["r%d" % i for i in range(4)]
        scheme = ThresholdScheme(3, names)
        replicas = cluster.add_nodes(ChainedHotStuffReplica, names, names,
                                     1, scheme, ["c"])
        collector = replicas[2]  # leader of view 2 collects view-1 votes
        for voter in names[:2]:
            vote = GenericVote(1, GENESIS.hash,
                               scheme.sign_share(voter, 1, GENESIS.hash))
            collector.handle_genericvote(vote, voter)
        assert collector.high_qc[0] == 0  # 2 < 2f+1: no QC yet
        vote = GenericVote(1, GENESIS.hash,
                           scheme.sign_share(names[2], 1, GENESIS.hash))
        collector.handle_genericvote(vote, names[2])
        assert collector.high_qc[0] == 1  # QC formed at exactly 2f+1


class TestHotStuffDuplicateVotes:
    """A replayed vote is not a second voter: it neither raises out of
    ``combine`` nor keeps the quorum from ever being seen."""

    @staticmethod
    def _count_combines(scheme, monkeypatch):
        combined = []
        combine = scheme.combine

        def counting(partials, *values):
            qc = combine(partials, *values)
            combined.append(values)
            return qc

        monkeypatch.setattr(scheme, "combine", counting)
        return combined

    def test_chained_qc_forms_once_despite_a_replayed_vote(self, cluster,
                                                           monkeypatch):
        from repro.crypto import ThresholdScheme
        from repro.protocols.hotstuff import (ChainedHotStuffReplica, GENESIS,
                                              GenericVote)
        names = ["r%d" % i for i in range(4)]
        scheme = ThresholdScheme(3, names)
        replicas = cluster.add_nodes(ChainedHotStuffReplica, names, names,
                                     1, scheme, ["c"])
        combined = self._count_combines(scheme, monkeypatch)
        collector = replicas[2]  # leader of view 2 collects view-1 votes

        def vote(voter):
            partial = scheme.sign_share(voter, 1, GENESIS.hash)
            collector.handle_genericvote(
                GenericVote(1, GENESIS.hash, partial), voter)

        vote("r0")
        vote("r0")
        vote("r1")
        assert collector.high_qc[0] == 0  # two distinct signers so far
        vote("r3")
        assert collector.high_qc[0] == 1
        vote("r2")
        vote("r1")
        assert combined == [(1, GENESIS.hash)]
        assert collector.high_qc[2].signers == {"r0", "r1", "r3"}

    def test_basic_qc_forms_once_despite_a_replayed_vote(self, cluster,
                                                         monkeypatch):
        from repro.crypto import ThresholdScheme
        from repro.protocols.hotstuff import (BasicHotStuffReplica, HsRequest,
                                              HsVote)
        names = ["r%d" % i for i in range(4)]
        scheme = ThresholdScheme(3, names)
        replicas = cluster.add_nodes(BasicHotStuffReplica, names, names,
                                     1, scheme)
        combined = self._count_combines(scheme, monkeypatch)
        leader = replicas[0]
        leader.handle_hsrequest(HsRequest("op", "c0"), "c0")  # votes itself
        node_hash = leader._current[0]

        def vote(voter):
            partial = scheme.sign_share(voter, 0, "prepare", node_hash)
            leader.handle_hsvote(HsVote(0, "prepare", node_hash, partial),
                                 voter)

        vote("r0")  # the leader's own vote, replayed
        vote("r1")
        assert leader._phase_index == 0 and combined == []
        vote("r2")
        assert leader._phase_index == 1
        vote("r1")
        vote("r3")
        assert leader._phase_index == 1
        assert combined == [(0, "prepare", node_hash)]


class TestSeeMoReFaults:
    def test_mode1_tolerates_public_crash(self, make_cluster):
        from repro.protocols.seemore import run_seemore
        cluster = make_cluster(seed=9)
        result = run_seemore(cluster, mode=1, m=1, c=1, operations=2)
        assert result.clients[0].done  # baseline sanity

    def test_mode2_tolerates_m_byzantine_silent_proxies(self, make_cluster):
        from repro.faults import FaultPlan
        from repro.protocols.seemore import run_seemore
        cluster = make_cluster(seed=10)
        # One of 3m+1=4 proxies silent.
        FaultPlan(cluster).apply([(0.0, "drop", "pub0")])
        result = run_seemore(cluster, mode=2, m=1, c=1, operations=2)
        assert result.clients[0].done
        assert result.logs_consistent()


class TestUsigEdgeCases:
    def test_gap_buffer_drains_in_order(self, cluster):
        from repro.core import Node
        from repro.protocols.minbft import MinBftReplica, MinPrepare, MinRequest
        names = ["r0", "r1", "r2"]
        replicas = cluster.add_nodes(MinBftReplica, names, names, 1,
                                     cluster.usig_authority)
        cluster.add_node(Node, "cX")  # reply sink
        primary, backup = replicas[0], replicas[1]
        requests = [MinRequest("op-%d" % i, float(i), "cX") for i in range(3)]
        uis = [primary.usig.create_ui("prepare", 0, r.operation, r.client,
                                      r.timestamp) for r in requests]
        # Deliver out of order: 3, 1, 2 — all must land, in counter order.
        for index in (2, 0, 1):
            backup.handle_minprepare(MinPrepare(0, requests[index],
                                                uis[index]), "r0")
        assert sorted(backup._pending) == [1, 2, 3]

    def test_forged_ui_never_accepted(self, cluster):
        from repro.crypto import UI
        from repro.protocols.minbft import MinBftReplica, MinPrepare, MinRequest
        names = ["r0", "r1", "r2"]
        replicas = cluster.add_nodes(MinBftReplica, names, names, 1,
                                     cluster.usig_authority)
        backup = replicas[1]
        request = MinRequest("evil", 0.0, "cX")
        forged = UI("r0", 1, b"not-a-real-certificate")
        backup.handle_minprepare(MinPrepare(0, request, forged), "r0")
        assert not backup._pending


class TestCheapBftEdgeCases:
    def test_passive_ignores_updates_from_non_primary(self, cluster):
        from repro.protocols.cheapbft import CheapBftReplica, StateUpdate
        names = ["r0", "r1", "r2"]
        replicas = cluster.add_nodes(CheapBftReplica, names, names, 1,
                                     cluster.usig_authority, names[:2])
        passive = replicas[2]
        passive.handle_stateupdate(StateUpdate(1, "sneaky"), "r1")  # not primary
        assert passive.executed == []

    def test_switch_is_idempotent(self, cluster):
        from repro.protocols.cheapbft import CheapBftReplica, SwitchInfo
        names = ["r0", "r1", "r2"]
        replicas = cluster.add_nodes(CheapBftReplica, names, names, 1,
                                     cluster.usig_authority, names[:2])
        replica = replicas[0]
        replica._switch_info = {"r0": SwitchInfo(0, ()),
                                "r1": SwitchInfo(0, ())}
        replica._switch_to_minbft()
        view_after = replica.view
        replica._switch_to_minbft()  # second call must be a no-op
        assert replica.view == view_after and replica.mode == "minbft"


class TestCommitEdgeCases:
    def test_all_cohorts_vote_no(self, cluster):
        from repro.protocols.commit import TxState, run_commit
        result = run_commit(cluster, protocol="3pc", votes=[False] * 3)
        assert all(s is TxState.ABORTED for s in result.outcomes())

    def test_single_cohort_transaction(self, cluster):
        from repro.protocols.commit import TxState, run_commit
        result = run_commit(cluster, protocol="2pc", n_cohorts=1)
        assert result.outcomes() == [TxState.COMMITTED]


class TestNetworkEdgeCases:
    def test_send_to_self_is_allowed(self, cluster):
        from dataclasses import dataclass
        from repro.core import Node
        from repro.net import Message

        @dataclass(frozen=True)
        class Loop(Message):
            pass

        class Echo(Node):
            def __init__(self, sim, network, name):
                super().__init__(sim, network, name)
                self.count = 0

            def handle_loop(self, msg, src):
                self.count += 1

        node = cluster.add_node(Echo, "solo")
        cluster.sim.call_soon(lambda: node.send("solo", Loop()))
        cluster.run()
        assert node.count == 1

    def test_broadcast_include_self(self, cluster):
        from dataclasses import dataclass
        from repro.core import Node
        from repro.net import Message

        @dataclass(frozen=True)
        class Ping(Message):
            pass

        class Counter(Node):
            def __init__(self, sim, network, name):
                super().__init__(sim, network, name)
                self.count = 0

            def handle_ping(self, msg, src):
                self.count += 1

        nodes = [cluster.add_node(Counter, "n%d" % i) for i in range(3)]
        cluster.sim.call_soon(
            lambda: nodes[0].broadcast(Ping(), include_self=True))
        cluster.run()
        assert [n.count for n in nodes] == [1, 1, 1]


class TestSoak:
    """Bounded soak: hundreds of commands through repeated fault cycles."""

    def test_multipaxos_200_commands_with_fault_cycles(self):
        from repro.smr import ReplicatedKV
        kv = ReplicatedKV(n_replicas=3, protocol="multi-paxos", seed=999,
                          op_timeout=4000.0)
        for i in range(200):
            kv.incr("total")
            if i % 50 == 25:
                victim = (i // 50) % 3
                kv.crash_replica(victim)
            if i % 50 == 45:
                victim = (i // 50) % 3
                kv.restart_replica(victim)
        assert kv.get("total") == 200
        kv.settle(200.0)
        assert kv.check_consistency()


class TestSmallApis:
    """Coverage for utility APIs not touched by the scenario tests."""

    def test_cancel_timers(self, cluster):
        from repro.core import Node
        node = cluster.add_node(Node, "t")
        fired = []
        node.set_timer(1.0, fired.append, 1)
        node.set_periodic_timer(1.0, fired.append, 2)
        node.cancel_timers()
        cluster.run(until=5.0)
        assert fired == []

    def test_crash_random_at(self, cluster):
        from repro.core import Node
        from repro.faults import FaultPlan
        nodes = [cluster.add_node(Node, "n%d" % i) for i in range(3)]
        plan = FaultPlan(cluster)
        plan.crash_random_at(1.0, ["n0", "n1", "n2"])
        cluster.run(until=2.0)
        assert sum(node.crashed for node in nodes) == 1

    def test_simulator_pending_events(self):
        from repro.sim import Simulator
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_network_node_names(self, cluster):
        from repro.core import Node
        cluster.add_node(Node, "a")
        cluster.add_node(Node, "b")
        assert cluster.network.node_names == ("a", "b")
        # The tuple is cached between registrations and invalidated by
        # register().
        assert cluster.network.node_names is cluster.network.node_names
        cluster.add_node(Node, "c")
        assert cluster.network.node_names == ("a", "b", "c")

    def test_chain_height_of(self):
        from repro.blockchain import Blockchain, mine
        from repro.crypto import HASH_SPACE
        chain = Blockchain(initial_target=HASH_SPACE >> 8)
        block = mine(chain.next_block("m", timestamp=1.0))
        chain.add_block(block)
        assert chain.height_of(block.hash) == 1
        assert chain.height_of(chain.genesis.hash) == 0

    def test_pos_stake_share(self):
        import random
        from repro.blockchain import run_pos_simulation
        result = run_pos_simulation(random.Random(0), {"a": 75, "b": 25},
                                    blocks=100)
        # Final-stake share: started at 0.75, drifts with earned rewards.
        assert 0.55 < result.stake_share_of("a") < 0.9

    def test_majority_attack_harness(self, make_cluster):
        from repro.blockchain.attacks import majority_attack_on_network
        # A 60%-hashrate attacker undoing 2 confirmations: near-certain.
        wins = 0
        for seed in range(5):
            cluster = make_cluster(seed=seed)
            overtook, _public, _attacker = majority_attack_on_network(
                cluster, honest_rates=(100.0, 100.0), attacker_rate=300.0,
                fork_depth=2, duration=2000.0,
            )
            wins += overtook
        assert wins >= 4
