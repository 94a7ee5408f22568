"""Tests for single-decree Paxos: agreement, validity, fault tolerance,
the livelock figure, and quorum-safety foundations."""

import pytest

from repro.core import CCPhase, CountingQuorum
from repro.net import SynchronousModel
from repro.protocols.paxos import (
    FixedBackoff,
    RandomizedBackoff,
    chosen_value,
    run_basic_paxos,
)
from repro.trace import assert_quorum_before_decide


class TestBasicAgreement:
    def test_single_proposer_decides_own_value(self, make_cluster):
        cluster = make_cluster(trace=True)
        result = run_basic_paxos(cluster, n_acceptors=5, proposals=("X",))
        assert result.value == "X"
        assert result.rounds == 1
        # Causal invariant, checked on the recorded trace: the proposer's
        # decide must be causally preceded by accepted-acks from a
        # majority quorum (3 of 5) for the deciding ballot — counting
        # messages can't catch a decide that races ahead of its quorum.
        assert_quorum_before_decide(cluster.trace, "decide", "acceptedmsg",
                                    quorum=3, link_keys=("ballot",))

    def test_three_acceptors_minimum_cluster(self, cluster):
        result = run_basic_paxos(cluster, n_acceptors=3, proposals=("V",))
        assert result.value == "V"

    def test_all_acceptors_learn_decision(self, cluster):
        result = run_basic_paxos(cluster, n_acceptors=5, proposals=("X",))
        cluster.sim.run_for(20.0)  # let decide messages drain
        assert all(a.decided == "X" for a in result.acceptors)

    def test_competing_proposers_agree(self, make_cluster):
        for seed in range(8):
            cluster = make_cluster(seed=seed)
            result = run_basic_paxos(
                cluster, proposals=("X", "Y"),
                retry=RandomizedBackoff(), stagger=1.0,
            )
            assert result.agreed
            assert result.value in ("X", "Y")

    def test_decided_value_was_proposed(self, make_cluster):
        # Validity: only a proposed value may be chosen.
        for seed in range(5):
            result = run_basic_paxos(
                make_cluster(seed=seed), proposals=("A", "B", "C"),
                retry=RandomizedBackoff(), stagger=0.7,
            )
            assert result.value in ("A", "B", "C")


class TestFaultTolerance:
    def test_survives_minority_crashes(self, cluster):
        result = run_basic_paxos(
            cluster, n_acceptors=5, proposals=("X",), crash_acceptors=(0, 1)
        )
        assert result.value == "X"

    def test_blocks_on_majority_crashes(self, cluster):
        result = run_basic_paxos(
            cluster, n_acceptors=5, proposals=("X",),
            crash_acceptors=(0, 1, 2), horizon=120.0, max_rounds=5,
        )
        assert not result.agreed  # liveness lost, safety intact

    def test_chosen_value_matches_decision(self, cluster):
        result = run_basic_paxos(cluster, n_acceptors=5, proposals=("X",))
        quorums = CountingQuorum.tolerating([a.name for a in result.acceptors])
        assert chosen_value(result.acceptors, quorums) == "X"


class TestLivelock:
    """The liveness figure: dueling proposers P3.1/P3.5/P4.1/P5.5."""

    def test_fixed_backoff_livelocks(self, make_cluster):
        cluster = make_cluster(seed=3, delivery=SynchronousModel(1.0))
        result = run_basic_paxos(
            cluster, proposals=("X", "Y"),
            retry=FixedBackoff(2.0), stagger=1.0, horizon=200.0,
        )
        assert not result.agreed
        assert result.rounds > 50  # many preempting rounds, zero progress

    def test_randomized_backoff_restores_liveness(self, make_cluster):
        # The paper's fix: "randomized delay before restarting".
        for seed in range(6):
            cluster = make_cluster(seed=seed, delivery=SynchronousModel(1.0))
            result = run_basic_paxos(
                cluster, proposals=("X", "Y"),
                retry=RandomizedBackoff(2.0, 8.0), stagger=1.0, horizon=500.0,
            )
            assert result.agreed, "seed %d should decide" % seed

    def test_livelock_preserves_safety(self, make_cluster):
        cluster = make_cluster(seed=3, delivery=SynchronousModel(1.0))
        result = run_basic_paxos(
            cluster, proposals=("X", "Y"),
            retry=FixedBackoff(2.0), stagger=1.0, horizon=150.0,
        )
        quorums = CountingQuorum.tolerating([a.name for a in result.acceptors])
        # Nothing was chosen by a full quorum at a single ballot.
        assert chosen_value(result.acceptors, quorums) is None


class TestValueDiscovery:
    def test_new_leader_adopts_possibly_chosen_value(self, make_cluster):
        """A value accepted by a quorum must be recovered by later ballots
        — the safety condition the overlapping acceptor carries."""
        cluster = make_cluster(seed=1, delivery=SynchronousModel(1.0))
        # p1 decides X; later p2 (staggered far behind) must also end at X.
        result = run_basic_paxos(
            cluster, proposals=("X", "Y"), stagger=30.0,
            retry=RandomizedBackoff(),
        )
        assert result.value == "X"
        assert result.decided_values == ["X", "X"]


class TestCCTrace:
    def test_paxos_phases_in_order(self, cluster):
        result = run_basic_paxos(cluster, proposals=("X",))
        trace = result.proposers[0].trace
        assert trace.phases_seen() == [
            CCPhase.LEADER_ELECTION,
            CCPhase.VALUE_DISCOVERY,
            CCPhase.FT_AGREEMENT,
            CCPhase.DECISION,
        ]
        assert trace.is_well_ordered()


class TestMessageCounts:
    def test_two_phase_message_pattern(self, sync_cluster):
        n = 5
        result = run_basic_paxos(sync_cluster, n_acceptors=n, proposals=("X",))
        by_type = sync_cluster.metrics.by_type
        # One round: n prepares, n acks, n accepts, n accepted, decides.
        assert by_type["prepare"] == n
        assert by_type["prepareack"] == n
        assert by_type["accept"] == n
        assert by_type["acceptedmsg"] == n

    def test_linear_in_cluster_size(self, make_cluster):
        counts = {}
        for n in (3, 5, 9):
            cluster = make_cluster(seed=1, delivery=SynchronousModel(1.0))
            run_basic_paxos(cluster, n_acceptors=n, proposals=("X",))
            counts[n] = cluster.metrics.messages_total
        assert counts[9] < 4 * counts[3]  # linear-ish, not quadratic

    def test_decision_latency_two_phases(self, sync_cluster):
        result = run_basic_paxos(sync_cluster, n_acceptors=5, proposals=("X",))
        # prepare(1) + ack(1) + accept(1) + accepted(1) = 4 one-way delays.
        assert result.decided_at == pytest.approx(4.0)
