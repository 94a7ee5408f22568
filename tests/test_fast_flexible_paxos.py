"""Tests for Fast Paxos (fast rounds, collisions) and Flexible Paxos
(generalized quorums, grid quorums, the unsafe counterexample)."""

import pytest

from repro.net import SynchronousModel, UniformDelayModel
from repro.protocols.fast_paxos import FastPaxosLeader, run_fast_paxos
from repro.protocols.flexible_paxos import (
    UnsafeDisjointQuorum,
    demonstrate_unsafe_quorums,
    run_flexible_paxos,
    run_grid_paxos,
)


class TestFastRound:
    def test_two_message_delays(self, make_cluster):
        cluster = make_cluster(seed=1, delivery=SynchronousModel(1.0))
        result = run_fast_paxos(cluster, f=1, values=("X",))
        assert result.decided == "X"
        assert not result.collision
        # client -> replicas (1) + replicas -> leader (1) = 2 delays,
        # versus Basic Paxos's 3 from client request to leader learning.
        assert result.learn_delay() == pytest.approx(2.0)

    def test_requires_3f_plus_1(self, cluster):
        with pytest.raises(ValueError):
            FastPaxosLeader(cluster.sim, cluster.network, "leader",
                            ["r0", "r1", "r2"], f=1)

    def test_value_raced_ahead_of_any_message_buffers(self, make_cluster):
        # Client value may beat the leader's Any message; must not be lost.
        for seed in range(6):
            cluster = make_cluster(seed=seed,
                                   delivery=UniformDelayModel(0.2, 3.0))
            result = run_fast_paxos(cluster, f=1, values=("X",),
                                    client_offsets=[0.0])
            assert result.decided == "X", seed


class TestCollision:
    def test_racing_clients_always_decide_exactly_one(self, make_cluster):
        collisions = 0
        for seed in range(20):
            cluster = make_cluster(seed=seed,
                                   delivery=UniformDelayModel(0.5, 1.5))
            result = run_fast_paxos(cluster, f=1, values=("X", "Y"))
            assert result.decided in ("X", "Y"), seed
            collisions += result.collision
        assert collisions >= 3  # the race does produce real collisions

    def test_collision_recovery_costs_extra_phases(self, make_cluster):
        fast_delays, classic_delays = [], []
        for seed in range(20):
            cluster = make_cluster(seed=seed,
                                   delivery=SynchronousModel(1.0))
            # Stagger breaks ties deterministically; jitter seeds vary which
            # replica sees which value first.
            cluster2 = make_cluster(seed=seed,
                                    delivery=UniformDelayModel(0.9, 1.1))
            result = run_fast_paxos(cluster2, f=1, values=("X", "Y"))
            if result.collision:
                classic_delays.append(result.learn_delay())
            else:
                fast_delays.append(result.learn_delay())
        if fast_delays and classic_delays:
            assert min(classic_delays) > max(fast_delays) * 1.3

    def test_possibly_chosen_value_repropsed(self, make_cluster):
        """If f+1 replicas reported v, a fast quorum might have chosen v;
        recovery must re-propose it."""
        for seed in range(15):
            cluster = make_cluster(seed=seed,
                                   delivery=UniformDelayModel(0.5, 1.5))
            result = run_fast_paxos(cluster, f=1, values=("X", "Y"))
            if not result.collision:
                continue
            votes = {}
            for value in result.leader.fast_votes.values():
                votes[value] = votes.get(value, 0) + 1
            candidates = {v for v, c in votes.items() if c >= 2}
            if len(candidates) == 1:
                assert result.decided in candidates


class TestFlexiblePaxos:
    def test_asymmetric_quorums_decide(self, cluster):
        result = run_flexible_paxos(cluster, n_acceptors=6, q1=4, q2=3,
                                    proposals=("X",))
        assert result.value == "X"

    def test_small_replication_quorum_survives_more_crashes(self, make_cluster):
        # |Q2| = 2 with |Q1| = 5 on n=6: replication tolerates 4 crashes
        # (as long as no new election is needed).
        cluster = make_cluster(seed=1)
        result = run_flexible_paxos(cluster, n_acceptors=6, q1=5, q2=2,
                                    proposals=("X",))
        assert result.value == "X"

    def test_replication_survives_beyond_majority_crashes(self, make_cluster):
        """The FPaxos payoff: with |Q2|=2 on n=6, replication tolerates
        n−|Q2|=4 crashes — a majority system dies at 3.  (Phase 1 ran
        while enough nodes were up; steady-state replication continues.)
        Here 4 of 6 acceptors crash and q1=2/q2=... can't re-elect, so we
        instead verify the quorum predicates directly, which is what the
        claim is about."""
        from repro.core import CountingQuorum
        members = ["a%d" % i for i in range(6)]
        flexible = CountingQuorum(members, 5, 2)
        majority = CountingQuorum.tolerating(members)
        survivors = set(members[:2])  # 4 crashed
        assert flexible.is_phase2_quorum(survivors)
        assert not majority.is_phase2_quorum(survivors)

    def test_condition_is_tight(self, make_cluster):
        # |Q1| + |Q2| = n is already rejected by the constructor — the
        # exact boundary of the generalized quorum condition.
        from repro.core import CountingQuorum
        members = ["a%d" % i for i in range(6)]
        CountingQuorum(members, 4, 3)  # 7 > 6: fine
        with pytest.raises(ValueError):
            CountingQuorum(members, 3, 3)


class TestGridQuorums:
    def test_grid_paxos_decides(self, make_cluster):
        outcome = run_grid_paxos(make_cluster(seed=2), rows=3, cols=4,
                                 proposals=("G",))
        assert outcome.result.value == "G"

    def test_replication_quorum_below_majority(self, make_cluster):
        outcome = run_grid_paxos(make_cluster(seed=2), rows=4, cols=3,
                                 proposals=("G",))
        majority = outcome.grid.n // 2 + 1
        assert outcome.grid.phase2_size() < majority


class TestUnsafeQuorums:
    def test_nonintersecting_quorums_violate_safety(self, make_cluster):
        chosen = demonstrate_unsafe_quorums(make_cluster(seed=3))
        assert len(chosen) == 2  # two values chosen: safety broken

    def test_unsafe_class_refuses_intersecting_config(self):
        with pytest.raises(ValueError):
            UnsafeDisjointQuorum(list("abcde"), 3)  # 2*3 > 5: would be safe
