"""Unit tests for core abstractions: ballots, quorums, property box, C&C."""

import pytest

from repro.core import (
    Ballot,
    ByzantineQuorum,
    CCPhase,
    CCTrace,
    FlexibleQuorum,
    GridQuorum,
    HybridQuorum,
    MajorityQuorum,
    PAXOS_DECOMPOSITION,
    TWO_PC_DECOMPOSITION,
    THREE_PC_DECOMPOSITION,
    bft_minimum_nodes,
    crash_minimum_nodes,
    hybrid_minimum_nodes,
)
from repro.analysis.claims import PAPER_TABLE, PaperClaim, claim_for


class TestBallot:
    def test_total_order_number_first(self):
        assert Ballot(2, "a") > Ballot(1, "z")

    def test_pid_breaks_ties(self):
        assert Ballot(1, "p2") > Ballot(1, "p1")

    def test_successor(self):
        ballot = Ballot(3, "p1")
        nxt = ballot.successor("p9")
        assert nxt == Ballot(4, "p9") and nxt > ballot

    def test_zero_is_minimum(self):
        assert Ballot.ZERO < Ballot(0, "a") or Ballot.ZERO == Ballot(0, "")
        assert Ballot(1, "") > Ballot.ZERO

    def test_hashable_and_stable(self):
        assert len({Ballot(1, "a"), Ballot(1, "a"), Ballot(2, "a")}) == 2


class TestMajorityQuorum:
    def test_sizes(self):
        assert MajorityQuorum(list("abc")).phase1_size() == 2
        assert MajorityQuorum(list("abcde")).phase1_size() == 3
        assert MajorityQuorum(list("abcdef")).phase1_size() == 4

    def test_intersection_guaranteed(self):
        for n in (1, 3, 4, 5):
            assert MajorityQuorum(["n%d" % i for i in range(n)]).intersection_guaranteed()

    def test_max_crash_faults(self):
        assert MajorityQuorum(list("abcde")).max_crash_faults() == 2

    def test_rejects_non_members(self):
        quorum = MajorityQuorum(list("abc"))
        with pytest.raises(ValueError):
            quorum.is_phase1_quorum({"x", "y"})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MajorityQuorum([])


class TestFlexibleQuorum:
    def test_condition_enforced(self):
        with pytest.raises(ValueError):
            FlexibleQuorum(list("abcdef"), 3, 3)  # 3+3 = 6, not > 6

    def test_asymmetric_quorums(self):
        quorum = FlexibleQuorum(list("abcdef"), 5, 2)
        assert quorum.is_phase2_quorum({"a", "b"})
        assert not quorum.is_phase1_quorum({"a", "b", "c", "d"})
        assert quorum.intersection_guaranteed()

    def test_replication_quorum_can_be_one(self):
        quorum = FlexibleQuorum(list("abcde"), 5, 1)
        assert quorum.is_phase2_quorum({"c"})
        assert quorum.intersection_guaranteed()


class TestGridQuorum:
    def test_rows_and_columns(self):
        grid = GridQuorum(3, 4)
        assert grid.n == 12
        assert grid.is_phase2_quorum(grid.row(0))
        assert not grid.is_phase2_quorum(grid.row(0)[:-1])
        assert grid.is_phase1_quorum(grid.column(2))

    def test_intersection(self):
        grid = GridQuorum(2, 3)
        assert grid.intersection_guaranteed()

    def test_phase2_far_below_majority(self):
        grid = GridQuorum(4, 3)  # n=12, majority=7, row=3
        assert grid.phase2_size() == 3 < 7

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GridQuorum(0, 3)


class TestByzantineQuorum:
    def test_sizes_at_3f_plus_1(self):
        quorum = ByzantineQuorum(["r%d" % i for i in range(4)])
        assert quorum.f == 1
        assert quorum.quorum_size() == 3
        assert quorum.min_intersection() == 2  # f+1
        assert quorum.weak_certificate_size() == 2

    def test_rejects_insufficient_nodes(self):
        with pytest.raises(ValueError):
            ByzantineQuorum(["a", "b", "c"], f=1)

    def test_intersection_contains_correct_node(self):
        # Any two quorums overlap in f+1 > f nodes: not all faulty.
        for f in (1, 2):
            quorum = ByzantineQuorum(["r%d" % i for i in range(3 * f + 1)], f=f)
            assert quorum.min_intersection() == f + 1


class TestHybridQuorum:
    def test_upright_arithmetic(self):
        members = ["r%d" % i for i in range(6)]  # 3*1+2*1+1
        quorum = HybridQuorum(members, m=1, c=1)
        assert quorum.quorum_size() == 4  # 2m+c+1
        assert quorum.min_intersection() == 2  # m+1

    def test_degenerates_to_paxos_and_pbft(self):
        paxos_like = HybridQuorum(["r%d" % i for i in range(3)], m=0, c=1)
        assert paxos_like.quorum_size() == 2
        pbft_like = HybridQuorum(["r%d" % i for i in range(4)], m=1, c=0)
        assert pbft_like.quorum_size() == 3

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            HybridQuorum(["a", "b", "c"], m=1, c=1)


class TestBounds:
    def test_formulas(self):
        assert bft_minimum_nodes(1) == 4
        assert bft_minimum_nodes(2) == 7
        assert crash_minimum_nodes(2) == 5
        assert hybrid_minimum_nodes(1, 1) == 6
        assert hybrid_minimum_nodes(1, 0) == bft_minimum_nodes(1)
        assert hybrid_minimum_nodes(0, 2) == crash_minimum_nodes(2)


class TestCCFramework:
    def test_paxos_implements_all_four(self):
        phases = PAXOS_DECOMPOSITION.implemented_phases()
        assert phases == [
            CCPhase.LEADER_ELECTION,
            CCPhase.VALUE_DISCOVERY,
            CCPhase.FT_AGREEMENT,
            CCPhase.DECISION,
        ]

    def test_2pc_skips_election_and_ft(self):
        assert not TWO_PC_DECOMPOSITION.implements(CCPhase.LEADER_ELECTION)
        assert not TWO_PC_DECOMPOSITION.implements(CCPhase.FT_AGREEMENT)
        assert TWO_PC_DECOMPOSITION.implements(CCPhase.DECISION)

    def test_3pc_adds_ft_agreement_back(self):
        assert THREE_PC_DECOMPOSITION.implements(CCPhase.FT_AGREEMENT)

    def test_trace_ordering(self):
        trace = CCTrace("x")
        trace.enter(CCPhase.LEADER_ELECTION, 0.0)
        trace.enter(CCPhase.VALUE_DISCOVERY, 1.0)
        trace.enter(CCPhase.LEADER_ELECTION, 2.0)  # re-election is fine
        trace.enter(CCPhase.DECISION, 3.0)
        assert trace.is_well_ordered()

    def test_trace_out_of_order_detected(self):
        trace = CCTrace("x")
        trace.enter(CCPhase.DECISION, 0.0)
        trace.enter(CCPhase.LEADER_ELECTION, 1.0)
        assert not trace.is_well_ordered()

    def test_trace_matches_decomposition(self):
        trace = CCTrace("2pc")
        trace.enter(CCPhase.VALUE_DISCOVERY, 0.0)
        trace.enter(CCPhase.DECISION, 1.0)
        assert trace.matches(TWO_PC_DECOMPOSITION)
        assert not trace.matches(THREE_PC_DECOMPOSITION)


class TestRegistry:
    """``PAPER_TABLE`` is the registry: one property box per protocol."""

    def test_all_protocols_registered(self):
        names = {claim.protocol for claim in PAPER_TABLE}
        expected = {
            "paxos", "multi-paxos", "fast-paxos", "flexible-paxos", "raft",
            "2pc", "3pc", "pbft", "zyzzyva", "hotstuff", "minbft",
            "cheapbft", "upright", "seemore", "xft", "ben-or",
            "interactive-consistency",
        }
        assert expected <= names
        assert len(names) == len(PAPER_TABLE)

    def test_profile_rows_complete(self):
        for claim in PAPER_TABLE:
            assert claim.protocol and claim.nodes and claim.phases
            assert claim.complexity.startswith("O(")

    def test_byzantine_protocols_need_3f_plus_1(self):
        for name in ("pbft", "zyzzyva", "hotstuff"):
            claim = claim_for(name)
            assert claim.failure_model == "byzantine"
            assert claim.nodes == "3f+1"

    def test_aspect_vocabularies_are_checked(self):
        with pytest.raises(ValueError, match="synchrony"):
            PaperClaim("x", "crash", "2f+1", "2", "O(N)",
                       "eventually", "pessimistic", "known")
