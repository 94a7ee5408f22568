"""Unit tests for core abstractions: ballots, quorums, property box, C&C."""

from itertools import combinations

import pytest

from repro.core import (
    Ballot,
    CCPhase,
    CCTrace,
    ConfigurationError,
    CountingQuorum,
    GridQuorum,
    PAXOS_DECOMPOSITION,
    TWO_PC_DECOMPOSITION,
    THREE_PC_DECOMPOSITION,
    minimum_nodes,
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


def overlap(quorum):
    """Fewest members a phase-1 and a phase-2 quorum can share."""
    return quorum.q1 + quorum.q2 - quorum.n


class TestMajorityQuorum:
    def test_sizes(self):
        assert CountingQuorum.tolerating(list("abc")).phase1_size() == 2
        assert CountingQuorum.tolerating(list("abcde")).phase1_size() == 3
        assert CountingQuorum.tolerating(list("abcdef")).phase1_size() == 4

    def test_intersection_guaranteed(self):
        for n in (1, 3, 4, 5):
            assert CountingQuorum.tolerating(["n%d" % i for i in range(n)]).intersection_guaranteed()

    def test_max_crash_faults(self):
        # Five members keep a live majority through two crashes, not three.
        CountingQuorum.tolerating(list("abcde"), f=2)
        with pytest.raises(ConfigurationError):
            CountingQuorum.tolerating(list("abcde"), f=3)

    def test_rejects_non_members(self):
        quorum = CountingQuorum.tolerating(list("abc"))
        with pytest.raises(ValueError):
            quorum.is_phase1_quorum({"x", "y"})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CountingQuorum.tolerating([])


class TestFlexibleQuorum:
    def test_condition_enforced(self):
        with pytest.raises(ValueError):
            CountingQuorum(list("abcdef"), 3, 3)  # 3+3 = 6, not > 6

    def test_asymmetric_quorums(self):
        quorum = CountingQuorum(list("abcdef"), 5, 2)
        assert quorum.is_phase2_quorum({"a", "b"})
        assert not quorum.is_phase1_quorum({"a", "b", "c", "d"})
        assert quorum.intersection_guaranteed()

    def test_replication_quorum_can_be_one(self):
        quorum = CountingQuorum(list("abcde"), 5, 1)
        assert quorum.is_phase2_quorum({"c"})
        assert quorum.intersection_guaranteed()


class TestGridQuorum:
    def test_rows_and_columns(self):
        grid = GridQuorum(3, 4)
        assert grid.n == 12
        row, column = grid.grid[0], [row[2] for row in grid.grid]
        assert grid.is_phase2_quorum(row)
        assert not grid.is_phase2_quorum(row[:-1])
        assert grid.is_phase1_quorum(column)

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
        members = ["r%d" % i for i in range(4)]
        quorum = CountingQuorum.tolerating(members, f=1, b=1)
        with pytest.raises(ConfigurationError):  # f = 1 is the most 4 allow
            CountingQuorum.tolerating(members, f=2, b=2)
        assert quorum.q1 == quorum.q2 == 3
        assert overlap(quorum) == 2  # f+1
        assert quorum.b + 1 == 2  # weak certificate: one correct sender

    def test_rejects_insufficient_nodes(self):
        with pytest.raises(ValueError):
            CountingQuorum.tolerating(["a", "b", "c"], f=1, b=1)

    def test_intersection_contains_correct_node(self):
        # Any two quorums overlap in f+1 > f nodes: not all faulty.
        for f in (1, 2):
            quorum = CountingQuorum.tolerating(["r%d" % i for i in range(3 * f + 1)], f=f, b=f)
            assert overlap(quorum) == f + 1


class TestHybridQuorum:
    """UpRight's m Byzantine plus c crash faults: f = m + c, b = m."""

    def test_upright_arithmetic(self):
        members = ["r%d" % i for i in range(6)]  # 3*1+2*1+1
        quorum = CountingQuorum.tolerating(members, f=2, b=1)
        assert quorum.q1 == 4  # 2m+c+1
        assert overlap(quorum) == 2  # m+1

    def test_degenerates_to_paxos_and_pbft(self):
        paxos_like = CountingQuorum.tolerating(["r%d" % i for i in range(3)], f=1, b=0)
        assert paxos_like.q1 == 2
        pbft_like = CountingQuorum.tolerating(["r%d" % i for i in range(4)], f=1, b=1)
        assert pbft_like.q1 == 3

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            CountingQuorum.tolerating(["a", "b", "c"], f=2, b=1)


class TestBounds:
    def test_formulas(self):
        def hybrid(m, c):
            return minimum_nodes(m + c, b=m)

        assert minimum_nodes(1, b=1) == 4
        assert minimum_nodes(2, b=2) == 7
        assert minimum_nodes(2) == 5
        assert hybrid(1, 1) == 6
        assert hybrid(1, 0) == minimum_nodes(1, b=1)
        assert hybrid(0, 2) == minimum_nodes(2)


class TestQuorumRule:
    def test_exhaustive_up_to_nine_members(self):
        """Every n <= 9 and 0 <= b <= f: the rule's quorums pairwise
        share b+1 members and survive f faults, and exactly the cases
        with n < 2f+b+1 are refused."""
        for n in range(1, 10):
            members = ["r%d" % i for i in range(n)]
            for f in range(n + 1):
                for b in range(f + 1):
                    if n < 2 * f + b + 1:
                        with pytest.raises(ConfigurationError):
                            CountingQuorum.tolerating(members, f, b)
                        continue
                    quorum = CountingQuorum.tolerating(members, f, b)
                    assert quorum.q1 == quorum.q2 and quorum.b == b
                    assert n - f >= quorum.q1
                    smallest = [set(c) for c in combinations(members, quorum.q1)]
                    assert all(quorum.is_phase1_quorum(q) for q in smallest)
                    assert not quorum.is_phase1_quorum(members[:quorum.q1 - 1])
                    assert min(len(a & z) for a in smallest for z in smallest) >= b + 1


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
