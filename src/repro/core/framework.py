"""The Consensus & Commitment (C&C) framework.

The tutorial's unifying lens: every leader-based agreement protocol
decomposes into four phases —

1. **Leader election** — a quorum acknowledges a leader,
2. **Value discovery** — the leader learns about possibly-decided values
   (Paxos phase 1's ack payload; 2PC's vote collection),
3. **Fault-tolerant agreement** — the value is made durable on a quorum
   (Paxos accept; 3PC's pre-commit),
4. **Decision** — the outcome is disseminated, typically asynchronously.

2PC skips phases 1 and 3 (fixed coordinator, no replication of the
decision — hence blocking); 3PC adds phase 3 back; Paxos folds value
discovery into leader election's acks.  Protocol classes declare their
decomposition with :class:`CCDecomposition` and emit
:class:`CCTrace` events at runtime so tests can check the declared and
observed structures agree.
"""

import enum
from dataclasses import dataclass, field


class CCPhase(enum.Enum):
    """The four phases of the C&C framework."""

    LEADER_ELECTION = "leader-election"
    VALUE_DISCOVERY = "value-discovery"
    FT_AGREEMENT = "fault-tolerant-agreement"
    DECISION = "decision"


#: Canonical phase order, for validating traces.
PHASE_ORDER = [
    CCPhase.LEADER_ELECTION,
    CCPhase.VALUE_DISCOVERY,
    CCPhase.FT_AGREEMENT,
    CCPhase.DECISION,
]


@dataclass(frozen=True)
class CCDecomposition:
    """Which C&C phases a protocol implements, and how.

    ``phases`` maps each implemented :class:`CCPhase` to a short
    description of the mechanism (e.g. Paxos's value discovery is
    "piggybacked on prepare acks").
    """

    protocol: str
    phases: dict

    def implements(self, phase):
        return phase in self.phases

    def implemented_phases(self):
        """Implemented phases in canonical order."""
        return [p for p in PHASE_ORDER if p in self.phases]


@dataclass
class CCTrace:
    """Runtime record of C&C phase entries for one consensus instance."""

    protocol: str
    entries: list = field(default_factory=list)

    def enter(self, phase, now, detail=""):
        self.entries.append((phase, now, detail))

    def phases_seen(self):
        """Distinct phases in first-entry order."""
        seen = []
        for phase, _now, _detail in self.entries:
            if phase not in seen:
                seen.append(phase)
        return seen

    def is_well_ordered(self):
        """Phases must first appear in canonical order (later re-entries,
        e.g. re-election after a leader crash, are fine)."""
        order = [PHASE_ORDER.index(p) for p in self.phases_seen()]
        return order == sorted(order)

    def matches(self, decomposition):
        """Does the observed trace use exactly the declared phases?"""
        return self.phases_seen() == decomposition.implemented_phases()


# -- canonical decompositions from the slides ------------------------------

PAXOS_DECOMPOSITION = CCDecomposition(
    "paxos",
    {
        CCPhase.LEADER_ELECTION: "prepare: quorum joins the ballot",
        CCPhase.VALUE_DISCOVERY: "piggybacked on prepare acks (AcceptNum/AcceptVal)",
        CCPhase.FT_AGREEMENT: "accept: value durable on a quorum",
        CCPhase.DECISION: "decide propagated asynchronously",
    },
)

TWO_PC_DECOMPOSITION = CCDecomposition(
    "2pc",
    {
        CCPhase.VALUE_DISCOVERY: "vote collection from cohorts",
        CCPhase.DECISION: "commit/abort broadcast",
    },
)

THREE_PC_DECOMPOSITION = CCDecomposition(
    "3pc",
    {
        CCPhase.LEADER_ELECTION: "coordinator (re-)election on failure",
        CCPhase.VALUE_DISCOVERY: "vote collection from cohorts",
        CCPhase.FT_AGREEMENT: "pre-commit replicated to cohorts",
        CCPhase.DECISION: "commit/abort broadcast",
    },
)
