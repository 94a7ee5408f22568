"""The paper's property box, written once.

Every protocol slide of the tutorial carries one box choosing a value
per taxonomy aspect: synchrony mode, failure model, processing strategy,
participant awareness, and the complexity metrics (nodes / phases /
messages).  ``PAPER_TABLE`` is that box as data, one :class:`PaperClaim`
row per protocol, and it is the only statement of it: ``repro list``,
``repro table``, ``repro check``'s ``paper box:`` line,
``Scenario.claim()``, ``MONITOR_SPECS``, the E1 bench and
EXPERIMENTS.md all read these rows.
"""

from dataclasses import dataclass

#: The closed vocabularies of the three aspects that have one.
ASPECT_VALUES = {
    "synchrony": ("synchronous", "asynchronous", "partially-synchronous"),
    "strategy": ("pessimistic", "optimistic"),
    "awareness": ("known", "unknown"),
}


@dataclass(frozen=True)
class PaperClaim:
    """One protocol row as the tutorial states it."""

    protocol: str
    failure_model: str
    nodes: str
    phases: str
    complexity: str
    synchrony: str
    strategy: str
    awareness: str

    def __post_init__(self):
        for aspect, allowed in ASPECT_VALUES.items():
            if getattr(self, aspect) not in allowed:
                raise ValueError("%s: %s=%r is not one of %s" % (
                    self.protocol, aspect, getattr(self, aspect),
                    ", ".join(allowed)))


PAPER_TABLE = [
    PaperClaim("paxos", "crash", "2f+1", "2", "O(N)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("multi-paxos", "crash", "2f+1", "2", "O(N)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("raft", "crash", "2f+1", "2", "O(N)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("fast-paxos", "crash", "3f+1", "1 or 3", "O(N)",
               "partially-synchronous", "optimistic", "known"),
    PaperClaim("flexible-paxos", "crash", "|Q1|+|Q2|>n", "2", "O(N)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("2pc", "crash", "n", "2", "O(N)",
               "synchronous", "pessimistic", "known"),
    PaperClaim("3pc", "crash", "n", "3", "O(N)",
               "synchronous", "pessimistic", "known"),
    PaperClaim("pbft", "byzantine", "3f+1", "3", "O(N^2)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("zyzzyva", "byzantine", "3f+1", "1 or 2", "O(N)",
               "partially-synchronous", "optimistic", "known"),
    PaperClaim("hotstuff", "byzantine", "3f+1", "7", "O(N)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("minbft", "hybrid", "2f+1", "2", "O(N)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("cheapbft", "hybrid", "f+1 active / 2f+1", "2", "O(N)",
               "partially-synchronous", "optimistic", "known"),
    PaperClaim("upright", "hybrid", "3m+2c+1", "3", "O(N^2)",
               "partially-synchronous", "optimistic", "known"),
    PaperClaim("seemore", "hybrid", "3m+2c+1", "2 or 3", "O(N)/O(N^2)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("xft", "crash+non-crash", "2f+1", "2", "O(N)",
               "partially-synchronous", "optimistic", "known"),
    PaperClaim("ben-or", "crash", "2f+1", "2 per round", "O(N^2)",
               "asynchronous", "pessimistic", "known"),
    PaperClaim("interactive-consistency", "byzantine", "3f+1", "2", "O(N^2)",
               "synchronous", "pessimistic", "known"),
    # DESIGN.md's E1 table gives "Byzantine, unknown"; Nakamoto consensus
    # assumes bounded propagation delay and resolves forks after the
    # fact.
    PaperClaim("pow", "byzantine", "unknown", "1", "O(N)",
               "synchronous", "optimistic", "unknown"),
    PaperClaim("tendermint", "byzantine", "3f+1", "3 per round", "O(N^2)",
               "partially-synchronous", "pessimistic", "known"),
    PaperClaim("chandra-toueg", "crash", "2f+1", "4 per round", "O(N)",
               "asynchronous", "pessimistic", "known"),
]


def claim_for(protocol):
    for claim in PAPER_TABLE:
        if claim.protocol == protocol:
            return claim
    raise KeyError(protocol)
