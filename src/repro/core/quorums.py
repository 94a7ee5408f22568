"""Quorum systems.

The paper's safety condition: "any two sets (quorums) of acceptors must
have at least one overlapping acceptor".  Flexible Paxos relaxes this —
only *phase-1* (leader election) quorums and *phase-2* (replication)
quorums must intersect, letting replication quorums shrink below a
majority.  BFT protocols need a stronger overlap: any two quorums must
intersect in at least f+1 nodes so the intersection contains a correct
replica.

Every protocol's vote counts follow one rule.  With b the number of
members of an intersection that may be faulty, ``n >= 2f + b + 1``
members tolerate f faults with quorums of ``q = floor((n + b) / 2) + 1``:
any two quorums share at least b+1 members (the paper's "Q1 + Q2 > N +
f") and n − f live members still form one.  b = 0 is the crash majority
of Paxos and Raft; b = f at n = 3f+1 is PBFT's 2f+1; b = m with
f = m + c at n = 3m+2c+1 is UpRight's 2m+c+1.
:meth:`CountingQuorum.tolerating` applies the rule and
:func:`minimum_nodes` states its bound.

Each quorum system answers two questions: "is this set of acks a valid
phase-i quorum?" and "what's the minimum quorum size?".  They also carry
self-check methods the property tests exercise exhaustively.
"""

from itertools import combinations

from .exceptions import ConfigurationError


def primary_of(peers, view):
    """The member of ``peers`` (in their fixed order) that leads
    ``view``: the primary rotates round-robin with the view."""
    return peers[view % len(peers)]


def minimum_nodes(f, b=0):
    """The rule's bound: members needed to tolerate ``f`` faults with at
    most ``b`` faulty members in any quorum intersection, 2f + b + 1."""
    return 2 * f + b + 1


class QuorumSystem:
    """Base of phase-1 (election/prepare) and phase-2
    (replication/accept) quorums over node-name sets.  A subclass
    provides the predicates ``is_phase1_quorum(nodes)`` and
    ``is_phase2_quorum(nodes)`` and the minimum cardinalities
    ``phase1_size()`` and ``phase2_size()``."""

    def __init__(self, members):
        self.members = frozenset(members)
        if not self.members:
            raise ConfigurationError("a quorum system needs at least one member")

    @property
    def n(self):
        return len(self.members)

    def _validate(self, nodes):
        nodes = frozenset(nodes)
        if not nodes <= self.members:
            raise ValueError("quorum check with non-member nodes %r"
                             % (nodes - self.members,))
        return nodes

    def intersection_guaranteed(self, sample_limit=None):
        """Exhaustively check that every phase-1 quorum intersects every
        phase-2 quorum.  Exponential — intended for tests at small n."""
        members = sorted(self.members)
        subsets = []
        for size in range(1, len(members) + 1):
            subsets.extend(frozenset(c) for c in combinations(members, size))
            if sample_limit is not None and len(subsets) > sample_limit:
                break
        phase1 = [s for s in subsets if self.is_phase1_quorum(s)]
        phase2 = [s for s in subsets if self.is_phase2_quorum(s)]
        return all(q1 & q2 for q1 in phase1 for q2 in phase2)


class CountingQuorum(QuorumSystem):
    """Quorums by count: any ``q1`` members form a phase-1 quorum and any
    ``q2`` members a phase-2 quorum.

    ``q1 + q2 > n + b`` makes every phase-1 quorum share at least b+1
    members with every phase-2 quorum.  At b = 0 this is the generalised
    condition of Howard, Malkhi & Spiegelman's Flexible Paxos, |Q1| +
    |Q2| > n: "arbitrarily small replication quorums as long as Leader
    Election Quorums intersect with every Replication Quorum."

    Replicas count votes against the integer sizes :attr:`q1` and
    :attr:`q2`; the predicates serve callers that take any
    :class:`QuorumSystem`.
    """

    def __init__(self, members, q1, q2, b=0):
        super().__init__(members)
        if q1 + q2 <= self.n + b:
            raise ConfigurationError(
                "quorums sharing b+1 members need |Q1| + |Q2| > n + b "
                "(got %d + %d <= %d + %d)" % (q1, q2, self.n, b)
            )
        if not (1 <= q1 <= self.n and 1 <= q2 <= self.n):
            raise ConfigurationError("quorum sizes must be within [1, n]")
        self.q1 = q1
        self.q2 = q2
        #: Faulty members any phase-1/phase-2 intersection may hold while
        #: still containing a correct one; ``b + 1`` matching messages
        #: therefore include a correct sender.
        self.b = b

    @classmethod
    def tolerating(cls, members, f=None, b=0):
        """The rule's quorums over ``members``: q1 = q2 =
        floor((n + b) / 2) + 1, tolerating ``f`` faults with any two
        quorums sharing at least b+1 members.  Refuses n < 2f + b + 1;
        ``f=None`` takes the most faults the members allow."""
        members = frozenset(members)
        n = len(members)
        if f is None:
            f = max((n - b - 1) // 2, 0)
        if f < 0 or b < 0:
            raise ConfigurationError("fault counts must be non-negative")
        if n < minimum_nodes(f, b):
            raise ConfigurationError(
                "tolerating f=%d faults with b=%d needs n >= 2f+b+1 = %d "
                "(n=%d)" % (f, b, minimum_nodes(f, b), n)
            )
        q = (n + b) // 2 + 1
        return cls(members, q, q, b)

    def is_phase1_quorum(self, nodes):
        return len(self._validate(nodes)) >= self.q1

    def is_phase2_quorum(self, nodes):
        return len(self._validate(nodes)) >= self.q2

    def phase1_size(self):
        return self.q1

    def phase2_size(self):
        return self.q2


class GridQuorum(QuorumSystem):
    """Grid quorums: nodes arranged rows × cols; phase-2 quorum = one
    full row, phase-1 quorum = one full column plus one full row... no —
    a full *column* of row-representatives.

    Concretely (the standard FPaxos example): Q2 = all nodes of some
    row; Q1 = one node from every row (a "column" in the logical grid).
    Every Q1 then intersects every Q2 while |Q2| = cols can be far below
    a majority of n = rows × cols.
    """

    def __init__(self, rows, cols, name_of=None):
        if rows < 1 or cols < 1:
            raise ConfigurationError("grid needs positive dimensions")
        if name_of is None:
            name_of = lambda r, c: "n%d_%d" % (r, c)
        self.rows = rows
        self.cols = cols
        self.grid = [
            [name_of(r, c) for c in range(cols)] for r in range(rows)
        ]
        super().__init__(name for row in self.grid for name in row)
        self._row_sets = [frozenset(row) for row in self.grid]

    def is_phase2_quorum(self, nodes):
        nodes = self._validate(nodes)
        return any(row <= nodes for row in self._row_sets)

    def is_phase1_quorum(self, nodes):
        nodes = self._validate(nodes)
        return all(row & nodes for row in self._row_sets)

    def phase1_size(self):
        return self.rows

    def phase2_size(self):
        return self.cols
