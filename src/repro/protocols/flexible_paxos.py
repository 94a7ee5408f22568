"""Flexible Paxos (Howard, Malkhi & Spiegelman, OPODIS 2016).

The observation the tutorial highlights: requiring *all* Paxos quorums
to intersect is too conservative.  Only **leader-election (phase-1)
quorums and replication (phase-2) quorums must intersect** — two
replication quorums never need to overlap.  So replication quorums can
be arbitrarily small (|Q1| + |Q2| > n, or grid rows vs columns), with
**no changes to the Paxos algorithm** — literally: this module runs the
unmodified :mod:`repro.protocols.paxos` machinery with a different
quorum system plugged in.

The module also provides the *negative* construction E6 needs: a bogus
quorum system whose Q1 and Q2 do **not** intersect, under which the same
algorithm happily decides two different values — demonstrating that the
generalized quorum condition is exactly what carries safety.
"""

from dataclasses import dataclass

from ..core.quorums import CountingQuorum, GridQuorum, QuorumSystem
from .paxos import PaxosAcceptor, PaxosProposer, chosen_value, run_basic_paxos


class UnsafeDisjointQuorum(QuorumSystem):
    """A deliberately broken quorum system: Q1 and Q2 both of size q
    with 2q <= n, so two disjoint 'quorums' can coexist.  Used only to
    demonstrate that Paxos's safety comes from quorum intersection."""

    def __init__(self, members, q):
        super().__init__(members)
        if 2 * q > self.n:
            raise ValueError("to be unsafe, need 2q <= n")
        self.q = q

    def is_phase1_quorum(self, nodes):
        return len(self._validate(nodes)) >= self.q

    is_phase2_quorum = is_phase1_quorum

    def phase1_size(self):
        return self.q

    phase2_size = phase1_size


#: E6's counting quorums over six acceptors: |Q1| + |Q2| = 4 + 3 > 6.
Q1, Q2 = 4, 3


def quorums_for(acceptors, f=None):
    """E6's quorums over ``acceptors``: :data:`Q1` and :data:`Q2`
    whatever ``f`` is."""
    return CountingQuorum(acceptors, Q1, Q2)


def run_flexible_paxos(cluster, n_acceptors=6, q1=Q1, q2=Q2, proposals=("X",),
                       horizon=500.0):
    """Classic-shaped run with counting flexible quorums."""
    quorums = CountingQuorum(["a%d" % i for i in range(n_acceptors)], q1, q2)
    return run_basic_paxos(
        cluster,
        n_acceptors=n_acceptors,
        proposals=proposals,
        quorum_system=quorums,
        horizon=horizon,
    )


@dataclass
class GridPaxosResult:
    result: object
    grid: GridQuorum


def run_grid_paxos(cluster, rows=3, cols=4, proposals=("X",), horizon=500.0):
    """Flexible Paxos on a rows × cols grid: phase 2 needs one full row
    (cols acks), phase 1 one node from every row (rows acks)."""
    grid = GridQuorum(rows, cols)
    names = [name for row in grid.grid for name in row]
    acceptors = cluster.add_nodes(PaxosAcceptor, names)
    proposers = [
        cluster.add_node(
            PaxosProposer, "p%d" % (i + 1), names, value, quorum_system=grid
        )
        for i, value in enumerate(proposals)
    ]
    cluster.start_all()
    cluster.run_until(
        lambda: all(p.decided is not None for p in proposers), until=horizon
    )
    from .paxos import PaxosResult
    result = PaxosResult(
        decided_values=[p.decided for p in proposers],
        decided_at=max((p.decided_at for p in proposers
                        if p.decided_at is not None), default=None),
        rounds=sum(p.rounds for p in proposers),
        messages=cluster.metrics.messages_total,
        acceptors=acceptors,
        proposers=proposers,
    )
    return GridPaxosResult(result=result, grid=grid)


def demonstrate_unsafe_quorums(cluster, n_acceptors=6, q=3, horizon=300.0):
    """Run two isolated proposers on non-intersecting quorums and return
    the set of values *chosen* per the protocol definition — size 2 means
    safety was violated, which is the expected outcome.

    The two proposers are confined to disjoint halves of the acceptors
    (a network partition), so each assembles its own 'quorum'.
    """
    names = ["a%d" % i for i in range(n_acceptors)]
    quorums = UnsafeDisjointQuorum(names, q)
    acceptors = cluster.add_nodes(PaxosAcceptor, names)
    half = n_acceptors // 2
    proposer_a = cluster.add_node(
        PaxosProposer, "p1", names[:half], "A", quorum_system=quorums
    )
    proposer_b = cluster.add_node(
        PaxosProposer, "p2", names[half:], "B", quorum_system=quorums
    )
    cluster.network.partitions.split(
        ["p1"] + names[:half], ["p2"] + names[half:]
    )
    cluster.start_all()
    cluster.run_until(
        lambda: proposer_a.decided is not None and proposer_b.decided is not None,
        until=horizon,
    )
    chosen = set()
    for group in (acceptors[:half], acceptors[half:]):
        value = chosen_value(group, quorums)
        if value is not None:
            chosen.add(value)
    return chosen
