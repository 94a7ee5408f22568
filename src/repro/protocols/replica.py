"""One replica base for the quorum protocols.

Both BFT surveys in PAPERS.md (Zhang et al., *Reaching Consensus in the
Byzantine Empire*; Wu et al., *Half a Century of BFT Consensus*)
describe the family as one skeleton varied per protocol: a view names a
primary, a quorum of matching votes decides, and execution goes in
order.  :class:`Replica` is the part of that skeleton every protocol
wrote the same way: its membership and quorums, its state machine, the
primary of a view, phase marks, and execution of committed slots in
sequence order.  Fan-out to the other replicas is
``self.multicast(self.other_peers, message)``.

Which votes count, what a phase carries and how a view changes stay in
each protocol's module.  Classes of another shape stay on
:class:`~repro.core.node.Node`: the Paxos proposer and acceptor, the
2PC/3PC coordinator and cohort, Dynamo, the miners and the clients.
"""

from ..core.node import Node
from ..core.quorums import CountingQuorum, primary_of


class ListStateMachine:
    """Default state machine: append-only command history."""

    def __init__(self):
        self.history = []

    @property
    def ops_applied(self):
        return len(self.history)

    def apply(self, command):
        self.history.append(command)
        return len(self.history) - 1

    def snapshot(self):
        return list(self.history)

    def restore(self, snapshot, ops_applied=0):
        self.history = list(snapshot)


class Replica(Node):
    """A member of a replica group that agrees by quorums.

    Parameters
    ----------
    peers:
        All replica names, this one included, in a fixed global order;
        the primary of view ``v`` is ``peers[v % n]``.
    f, b:
        Faults tolerated, and faulty members any two quorums may share:
        :attr:`quorums` is ``CountingQuorum.tolerating(peers, f, b)``,
        which refuses too few peers.  ``f=None`` takes the most faults
        the peers allow.
    state_machine_factory:
        Zero-arg callable building this replica's deterministic state
        machine; ``None`` means :class:`ListStateMachine`.

    A subclass that uses :attr:`primary_name` keeps the current view in
    ``view``; one that uses :meth:`_execute_in_order` provides
    ``_execute(seq, *entry)``.
    """

    #: The protocol label this replica's phase marks carry.
    protocol = None

    def __init__(self, sim, network, name, peers, f=None, b=0,
                 state_machine_factory=None):
        super().__init__(sim, network, name)
        self.peers = list(peers)
        self.n = len(self.peers)
        self.f = f
        self.quorums = CountingQuorum.tolerating(self.peers, f, b)
        #: Every peer but ourselves, in ``peers`` order — the fan-out list.
        self.other_peers = [p for p in self.peers if p != name]
        self.state_machine = (state_machine_factory or ListStateMachine)()
        self._next_execute = 0  # the lowest slot not yet executed
        self._held = {}  # committed slot -> entry, waiting for lower ones

    # -- the primary of a view ---------------------------------------------

    def primary_of(self, view):
        return primary_of(self.peers, view)

    @property
    def primary_name(self):
        return primary_of(self.peers, self.view)

    @property
    def is_primary(self):
        return self.primary_name == self.name

    # -- phase marks ---------------------------------------------------------

    def mark_phase(self, phase, protocol=None):
        """Record that this replica's protocol (or ``protocol``) entered
        communication phase ``phase``."""
        self.network.metrics.mark_phase(protocol or self.protocol, phase,
                                        self.sim.now)

    # -- execution in sequence order -----------------------------------------

    def _committed(self, seq):
        """Whether slot ``seq`` committed here (executed, or held)."""
        return seq < self._next_execute or seq in self._held

    def _execute_in_order(self, seq, *entry):
        """Slot ``seq`` committed with ``entry``: hold it until every
        lower slot has executed, then run ``_execute(seq, *entry)`` for
        it and for each held slot that follows.  A slot that committed
        here before is ignored."""
        if self._committed(seq):
            return
        held = self._held
        held[seq] = entry
        while self._next_execute in held:
            seq = self._next_execute
            self._next_execute = seq + 1
            self._execute(seq, *held.pop(seq))


def run_closed_loop(result, cluster, replicas, client, targets, operations,
                    f=0, horizon=2000.0, n_clients=1, **extra):
    """Drive ``replicas`` with ``n_clients`` closed-loop ``client`` nodes
    ``c0``, ``c1``, ... (constructor arguments ``targets, commands,
    f``), each sending ``operations`` commands to ``targets``, and
    return ``result.drive(...)``; ``extra`` goes to ``result``.
    Commands are numbered across clients: ``c0`` sends ``op-0`` to
    ``op-<operations - 1>``, ``c1`` the next ``operations``, and so on."""
    clients = [
        cluster.add_node(client, "c%d" % i, targets,
                         ["op-%d" % (i * operations + j)
                          for j in range(operations)], f)
        for i in range(n_clients)
    ]
    return result.drive(cluster, replicas, clients, horizon, **extra)
