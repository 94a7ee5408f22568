"""Fast Paxos (Lamport, Distributed Computing 2006), as in the tutorial.

Basic Paxos needs 3 message delays from client request to learning
(client → leader → replicas → leader).  Fast Paxos cuts that to 2 by
letting the client bypass the leader: the leader pre-authorises a *fast
round* with an **Any** message, after which each replica accepts the
first client value it sees and reports straight back.  The cost is the
bigger cluster — **3f+1 nodes instead of 2f+1** — because with quorums
of size 2f+1, any two fast quorums and a classic quorum intersect only
when n >= 3f+1 (3·(n−f) − 2n >= 1).

When two clients race, replicas split between values: a **collision**.
No value reaches a fast quorum, so the leader falls back to a *classic
round*: among the reported values it picks the one that could have been
chosen (reported by at least f+1 replicas — "the value with the majority
quorum if exists"), and runs an ordinary coordinated accept phase.
Hence the property box: 1 **or** 3 phases.
"""

from dataclasses import dataclass

from ..core.node import Node
from ..core.quorums import minimum_nodes
from ..net.message import Message
from .replica import Replica


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class AnyMsg(Message):
    """Leader's pre-authorisation: accept the next client value directly."""

    round_id: int


@dataclass(frozen=True)
class ClientValue(Message):
    """A client's value, sent to every replica (the fast-round Accept!)."""

    round_id: int
    value: object


@dataclass(frozen=True)
class FastAccepted(Message):
    round_id: int
    value: object


@dataclass(frozen=True)
class ClassicAccept(Message):
    """Leader-coordinated accept during collision recovery."""

    round_id: int
    value: object


@dataclass(frozen=True)
class ClassicAccepted(Message):
    round_id: int
    value: object


@dataclass(frozen=True)
class Commit(Message):
    round_id: int
    value: object


# -- replicas ----------------------------------------------------------------


class FastPaxosReplica(Node):
    """An acceptor in Fast Paxos."""

    def __init__(self, sim, network, name, leader):
        super().__init__(sim, network, name)
        self.leader = leader
        self.fast_round = None  # round id enabled by an Any message
        self.accepted = {}  # round_id -> value
        self.decided = None
        self._pending = {}  # round_id -> first client value seen pre-Any

    def handle_anymsg(self, msg, src):
        if src != self.leader:
            return
        self.fast_round = msg.round_id
        # A client value may have raced ahead of the Any message; accept
        # the first one buffered for this round now.
        pending = self._pending.pop(msg.round_id, None)
        if pending is not None and msg.round_id not in self.accepted:
            self.accepted[msg.round_id] = pending
            self.send(self.leader, FastAccepted(msg.round_id, pending))

    def handle_clientvalue(self, msg, src):
        # Accept the first value seen in an enabled fast round.
        if self.fast_round != msg.round_id:
            self._pending.setdefault(msg.round_id, msg.value)
            return
        if msg.round_id in self.accepted:
            return  # already accepted a (possibly different) value
        self.accepted[msg.round_id] = msg.value
        self.send(self.leader, FastAccepted(msg.round_id, msg.value))

    def handle_classicaccept(self, msg, src):
        if src != self.leader:
            return
        # Classic rounds use a higher round id and override fast acceptance.
        self.accepted[msg.round_id] = msg.value
        self.send(self.leader, ClassicAccepted(msg.round_id, msg.value))

    def handle_commit(self, msg, src):
        self.decided = msg.value


class FastPaxosLeader(Replica):
    """The coordinator: opens fast rounds, resolves collisions.

    Parameters
    ----------
    replicas:
        Names of the 3f+1 acceptors: the leader's peers, though it is
        not one of them.
    f:
        Tolerated crash failures; quorums are 2f+1.  Fast quorums
        (b = f): any two share f+1 replicas, so two fast quorums and a
        classic one still meet.
    """

    protocol = "fast-paxos"

    def __init__(self, sim, network, name, replicas, f):
        super().__init__(sim, network, name, replicas, f, b=f)
        self.round_id = 1
        self.fast_votes = {}  # src -> value
        self.classic_votes = {}  # src -> value
        self.decided = None
        self.decided_at = None
        self.collision = False
        self.classic_round_id = None

    def on_start(self):
        self.mark_phase("any")
        self.multicast(self.peers, AnyMsg(self.round_id))

    # -- fast path ---------------------------------------------------------

    def handle_fastaccepted(self, msg, src):
        if self.decided is not None or msg.round_id != self.round_id:
            return
        if self.classic_round_id is not None:
            return  # already recovering
        self.fast_votes[src] = msg.value
        counts = self._counts(self.fast_votes)
        for value, count in counts.items():
            if count >= self.quorums.q2:
                self._decide(value)
                return
        # Collision detection: once n−f replicas reported and no value can
        # still reach a fast quorum, start coordinated recovery.
        responded = len(self.fast_votes)
        outstanding = self.n - responded
        best = max(counts.values(), default=0)
        if responded >= self.n - self.f and best + outstanding < self.quorums.q2:
            self._start_classic_round()
        elif responded == self.n and best < self.quorums.q2:
            self._start_classic_round()

    @staticmethod
    def _counts(votes):
        counts = {}
        for value in votes.values():
            counts[value] = counts.get(value, 0) + 1
        return counts

    # -- classic recovery ----------------------------------------------------

    def _start_classic_round(self):
        self.collision = True
        self.classic_round_id = self.round_id + 1
        self.mark_phase("classic")
        counts = self._counts(self.fast_votes)
        # A value reported by >= f+1 replicas might have been chosen by a
        # fast quorum we didn't fully observe; it must be re-proposed.
        candidates = {v: c for v, c in counts.items() if c >= self.quorums.b + 1}
        pool = candidates if candidates else counts
        # Deterministic pick: highest count, then lexicographic value.
        value = sorted(pool.items(), key=lambda item: (-item[1], str(item[0])))[0][0]
        self.classic_votes = {}
        self.multicast(self.peers, ClassicAccept(self.classic_round_id, value))

    def handle_classicaccepted(self, msg, src):
        if self.decided is not None or msg.round_id != self.classic_round_id:
            return
        self.classic_votes[src] = msg.value
        counts = self._counts(self.classic_votes)
        for value, count in counts.items():
            if count >= self.quorums.q2:
                self._decide(value)
                return

    def _decide(self, value):
        self.decided = value
        self.decided_at = self.sim.now
        self.mark_phase("commit")
        self.multicast(self.peers, Commit(self.round_id, value))


class FastPaxosClient(Node):
    """Sends its value directly to all replicas at ``send_at``."""

    def __init__(self, sim, network, name, replicas, value, round_id=1, send_at=0.0):
        super().__init__(sim, network, name)
        self.replicas = list(replicas)
        self.value = value
        self.round_id = round_id
        self.send_at = send_at
        self.sent_time = None

    def on_start(self):
        self.set_timer(self.send_at, self._send)

    def _send(self):
        self.sent_time = self.sim.now
        self.multicast(self.replicas, ClientValue(self.round_id, self.value))


# -- driver -----------------------------------------------------------------


@dataclass
class FastPaxosResult:
    decided: object
    decided_at: float
    collision: bool
    messages: int
    leader: object
    replicas: list
    clients: list

    def learn_delay(self):
        """Message delays from the earliest client send to the leader's
        decision (with a unit-delay synchronous network this equals the
        paper's delay count: 2 fast, 4 after a collision)."""
        sends = [c.sent_time for c in self.clients if c.sent_time is not None]
        if not sends or self.decided_at is None:
            return None
        return self.decided_at - min(sends)


def run_fast_paxos(cluster, f=1, values=("X",), client_offsets=None, horizon=100.0):
    """Run one Fast Paxos instance with the given concurrent client values."""
    replica_names = ["r%d" % i for i in range(minimum_nodes(f, b=f))]
    leader = cluster.add_node(FastPaxosLeader, "leader", replica_names, f)
    replicas = cluster.add_nodes(FastPaxosReplica, replica_names, "leader")
    offsets = client_offsets or [0.5] * len(values)
    clients = [
        cluster.add_node(
            FastPaxosClient, "c%d" % i, replica_names, value, send_at=offsets[i]
        )
        for i, value in enumerate(values)
    ]
    cluster.start_all()
    cluster.run_until(lambda: leader.decided is not None, until=horizon)
    return FastPaxosResult(
        decided=leader.decided,
        decided_at=leader.decided_at,
        collision=leader.collision,
        messages=cluster.metrics.messages_total,
        leader=leader,
        replicas=replicas,
        clients=clients,
    )
