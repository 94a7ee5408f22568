"""Reaching Agreement in the Presence of Faults (Pease, Shostak, Lamport 1980).

The paper's founding result: with m Byzantine processes, agreement needs
n >= 3m+1.  The tutorial walks the vector-exchange algorithm for m=1:

1. each process sends its private value to the others,
2. each collects the received values into a vector,
3. every process passes its vector to every other process,
4. for entry i, each process takes the **majority** of the i-th elements
   of the received vectors; no majority → UNKNOWN.

With N=4 and one faulty process the honest processes compute identical
result vectors that are correct for every honest entry (the faulty entry
may be UNKNOWN — consistently so).  With N=3 the same algorithm yields
all-UNKNOWN: below 3m+1 the faulty process can always force a tie.

The module also implements the classic recursive OM(m) oral-messages
algorithm for general m, used by the property tests to check the bound
n >= 3m+1 at several (n, m) points.
"""

from dataclasses import dataclass

from ..net.message import Message
from .replica import Replica

UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ValueMsg(Message):
    """Step 1: a process's private value."""

    value: object


@dataclass(frozen=True)
class VectorMsg(Message):
    """Step 3: a process's collected vector (tuple indexed by process)."""

    vector: tuple


class ICProcess(Replica):
    """An honest participant in the vector-exchange algorithm.

    The synchronous rounds are driven by fixed virtual times: round
    boundaries at ``round_length`` and ``2 * round_length`` — safe with
    any delivery model whose delays stay below ``round_length``.  It
    counts majorities, not quorums.
    """

    def __init__(self, sim, network, name, peers, value, round_length=2.0):
        super().__init__(sim, network, name, peers)
        self.index = self.peers.index(name)
        self.value = value
        self.round_length = round_length
        self.got = {name: value}
        self.received_vectors = {}
        self.result = None

    def on_start(self):
        self.multicast(self.other_peers, ValueMsg(self.value))
        self.set_timer(self.round_length, self._send_vector)
        self.set_timer(2 * self.round_length, self._compute_result)

    def handle_valuemsg(self, msg, src):
        self.got[src] = msg.value

    def _vector(self):
        return tuple(self.got.get(peer, UNKNOWN) for peer in self.peers)

    def _send_vector(self):
        self.multicast(self.other_peers, VectorMsg(self._vector()))

    def handle_vectormsg(self, msg, src):
        self.received_vectors[src] = msg.vector

    def _compute_result(self):
        """Step 4: entry-wise majority over the received vectors."""
        vectors = list(self.received_vectors.values())
        result = []
        for i in range(len(self.peers)):
            values = [vector[i] for vector in vectors if len(vector) == len(self.peers)]
            result.append(majority(values))
        self.result = tuple(result)


class ByzantineICProcess(ICProcess):
    """A faulty participant: tells a different lie to every receiver.

    Step 1 sends distinct bogus values (the slides' x, y, z); step 3
    sends a fresh garbage vector per receiver (a, b, c, d).
    """

    def on_start(self):
        for k, peer in enumerate(self.peers):
            if peer != self.name:
                self.send(peer, ValueMsg("bogus-%s-%d" % (self.name, k)))
        self.set_timer(self.round_length, self._send_vector)
        # A Byzantine process computes no meaningful result.

    def _send_vector(self):
        for k, peer in enumerate(self.peers):
            if peer != self.name:
                garbage = tuple(
                    "junk-%s-%d-%d" % (self.name, k, i)
                    for i in range(len(self.peers))
                )
                self.send(peer, VectorMsg(garbage))


def majority(values):
    """Strict majority of ``values``; :data:`UNKNOWN` when none exists."""
    if not values:
        return UNKNOWN
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    best_value, best_count = max(counts.items(), key=lambda item: item[1])
    if best_count * 2 > len(values):
        return best_value
    return UNKNOWN


@dataclass
class ICResult:
    processes: list
    faulty: list

    def honest(self):
        return [p for p in self.processes if not isinstance(p, ByzantineICProcess)]

    def honest_results(self):
        return [p.result for p in self.honest()]

    def agreement(self):
        """Every honest process computed the same result vector."""
        results = self.honest_results()
        return all(r == results[0] for r in results)

    def validity(self):
        """Every honest process's entry equals its true private value in
        every honest result vector."""
        honest = self.honest()
        for process in honest:
            if process.result is None:
                return False
            for other in honest:
                if process.result[other.index] != other.value:
                    return False
        return True


def run_interactive_consistency(cluster, n=4, faulty=(2,), round_length=2.0,
                                horizon=50.0):
    """Run the vector-exchange algorithm with the given faulty indices."""
    names = ["P%d" % (i + 1) for i in range(n)]
    processes = []
    for i, name in enumerate(names):
        factory = ByzantineICProcess if i in faulty else ICProcess
        processes.append(
            cluster.add_node(factory, name, names, i + 1, round_length=round_length)
        )
    cluster.start_all()
    cluster.run(until=horizon)
    return ICResult(processes=processes, faulty=[names[i] for i in faulty])


# -- recursive oral messages OM(m) -------------------------------------------


def om_decide(m, commander_value, n, traitors, sender=0, receivers=None,
              lie=None, depth_path=()):
    """The Lamport/Shostak/Pease OM(m) algorithm as a pure computation.

    Returns the per-lieutenant decisions as a dict ``{index: value}`` for
    the loyal lieutenants.  ``traitors`` is a set of process indices; a
    traitor relays ``lie(path, receiver)`` instead of the true value
    (default: a value keyed by the recursion path, maximally confusing).

    This runs the full exponential message recursion, so keep n small
    (n <= 7 in tests).
    """
    if receivers is None:
        receivers = [i for i in range(n) if i != sender]
    if lie is None:
        def lie(path, receiver):
            return "L%s>%d" % ("/".join(map(str, path)), receiver)

    def om(m_level, sender_, value, receivers_, path):
        # What each receiver ends up *deciding* the sender said.
        received = {}
        for receiver in receivers_:
            if sender_ in traitors:
                received[receiver] = lie(path + (sender_,), receiver)
            else:
                received[receiver] = value
        if m_level == 0:
            return received
        decided = {}
        # Each receiver relays what it received to the other receivers,
        # then takes the majority of its own value and the relayed ones.
        relayed = {}  # receiver -> {relayer: value}
        for relayer in receivers_:
            sub_receivers = [r for r in receivers_ if r != relayer]
            sub = om(m_level - 1, relayer, received[relayer], sub_receivers,
                     path + (sender_,))
            for receiver, value_ in sub.items():
                relayed.setdefault(receiver, {})[relayer] = value_
        for receiver in receivers_:
            values = [received[receiver]]
            values.extend(
                relayed.get(receiver, {}).get(r)
                for r in receivers_
                if r != receiver
            )
            decided[receiver] = majority([v for v in values if v is not None])
        return decided

    decisions = om(m, sender, commander_value, list(receivers), depth_path)
    return {i: v for i, v in decisions.items() if i not in traitors}


def om_satisfies_ic(m, n, traitors, commander_value="ATTACK"):
    """Check the two Byzantine Generals conditions for one OM(m) run:

    * IC1 — all loyal lieutenants decide the same value,
    * IC2 — if the commander is loyal, they decide its value.
    """
    decisions = om_decide(m, commander_value, n, set(traitors))
    values = set(decisions.values())
    ic1 = len(values) <= 1
    ic2 = True
    if 0 not in traitors and decisions:
        ic2 = values == {commander_value}
    return ic1 and ic2
