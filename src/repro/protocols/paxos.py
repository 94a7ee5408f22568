"""Single-decree Paxos, as presented in the tutorial.

State per acceptor (the slides' variable box):

* ``BallotNum`` — latest ballot the acceptor took part in (phase 1),
* ``AcceptNum`` — latest ballot it accepted a value in (phase 2),
* ``AcceptVal`` — the latest accepted value.

Phase 1 (*prepare*): a would-be leader picks a new unique ballot and
asks a quorum to join it, learning the outcome of smaller ballots from
the acks.  Phase 2 (*accept*): it proposes its own value — or, if any
ack carried an accepted value, the value with the highest ``AcceptNum``
— and a value accepted by a phase-2 quorum is decided.  The decision is
propagated asynchronously.

The quorum system is pluggable: majorities
(:meth:`~repro.core.quorums.CountingQuorum.tolerating`) give classic
Paxos; handing in asymmetric
:class:`~repro.core.quorums.CountingQuorum` sizes or a
:class:`~repro.core.quorums.GridQuorum` gives Flexible Paxos with *no
changes to the algorithm* — exactly the paper's point.

Proposers restart phase 1 on a timer when preempted; the retry policy
(fixed vs randomized delay) is how the livelock experiment (E3) flips
between "competing proposers can livelock" and the paper's "one
solution: randomized delay before restarting".
"""

from dataclasses import dataclass, field

from ..core.ballot import Ballot
from ..core.framework import CCPhase, CCTrace
from ..core.node import Node
from ..core.quorums import CountingQuorum
from ..net.message import Message


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class Prepare(Message):
    """Phase-1a: join my ballot."""

    ballot: Ballot


@dataclass(frozen=True)
class PrepareAck(Message):
    """Phase-1b: promise + report of latest accepted (ballot, value)."""

    ballot: Ballot
    accept_num: Ballot
    accept_val: object


@dataclass(frozen=True)
class Accept(Message):
    """Phase-2a: proposal of ``value`` at ``ballot``."""

    ballot: Ballot
    value: object


@dataclass(frozen=True)
class AcceptedMsg(Message):
    """Phase-2b: the acceptor accepted (ballot, value)."""

    ballot: Ballot
    value: object


@dataclass(frozen=True)
class Nack(Message):
    """Rejection carrying the higher ballot the acceptor has promised."""

    promised: Ballot


@dataclass(frozen=True)
class Decide(Message):
    """Asynchronous decision dissemination."""

    ballot: Ballot
    value: object


# -- retry policies ----------------------------------------------------------


class FixedBackoff:
    """Deterministic restart delay — the policy that livelocks."""

    def __init__(self, delay=2.0):
        self.delay = delay

    def next_delay(self, rng):
        return self.delay


class RandomizedBackoff:
    """The paper's fix: random delay before restarting, giving 'other
    proposers a chance to finish choosing'."""

    def __init__(self, base=2.0, jitter=6.0):
        self.base = base
        self.jitter = jitter

    def next_delay(self, rng):
        return self.base + rng.uniform(0.0, self.jitter)


# -- acceptor ----------------------------------------------------------------


class PaxosAcceptor(Node):
    """An acceptor: persists ballot state, answers prepares and accepts."""

    def __init__(self, sim, network, name, send_nacks=True):
        super().__init__(sim, network, name)
        self.ballot_num = Ballot.ZERO
        self.accept_num = Ballot.ZERO
        self.accept_val = None
        self.decided = None
        self.send_nacks = send_nacks

    def handle_prepare(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self.ballot_num = msg.ballot
            self.send(src, PrepareAck(msg.ballot, self.accept_num, self.accept_val))
        elif self.send_nacks:
            self.send(src, Nack(self.ballot_num))

    def handle_accept(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self.ballot_num = msg.ballot
            self.accept_num = msg.ballot
            self.accept_val = msg.value
            self.trace_local("accept", ballot=msg.ballot)
            self.send(src, AcceptedMsg(msg.ballot, msg.value))
        elif self.send_nacks:
            self.send(src, Nack(self.ballot_num))

    def handle_decide(self, msg, src):
        self.decided = msg.value

    def on_restart(self):
        """Acceptor state is durable: the paper's model persists
        BallotNum/AcceptNum/AcceptVal across crash-recovery, so nothing
        is cleared here."""


# -- proposer ----------------------------------------------------------------


class PaxosProposer(Node):
    """A proposer that retries with higher ballots until a decision.

    Parameters
    ----------
    acceptors:
        Names of acceptor nodes.
    quorum_system:
        Any :class:`~repro.core.quorums.QuorumSystem` over the acceptors;
        defaults to majority quorums (classic Paxos).
    retry:
        Restart policy; ``RandomizedBackoff`` ensures liveness,
        ``FixedBackoff`` can livelock against a symmetric rival.
    initial_delay:
        Virtual-time offset before the first prepare (used to stagger
        competing proposers).
    """

    def __init__(
        self,
        sim,
        network,
        name,
        acceptors,
        value,
        quorum_system=None,
        retry=None,
        initial_delay=0.0,
        max_rounds=None,
    ):
        super().__init__(sim, network, name)
        self.acceptors = list(acceptors)
        self.my_value = value
        self.quorums = (
            quorum_system if quorum_system is not None
            else CountingQuorum.tolerating(self.acceptors)
        )
        self.retry = retry if retry is not None else RandomizedBackoff()
        self.initial_delay = initial_delay
        self.max_rounds = max_rounds

        self.ballot = Ballot.ZERO
        self.max_seen = Ballot.ZERO
        self.phase = "idle"  # idle | prepare | accept | decided
        self.prepare_acks = {}
        self.accept_acks = set()
        self.decided = None
        self.decided_at = None
        self.rounds = 0
        self.trace = CCTrace("paxos")
        self._retry_timer = None

    # -- round control ---------------------------------------------------

    def on_start(self):
        self.set_timer(self.initial_delay, self._new_round)

    def _new_round(self):
        if self.decided is not None:
            return
        if self.max_rounds is not None and self.rounds >= self.max_rounds:
            return
        self.rounds += 1
        metrics = self.network.metrics
        if self.rounds == 1:
            # Request span: first prepare to this proposer's decision.
            metrics.start_request("paxos:%s" % self.name, self.sim.now)
        base = max(self.max_seen, self.ballot)
        self.ballot = base.successor(self.name)
        self.phase = "prepare"
        self.prepare_acks = {}
        self.accept_acks = set()
        self.trace.enter(CCPhase.LEADER_ELECTION, self.sim.now, str(self.ballot))
        metrics.mark_phase("paxos", "prepare", self.sim.now)
        self.multicast(self.acceptors, Prepare(self.ballot))
        self._arm_retry()

    def _arm_retry(self):
        delay = self.retry.next_delay(self.sim.rng)
        if self._retry_timer is None:
            self._retry_timer = self.set_timer(delay, self._new_round)
        else:
            self._retry_timer.restart(delay)

    # -- phase 1 -----------------------------------------------------------

    def handle_prepareack(self, msg, src):
        if self.phase != "prepare" or msg.ballot != self.ballot:
            return
        self.prepare_acks[src] = (msg.accept_num, msg.accept_val)
        if not self.quorums.is_phase1_quorum(self.prepare_acks.keys()):
            return
        # Value discovery: adopt the value accepted at the highest ballot,
        # if any ack carried one; otherwise propose our own.
        self.trace.enter(CCPhase.VALUE_DISCOVERY, self.sim.now)
        best_num, best_val = Ballot.ZERO, None
        for accept_num, accept_val in self.prepare_acks.values():
            if accept_val is not None and accept_num > best_num:
                best_num, best_val = accept_num, accept_val
        proposal = best_val if best_val is not None else self.my_value
        self.phase = "accept"
        self.trace.enter(CCPhase.FT_AGREEMENT, self.sim.now)
        self.network.metrics.mark_phase("paxos", "accept", self.sim.now)
        self.multicast(self.acceptors, Accept(self.ballot, proposal))
        self._proposal = proposal

    # -- phase 2 -----------------------------------------------------------

    def handle_acceptedmsg(self, msg, src):
        if self.phase != "accept" or msg.ballot != self.ballot:
            return
        self.accept_acks.add(src)
        if not self.quorums.is_phase2_quorum(self.accept_acks):
            return
        self._decide(self._proposal)

    def handle_nack(self, msg, src):
        if msg.promised > self.max_seen:
            self.max_seen = msg.promised

    def handle_decide(self, msg, src):
        if self.decided is None:
            self._decide(msg.value, learned=True)

    def _decide(self, value, learned=False):
        self.decided = value
        self.decided_at = self.sim.now
        self.phase = "decided"
        metrics = self.network.metrics
        if metrics.request_open("paxos:%s" % self.name):
            metrics.finish_request("paxos:%s" % self.name, self.sim.now,
                                   phases=self.rounds)
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        self.trace.enter(CCPhase.DECISION, self.sim.now)
        self.trace_local("learn" if learned else "decide",
                         ballot=self.ballot, value=value)
        if not learned:
            metrics.mark_phase("paxos", "decide", self.sim.now)
            self.broadcast(Decide(self.ballot, value))


# -- drivers ----------------------------------------------------------------


@dataclass
class PaxosResult:
    """Outcome of a driver run, consumed by tests and benches."""

    decided_values: list
    decided_at: float
    rounds: int
    messages: int
    acceptors: list = field(default_factory=list)
    proposers: list = field(default_factory=list)

    @property
    def value(self):
        """The single decided value; ``None`` if nothing decided."""
        values = {v for v in self.decided_values if v is not None}
        if not values:
            return None
        if len(values) > 1:
            raise AssertionError("safety violated: %r" % (values,))
        return values.pop()

    @property
    def agreed(self):
        return self.value is not None


def chosen_value(acceptors, quorum_system):
    """The value chosen per the protocol definition: accepted by a phase-2
    quorum at the same ballot.  Returns ``None`` when no value is chosen.

    This is the ground-truth safety probe used by property tests — it
    inspects acceptor state directly instead of trusting decide messages.
    """
    by_ballot = {}
    for acceptor in acceptors:
        if acceptor.accept_val is not None:
            by_ballot.setdefault(
                (acceptor.accept_num, acceptor.accept_val), set()
            ).add(acceptor.name)
    for (_ballot, value), names in sorted(by_ballot.items(), reverse=True):
        if quorum_system.is_phase2_quorum(names):
            return value
    return None


def run_basic_paxos(
    cluster,
    n_acceptors=5,
    proposals=("X",),
    quorum_system=None,
    retry=None,
    stagger=0.0,
    horizon=500.0,
    max_rounds=None,
):
    """Run single-decree Paxos on ``cluster`` and return a
    :class:`PaxosResult`.

    Parameters
    ----------
    proposals:
        One value per competing proposer.
    stagger:
        Start offset between consecutive proposers.
    """
    acceptor_names = ["a%d" % i for i in range(n_acceptors)]
    acceptors = cluster.add_nodes(PaxosAcceptor, acceptor_names)
    quorums = quorum_system if quorum_system is not None else CountingQuorum.tolerating(acceptor_names)
    proposers = []
    for index, value in enumerate(proposals):
        proposers.append(
            cluster.add_node(
                PaxosProposer,
                "p%d" % (index + 1),
                acceptor_names,
                value,
                quorum_system=quorums,
                retry=retry,
                initial_delay=index * stagger,
                max_rounds=max_rounds,
            )
        )
    cluster.start_all()
    cluster.run_until(
        lambda: all(p.decided is not None for p in proposers), until=horizon
    )
    return PaxosResult(
        decided_values=[p.decided for p in proposers],
        decided_at=max(
            (p.decided_at for p in proposers if p.decided_at is not None),
            default=None,
        ),
        rounds=sum(p.rounds for p in proposers),
        messages=cluster.metrics.messages_total,
        acceptors=acceptors,
        proposers=proposers,
    )
