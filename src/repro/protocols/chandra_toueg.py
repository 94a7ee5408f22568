"""Chandra–Toueg consensus with an unreliable failure detector.

The tutorial's third way around FLP: "adding oracle (failure detector)".
Chandra & Toueg (JACM 1996) showed that the weak detector ◇S —
eventually, some correct process is never suspected — suffices to solve
consensus with a majority of correct processes (n > 2f), asynchrony
notwithstanding.

Two pieces, both here:

* :class:`HeartbeatFailureDetector` — an eventually-perfect-style
  detector: processes heartbeat; silence beyond an adaptive timeout
  means *suspect*; a heartbeat from a suspected process unsuspects it
  and raises its timeout (so permanent false suspicion dies out — the
  "eventually" in ◇S).
* :class:`CTProcess` — the rotating-coordinator algorithm: rounds with
  coordinator ``r mod n``; estimates (with timestamps) flow to the
  coordinator, it proposes the freshest one, processes ack — or *nack
  when the detector suspects the coordinator* — and a majority of acks
  decides, propagated by reliable broadcast.

Safety never depends on the detector being right; only liveness does —
which the tests demonstrate by running with an aggressively wrong
detector and checking agreement still holds.
"""

from dataclasses import dataclass

from ..net.message import Message
from .replica import Replica


@dataclass(frozen=True)
class CtHeartbeat(Message):
    pass


@dataclass(frozen=True)
class Estimate(Message):
    round_id: int
    value: object
    ts: int  # round in which the estimate was last adopted


@dataclass(frozen=True)
class CtProposal(Message):
    round_id: int
    value: object


@dataclass(frozen=True)
class Ack(Message):
    round_id: int
    positive: bool


@dataclass(frozen=True)
class CtDecide(Message):
    value: object


class HeartbeatFailureDetector:
    """Adaptive heartbeat failure detection for one observer process.

    ``suspects(name)`` is the oracle output.  False suspicions heal: a
    heartbeat from a suspected process unsuspects it *and* stretches its
    timeout, so any correct-but-slow process is eventually trusted
    forever — the ◇S property under partial synchrony.
    """

    def __init__(self, owner, peers, interval=1.0, initial_timeout=5.0):
        self.owner = owner
        self.interval = interval
        self.timeouts = {peer: initial_timeout for peer in peers
                         if peer != owner.name}
        self.last_seen = {peer: 0.0 for peer in self.timeouts}
        self.false_suspicions = 0
        self._was_suspected = set()

    def start(self):
        self.owner.set_periodic_timer(self.interval, self._beat)

    def _beat(self):
        self.owner.broadcast(CtHeartbeat())

    def observe(self, peer, now):
        """Record a heartbeat (or any message) from ``peer``."""
        if peer not in self.last_seen:
            return
        if peer in self._was_suspected and self._is_late(peer, now):
            # We were wrong about this one: back off its timeout.
            self.timeouts[peer] *= 2
            self.false_suspicions += 1
        self._was_suspected.discard(peer)
        self.last_seen[peer] = now

    def _is_late(self, peer, now):
        return now - self.last_seen[peer] > self.timeouts[peer]

    def suspects(self, peer, now):
        if peer == self.owner.name:
            return False
        if peer not in self.last_seen:
            return False
        late = self._is_late(peer, now)
        if late:
            self._was_suspected.add(peer)
        return late


class AlwaysSuspecting:
    """The worst admissible oracle: suspects everyone, always.  Kills
    every round's coordinator — liveness suffers, safety must not."""

    false_suspicions = 0

    def start(self):
        pass

    def observe(self, peer, now):
        pass

    def suspects(self, peer, now):
        return True


class CTProcess(Replica):
    """One participant in Chandra–Toueg rotating-coordinator consensus;
    the coordinator of round r is the primary of view r."""

    #: How long a non-coordinator waits for the round's proposal before
    #: consulting the detector (polling granularity, not a synchrony
    #: assumption — a wrong detector only costs extra rounds).
    PROPOSAL_POLL = 2.0

    def __init__(self, sim, network, name, peers, initial, f,
                 detector_factory=None, max_rounds=500):
        super().__init__(sim, network, name, peers, f)
        self.estimate = initial
        self.ts = 0
        self.round = 1
        self.decided = None
        self.decided_round = None
        self.max_rounds = max_rounds
        if detector_factory is None:
            self.detector = HeartbeatFailureDetector(self, self.peers)
        else:
            self.detector = detector_factory(self)
        self._estimates = {}  # round -> {sender: (value, ts)}
        self._acks = {}  # round -> {sender: bool}
        self._proposal_value = {}  # round -> value we proposed (coordinator)
        self._proposal_seen = set()  # rounds whose proposal arrived
        self._acked = set()  # rounds we already acked/nacked
        self._proposed = set()  # rounds we coordinated

    # -- lifecycle ------------------------------------------------------------

    def on_start(self):
        self.detector.start()
        self._begin_round()

    def _begin_round(self):
        if self.decided is not None or self.round > self.max_rounds:
            return
        coordinator = self.primary_of(self.round)
        message = Estimate(self.round, self.estimate, self.ts)
        if coordinator == self.name:
            self._record_estimate(self.round, self.estimate, self.ts,
                                  self.name)
        else:
            self.send(coordinator, message)
        self._await_proposal(self.round)

    def _await_proposal(self, round_id):
        if self.decided is not None or round_id != self.round:
            return
        if round_id in self._proposal_seen:
            return
        coordinator = self.primary_of(round_id)
        if coordinator != self.name and \
                self.detector.suspects(coordinator, self.sim.now):
            # Phase 3, nack branch: suspected coordinator.
            self._send_ack(round_id, positive=False)
            self._advance_round()
            return
        self.set_timer(self.PROPOSAL_POLL, self._await_proposal, round_id)

    def _advance_round(self):
        self.round += 1
        self._begin_round()

    # -- heartbeats --------------------------------------------------------------

    def handle_ctheartbeat(self, msg, src):
        self.detector.observe(src, self.sim.now)

    # -- phase 1/2: estimates to the coordinator, proposal out ----------------------

    def handle_estimate(self, msg, src):
        self.detector.observe(src, self.sim.now)
        self._record_estimate(msg.round_id, msg.value, msg.ts, src)

    def _record_estimate(self, round_id, value, ts, sender):
        if self.primary_of(round_id) != self.name:
            return
        estimates = self._estimates.setdefault(round_id, {})
        estimates[sender] = (value, ts)
        if len(estimates) >= self.quorums.q1 and round_id not in self._proposed:
            self._proposed.add(round_id)
            best_value, _best_ts = max(
                estimates.values(), key=lambda item: item[1]
            )
            self._proposal_value[round_id] = best_value
            proposal = CtProposal(round_id, best_value)
            self._on_proposal(proposal, self.name)
            self.multicast(self.other_peers, proposal)

    # -- phase 3: ack / nack ----------------------------------------------------------

    def handle_ctproposal(self, msg, src):
        self.detector.observe(src, self.sim.now)
        if src != self.primary_of(msg.round_id):
            return
        self._on_proposal(msg, src)

    def _on_proposal(self, msg, src):
        self._proposal_seen.add(msg.round_id)
        if msg.round_id < self.round or self.decided is not None:
            return
        self.estimate = msg.value
        self.ts = msg.round_id
        self._send_ack(msg.round_id, positive=True)
        if msg.round_id == self.round:
            self._advance_round_after_ack(msg.round_id)

    def _advance_round_after_ack(self, round_id):
        # Move on; a decision (if the coordinator gathers a majority)
        # arrives via reliable broadcast.
        if self.round == round_id:
            self.round += 1
            self._begin_round()

    def _send_ack(self, round_id, positive):
        if round_id in self._acked:
            return
        self._acked.add(round_id)
        coordinator = self.primary_of(round_id)
        ack = Ack(round_id, positive)
        if coordinator == self.name:
            self._record_ack(round_id, positive, self.name)
        else:
            self.send(coordinator, ack)

    # -- phase 4: decision --------------------------------------------------------------

    def handle_ack(self, msg, src):
        self.detector.observe(src, self.sim.now)
        self._record_ack(msg.round_id, msg.positive, src)

    def _record_ack(self, round_id, positive, sender):
        if self.primary_of(round_id) != self.name:
            return
        acks = self._acks.setdefault(round_id, {})
        acks[sender] = positive
        positives = sum(1 for value in acks.values() if value)
        if positives >= self.quorums.q2 and self.decided is None:
            self._decide(self.proposal_value_of(round_id))

    def proposal_value_of(self, round_id):
        return self._proposal_value.get(round_id, self.estimate)

    def _decide(self, value):
        if self.decided is not None:
            return
        self.decided = value
        self.decided_round = self.round
        self.trace_local("decide", round=self.round, value=value)
        # Reliable broadcast: everyone relays the decision once.
        self.multicast(self.other_peers, CtDecide(value))

    def handle_ctdecide(self, msg, src):
        if self.decided is None:
            self.decided = msg.value
            self.decided_round = self.round
            self.trace_local("learn", round=self.round, value=msg.value)
            self.multicast(self.other_peers, CtDecide(msg.value))


@dataclass
class CTResult:
    processes: list
    messages: int
    duration: float

    def decided_values(self):
        return [p.decided for p in self.processes if not p.crashed]

    def agreement(self):
        values = {v for v in self.decided_values() if v is not None}
        return len(values) <= 1

    def all_decided(self):
        return all(v is not None for v in self.decided_values())


def run_chandra_toueg(cluster, n=5, f=2, initial_values=None,
                      detector_factory=None, horizon=3000.0, max_rounds=500):
    """Drive Chandra–Toueg consensus to (probable) decision."""
    names = ["ct%d" % i for i in range(n)]
    if initial_values is None:
        initial_values = ["v%d" % i for i in range(n)]
    processes = [
        cluster.add_node(CTProcess, name, names, initial_values[i], f,
                         detector_factory=detector_factory,
                         max_rounds=max_rounds)
        for i, name in enumerate(names)
    ]
    cluster.start_all()
    cluster.run_until(
        lambda: all(p.decided is not None
                    for p in processes if not p.crashed),
        until=horizon,
    )
    return CTResult(
        processes=processes,
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )
