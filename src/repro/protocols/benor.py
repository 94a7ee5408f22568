"""Ben-Or's randomized consensus (PODC 1983) — circumventing FLP.

The FLP theorem: no *deterministic* 1-crash-robust consensus exists in
an asynchronous system.  The tutorial's first circumvention is to
**sacrifice determinism**: Ben-Or's algorithm tosses coins, and
terminates with probability 1 (expected exponential rounds in general,
constant when a value has a head start).

Binary consensus, crash model, n > 2f.  Each round has two phases:

* **report** — broadcast your current estimate; collect n−f reports.
  If a strict majority of *all* n reports the same v, propose v; else
  propose ⊥.
* **propose** — collect n−f proposals.  If f+1 proposals carry the same
  v ≠ ⊥, **decide** v.  If at least one carries v ≠ ⊥, adopt v.
  Otherwise flip a coin.

Safety holds deterministically (two different values can never both
reach a majority of reports); only termination is probabilistic — the
property E14 measures as a rounds-to-decide distribution.
"""

from dataclasses import dataclass

from ..net.message import Message
from .replica import Replica

UNDECIDED = "?"


@dataclass(frozen=True)
class Report(Message):
    round_id: int
    value: int


@dataclass(frozen=True)
class Proposal(Message):
    round_id: int
    value: object  # 0, 1, or UNDECIDED


@dataclass(frozen=True)
class DecisionMsg(Message):
    """Terminal gossip: a decided node announces its value so laggards
    stuck waiting on its round messages can finish immediately."""

    value: int


class BenOrNode(Replica):
    """One participant in Ben-Or binary consensus.

    Only the crash rule's bound, n > 2f, matters here: the rounds wait
    for n - f messages and count majorities and f+1, not quorums.
    """

    def __init__(self, sim, network, name, peers, initial, f, max_rounds=200):
        super().__init__(sim, network, name, peers, f)
        self.estimate = initial
        self.round = 1
        self.decided = None
        self.decided_round = None
        self.max_rounds = max_rounds
        self._reports = {}  # round -> {name: value}
        self._proposals = {}  # round -> {name: value}
        self._phase = "report"

    def on_start(self):
        self._broadcast_report()

    # -- phase 1: report -------------------------------------------------------

    def _broadcast_report(self):
        self._phase = "report"
        message = Report(self.round, self.estimate)
        self._record_report(self.round, self.estimate, self.name)
        self.multicast(self.other_peers, message)

    def handle_report(self, msg, src):
        self._record_report(msg.round_id, msg.value, src)

    def _record_report(self, round_id, value, sender):
        self._reports.setdefault(round_id, {})[sender] = value
        self._maybe_advance()

    # -- phase 2: propose -------------------------------------------------------

    def _broadcast_proposal(self, value):
        self._phase = "propose"
        message = Proposal(self.round, value)
        self._record_proposal(self.round, value, self.name)
        self.multicast(self.other_peers, message)

    def handle_proposal(self, msg, src):
        self._record_proposal(msg.round_id, msg.value, src)

    def _record_proposal(self, round_id, value, sender):
        self._proposals.setdefault(round_id, {})[sender] = value
        self._maybe_advance()

    # -- round engine --------------------------------------------------------------

    def _maybe_advance(self):
        if self.decided is not None or self.round > self.max_rounds:
            return
        threshold = self.n - self.f
        if self._phase == "report":
            reports = self._reports.get(self.round, {})
            if len(reports) < threshold:
                return
            counts = {}
            for value in reports.values():
                counts[value] = counts.get(value, 0) + 1
            majority = [v for v, c in counts.items() if 2 * c > self.n]
            self._broadcast_proposal(majority[0] if majority else UNDECIDED)
        else:
            proposals = self._proposals.get(self.round, {})
            if len(proposals) < threshold:
                return
            concrete = {}
            for value in proposals.values():
                if value != UNDECIDED:
                    concrete[value] = concrete.get(value, 0) + 1
            decided_values = [v for v, c in concrete.items() if c >= self.f + 1]
            if decided_values:
                self.decided = decided_values[0]
                self.decided_round = self.round
                self.estimate = self.decided
                self.trace_local("decide", round=self.round,
                                 value=self.decided)
                # Terminal gossip so laggards decide too.
                self.multicast(self.other_peers, DecisionMsg(self.decided))
                return
            if concrete:
                self.estimate = next(iter(concrete))
            else:
                self.estimate = self.sim.rng.choice((0, 1))
            self._advance_round()

    def _advance_round(self):
        self.round += 1
        if self.round <= self.max_rounds:
            self._broadcast_report()

    def handle_decisionmsg(self, msg, src):
        if self.decided is None:
            self.decided = msg.value
            self.decided_round = self.round
            self.estimate = msg.value
            self.trace_local("learn", round=self.round, value=msg.value)
            self.multicast(self.other_peers, DecisionMsg(msg.value))


@dataclass
class BenOrResult:
    nodes: list
    messages: int
    duration: float

    def decided_values(self):
        return [n.decided for n in self.nodes if not n.crashed]

    def agreement(self):
        values = {v for v in self.decided_values() if v is not None}
        return len(values) <= 1

    def all_decided(self):
        return all(v is not None for v in self.decided_values())

    def max_round(self):
        rounds = [n.decided_round for n in self.nodes
                  if n.decided_round is not None]
        return max(rounds) if rounds else None


def run_benor(cluster, n=5, f=1, initial_values=None, crash_indices=(),
              horizon=10000.0, max_rounds=200):
    """Run Ben-Or consensus; default initial values are a near-even split
    (the hard case that actually needs the coin flips)."""
    names = ["p%d" % i for i in range(n)]
    if initial_values is None:
        initial_values = [i % 2 for i in range(n)]
    nodes = [
        cluster.add_node(BenOrNode, name, names, initial_values[i], f,
                         max_rounds=max_rounds)
        for i, name in enumerate(names)
    ]
    for index in crash_indices:
        nodes[index].crash()
    cluster.start_all()
    cluster.run_until(
        lambda: all(node.decided is not None
                    for node in nodes if not node.crashed),
        until=horizon,
    )
    return BenOrResult(
        nodes=nodes,
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )
