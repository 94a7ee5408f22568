"""Atomic commitment: Two-Phase and Three-Phase Commit.

2PC is the tutorial's example of agreement *without* fault-tolerant
replication of the decision: value discovery (vote collection) feeds the
decision directly, so a coordinator crash in the window after cohorts
vote *yes* but before they learn the outcome leaves them **blocked** —
they can neither commit (the decision might have been abort) nor abort
(it might have been commit).  Even cooperative termination cannot help
when no surviving cohort knows the outcome.

3PC inserts the C&C fault-tolerant-agreement phase that 2PC skips: the
decision is first *replicated* to cohorts as PRE-COMMIT, and only then
committed.  With a termination protocol (elect a new coordinator,
collect states, decide by the standard rules) a single coordinator crash
no longer blocks anyone — the figure the slides draw as "Fault-tolerant
3PC (with Termination)".
"""

import enum
from dataclasses import dataclass

from ..core.framework import CCPhase, CCTrace
from ..core.node import Node
from ..net.message import Message


class TxState(enum.Enum):
    """A cohort's transaction state (READY is the uncertainty window)."""

    INIT = "init"
    READY = "ready"  # voted yes; uncertain
    PRECOMMITTED = "precommitted"  # 3PC only
    COMMITTED = "committed"
    ABORTED = "aborted"


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class VoteRequest(Message):
    txid: str


@dataclass(frozen=True)
class Vote(Message):
    txid: str
    yes: bool


@dataclass(frozen=True)
class PreCommit(Message):
    txid: str


@dataclass(frozen=True)
class PreCommitAck(Message):
    txid: str


@dataclass(frozen=True)
class GlobalCommit(Message):
    txid: str


@dataclass(frozen=True)
class GlobalAbort(Message):
    txid: str


@dataclass(frozen=True)
class DecisionQuery(Message):
    """Cooperative termination: 'do you know the outcome of txid?'"""

    txid: str


@dataclass(frozen=True)
class StateReport(Message):
    """Reply to a decision query / new-coordinator state request."""

    txid: str
    state: str


@dataclass(frozen=True)
class StateRequest(Message):
    """New coordinator (3PC termination) collecting cohort states."""

    txid: str


# -- cohorts ----------------------------------------------------------------


class Cohort(Node):
    """A transaction participant, usable by both 2PC and 3PC.

    Parameters
    ----------
    coordinator:
        Name of the (initial) coordinator.
    peers:
        All cohort names, in succession order for 3PC termination.
    vote_yes:
        This cohort's vote.
    protocol:
        ``"2pc"`` or ``"3pc"`` — controls pre-commit handling and whether
        a coordinator timeout triggers the termination protocol or mere
        cooperative querying.
    decision_timeout:
        How long to stay READY before suspecting the coordinator.
    """

    def __init__(
        self,
        sim,
        network,
        name,
        coordinator,
        peers,
        vote_yes=True,
        protocol="3pc",
        decision_timeout=6.0,
        cooperative=True,
    ):
        super().__init__(sim, network, name)
        if protocol not in ("2pc", "3pc"):
            raise ValueError("protocol must be '2pc' or '3pc'")
        self.coordinator = coordinator
        self.peers = list(peers)
        self.other_peers = [p for p in self.peers if p != name]
        self.vote_yes = vote_yes
        self.protocol = protocol
        self.decision_timeout = decision_timeout
        self.cooperative = cooperative
        self.state = TxState.INIT
        self.blocked = False
        self.is_recovery_coordinator = False
        self._decision_timer = None
        self._recovery_states = {}
        self._precommit_acks = set()
        self.trace = CCTrace(protocol)

    # -- voting ------------------------------------------------------------

    def handle_voterequest(self, msg, src):
        self.trace.enter(CCPhase.VALUE_DISCOVERY, self.sim.now, "vote")
        if self.vote_yes:
            self.state = TxState.READY
            self.send(src, Vote(msg.txid, True))
            self._arm_decision_timer(msg.txid)
        else:
            self.state = TxState.ABORTED
            self.send(src, Vote(msg.txid, False))

    def _arm_decision_timer(self, txid):
        if self._decision_timer is not None:
            self._decision_timer.cancel()
        self._decision_timer = self.set_timer(
            self.decision_timeout, self._on_decision_timeout, txid
        )

    # -- decisions ----------------------------------------------------------

    def handle_precommit(self, msg, src):
        if self.state is TxState.READY and self.protocol == "3pc":
            self.state = TxState.PRECOMMITTED
            self.trace.enter(CCPhase.FT_AGREEMENT, self.sim.now, "pre-commit")
            self.send(src, PreCommitAck(msg.txid))
            self._arm_decision_timer(msg.txid)

    def handle_globalcommit(self, msg, src):
        if self.state not in (TxState.COMMITTED, TxState.ABORTED):
            self.state = TxState.COMMITTED
            self.trace.enter(CCPhase.DECISION, self.sim.now, "commit")
        self.blocked = False
        self._cancel_decision_timer()

    def handle_globalabort(self, msg, src):
        if self.state not in (TxState.COMMITTED, TxState.ABORTED):
            self.state = TxState.ABORTED
            self.trace.enter(CCPhase.DECISION, self.sim.now, "abort")
        self.blocked = False
        self._cancel_decision_timer()

    def _cancel_decision_timer(self):
        if self._decision_timer is not None:
            self._decision_timer.cancel()
            self._decision_timer = None

    # -- coordinator-failure handling -----------------------------------------

    def _on_decision_timeout(self, txid):
        if self.state in (TxState.COMMITTED, TxState.ABORTED):
            return
        if self.protocol == "2pc":
            if self.cooperative:
                # Ask the other cohorts whether anyone knows the outcome.
                self.multicast(self.other_peers, DecisionQuery(txid))
                # If nobody replies with a decision, we stay blocked.
                self.set_timer(self.decision_timeout, self._mark_blocked)
            else:
                self._mark_blocked()
        else:
            self._start_termination(txid)

    def _mark_blocked(self):
        if self.state is TxState.READY:
            self.blocked = True

    def handle_decisionquery(self, msg, src):
        self.send(src, StateReport(msg.txid, self.state.value))

    def handle_statereport(self, msg, src):
        if self.is_recovery_coordinator:
            self._recovery_states[src] = TxState(msg.state)
            self._maybe_terminate(msg.txid)
            return
        # Cooperative 2PC: adopt any known decision.
        if msg.state == TxState.COMMITTED.value:
            self.handle_globalcommit(GlobalCommit(msg.txid), src)
        elif msg.state == TxState.ABORTED.value:
            self.handle_globalabort(GlobalAbort(msg.txid), src)

    # -- 3PC termination protocol ----------------------------------------------

    def _start_termination(self, txid):
        """Elect a new coordinator and run the termination protocol.

        Succession is deterministic: the first live cohort in peer order
        takes over; others re-arm their timers and wait.  (Staggered
        timeouts in the driver make the election collision-free, matching
        the slides' 'elect new leader and execute termination protocol'.)
        """
        successor = self._successor()
        if successor != self.name:
            self._arm_decision_timer(txid)
            return
        self.is_recovery_coordinator = True
        self.trace.enter(CCPhase.LEADER_ELECTION, self.sim.now, "termination")
        self._recovery_states = {self.name: self.state}
        self.multicast(self.other_peers, StateRequest(txid))
        self.set_timer(self.decision_timeout, self._maybe_terminate, txid, True)

    def _successor(self):
        for peer in self.peers:
            node = self.network.node(peer)
            if not node.crashed:
                return peer
        return self.name

    def handle_staterequest(self, msg, src):
        self.send(src, StateReport(msg.txid, self.state.value))
        self._arm_decision_timer(msg.txid)

    def _maybe_terminate(self, txid, force=False):
        if not self.is_recovery_coordinator:
            return
        if self.state in (TxState.COMMITTED, TxState.ABORTED):
            return
        live_peers = [
            p for p in self.peers if not self.network.node(p).crashed
        ]
        if not force and set(self._recovery_states) < set(live_peers):
            return  # wait for everyone alive to report
        states = set(self._recovery_states.values())
        if TxState.ABORTED in states:
            self._announce(txid, commit=False)
        elif TxState.COMMITTED in states:
            self._announce(txid, commit=True)
        elif TxState.PRECOMMITTED in states:
            # Someone reached pre-commit: the decision to commit may exist;
            # push everyone to pre-commit, then commit.
            self._precommit_acks = {self.name}
            if self.state is TxState.READY:
                self.state = TxState.PRECOMMITTED
            self.multicast([p for p in self._recovery_states
                            if p != self.name], PreCommit(txid))
            self.set_timer(self.decision_timeout, self._announce, txid, True)
        else:
            # All uncertain: nobody can have committed — abort is safe.
            self._announce(txid, commit=False)

    def handle_precommitack(self, msg, src):
        if self.is_recovery_coordinator:
            self._precommit_acks.add(src)

    def _announce(self, txid, commit):
        message = GlobalCommit(txid) if commit else GlobalAbort(txid)
        self.multicast(self.other_peers, message)
        if commit:
            self.handle_globalcommit(GlobalCommit(txid), self.name)
        else:
            self.handle_globalabort(GlobalAbort(txid), self.name)


# -- coordinator ---------------------------------------------------------------


class Coordinator(Node):
    """The (initial) transaction coordinator for 2PC and 3PC.

    Crash injection: ``crash_after`` ∈ {None, "votes", "precommits",
    "partial_decision"} — the classic failure windows.
    """

    def __init__(
        self,
        sim,
        network,
        name,
        cohorts,
        txid="tx1",
        protocol="3pc",
        crash_after=None,
        partial_count=0,
    ):
        super().__init__(sim, network, name)
        self.cohorts = list(cohorts)
        self.txid = txid
        self.protocol = protocol
        self.crash_after = crash_after
        self.partial_count = partial_count
        self.votes = {}
        self.precommit_acks = set()
        self.decision = None
        self.trace = CCTrace(protocol)

    def on_start(self):
        self.trace.enter(CCPhase.VALUE_DISCOVERY, self.sim.now, "vote-request")
        self.network.metrics.mark_phase(self.protocol, "vote", self.sim.now)
        self.multicast(self.cohorts, VoteRequest(self.txid))

    def handle_vote(self, msg, src):
        if self.decision is not None:
            return
        self.votes[src] = msg.yes
        if not msg.yes:
            self._decide(commit=False)
            return
        if len(self.votes) == len(self.cohorts) and all(self.votes.values()):
            if self.crash_after == "votes":
                self.crash()
                return
            if self.protocol == "3pc":
                self.trace.enter(CCPhase.FT_AGREEMENT, self.sim.now, "pre-commit")
                self.network.metrics.mark_phase("3pc", "pre-commit",
                                                self.sim.now)
                self.multicast(self.cohorts, PreCommit(self.txid))
            else:
                self._decide(commit=True)

    def handle_precommitack(self, msg, src):
        if self.decision is not None:
            return
        self.precommit_acks.add(src)
        if len(self.precommit_acks) == len(self.cohorts):
            if self.crash_after == "precommits":
                self.crash()
                return
            self._decide(commit=True)

    def _decide(self, commit):
        self.decision = "commit" if commit else "abort"
        self.trace.enter(CCPhase.DECISION, self.sim.now, self.decision)
        self.network.metrics.mark_phase(self.protocol, "decision",
                                        self.sim.now)
        message = GlobalCommit(self.txid) if commit else GlobalAbort(self.txid)
        targets = self.cohorts
        if self.crash_after == "partial_decision":
            targets = self.cohorts[: self.partial_count]
        self.multicast(targets, message)
        if self.crash_after == "partial_decision":
            self.crash()


# -- driver -----------------------------------------------------------------


@dataclass
class CommitResult:
    coordinator: object
    cohorts: list
    messages: int
    duration: float

    def outcomes(self):
        return [c.state for c in self.cohorts]

    def blocked_cohorts(self):
        return [c.name for c in self.cohorts if c.blocked]

    def atomic(self):
        """All non-crashed cohorts reached the same terminal state (or are
        still uncertain — atomicity is only about *divergent* decisions)."""
        terminal = {
            c.state
            for c in self.cohorts
            if not c.crashed and c.state in (TxState.COMMITTED, TxState.ABORTED)
        }
        return len(terminal) <= 1


def run_commit(
    cluster,
    protocol="2pc",
    n_cohorts=3,
    votes=None,
    crash_after=None,
    partial_count=0,
    horizon=100.0,
    cooperative=True,
):
    """Run one distributed transaction through 2PC or 3PC.

    ``votes`` is an optional per-cohort list of booleans (default: all yes).
    """
    cohort_names = ["s%d" % i for i in range(n_cohorts)]
    votes = votes if votes is not None else [True] * n_cohorts
    cohorts = [
        cluster.add_node(
            Cohort,
            name,
            "coord",
            cohort_names,
            vote_yes=votes[i],
            protocol=protocol,
            # Staggered timeouts make 3PC succession deterministic.
            decision_timeout=6.0 + i * 2.0,
            cooperative=cooperative,
        )
        for i, name in enumerate(cohort_names)
    ]
    coordinator = cluster.add_node(
        Coordinator,
        "coord",
        cohort_names,
        protocol=protocol,
        crash_after=crash_after,
        partial_count=partial_count,
    )
    cluster.start_all()
    cluster.run(until=horizon)
    return CommitResult(
        coordinator=coordinator,
        cohorts=cohorts,
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )
