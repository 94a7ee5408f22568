"""Multi-Paxos: a separate Paxos instance per log entry, optimised.

The slides' construction: add an *index* argument to Prepare and Accept
(selecting the log entry), then apply the key optimisation — run phase 1
only when the leader changes ("view change" / "recovery mode"); phase 2
is the "normal mode".  Each message carries the ballot from the last
phase 1 plus the request number, and replicas respond only to messages
with the right ballot.

The client interaction follows the four numbered steps on the slides:
the client sends a command to a server; the server uses Paxos to choose
it for a log entry; the server waits for previous entries to be applied,
applies the command to the state machine; and returns the result.

A leader replicates a batch of new slots (see
:mod:`repro.protocols.leader`'s window) with one ``MPAccept`` carrying
the run of values from its first ``index``, and a follower acks the run
with one ``MPAccepted(ballot, index, count)``; a slot's log entry,
pending acks, commit and ``propose``/``commit`` trace rows stay per
slot.

Followers learn what is committed the way Raft's do: every ``MPAccept``
and ``Heartbeat`` carries the leader's applied prefix (its
``last_applied``), and a follower marks committed each slot up to it
that it holds *at the message's ballot* — an entry accepted under an
older ballot may hold a value the new leader replaced.  Two repairs keep
that live under loss: a follower that a heartbeat shows behind asks the
leader to catch it up from its own applied prefix, and the leader
re-sends, one ``MPAccept`` per run of consecutive slots, each slot that
has stayed pending past the election timeout while acks stopped or a
later slot committed.

Replicas monitor the leader with heartbeats; on silence, the next
replica in ring order runs phase 1 with a higher ballot, learns every
accepted entry from a quorum, re-proposes anything uncommitted, and
takes over — the C&C leader-election + value-discovery phases made
explicit.
"""

from dataclasses import dataclass
from itertools import starmap

from ..core.ballot import Ballot
from ..core.client import ClosedLoopClient
from ..net.message import Message
from .leader import LeaderReplica, LeaderResult, leader_row, run_leader_log


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class ClientRequest(Message):
    command: object
    request_id: str


@dataclass(frozen=True)
class ClientReply(Message):
    request_id: str
    result: object


@dataclass(frozen=True)
class Redirect(Message):
    """Sent to clients that contacted a non-leader."""

    request_id: str
    leader_hint: str


@dataclass(frozen=True)
class MPPrepare(Message):
    """View-change phase 1: join ballot, report the whole accepted log."""

    ballot: Ballot


@dataclass(frozen=True)
class MPPrepareAck(Message):
    ballot: Ballot
    accepted: tuple  # ((index, ballot, value), ...)
    commit_index: int


@dataclass(frozen=True)
class MPAccept(Message):
    """Normal-mode phase 2 for the consecutive log indices from
    ``index``, one per value, carrying the leader's applied prefix
    (``commit_index``) as the commit decision."""

    ballot: Ballot
    index: int
    values: tuple
    commit_index: int


@dataclass(frozen=True)
class MPAccepted(Message):
    """Acks the ``count`` slots an ``MPAccept`` carried from ``index``."""

    ballot: Ballot
    index: int
    count: int = 1


@dataclass(frozen=True)
class Heartbeat(Message):
    ballot: Ballot
    commit_index: int


@dataclass(frozen=True)
class MPCatchUp(Message):
    """A follower behind the leader's applied prefix asks for the
    committed entries from ``start`` on."""

    ballot: Ballot
    start: int


@dataclass(frozen=True)
class MPCatchUpReply(Message):
    ballot: Ballot
    entries: tuple  # ((index, ballot, value), ...), every one committed


# -- replica ----------------------------------------------------------------


@dataclass
class _EntryState:
    accept_num: Ballot
    value: object
    committed: bool = False


@dataclass(frozen=True)
class LogCommand:
    """A client command plus its request id, stored as the log value so
    any future leader can deduplicate client retries.  Every value in a
    Multi-Paxos log is one."""

    command: object
    request_id: str


class MultiPaxosReplica(LeaderReplica):
    """A Multi-Paxos server: acceptor + learner + (sometimes) leader.

    ``peers`` order determines leadership succession: the first replica
    bootstraps as leader.  The other parameters are
    :class:`~repro.protocols.leader.LeaderReplica`'s.
    """

    REPLY, REDIRECT = ClientReply, Redirect
    protocol = "multi-paxos"

    def __init__(
        self,
        sim,
        network,
        name,
        peers,
        state_machine_factory=None,
        election_timeout=5.0,
    ):
        super().__init__(sim, network, name, peers, state_machine_factory,
                         election_timeout)
        self.ballot_num = Ballot.ZERO
        self.log = {}  # index -> _EntryState
        self.leader_hint = self.peers[0]
        self.next_index = 0
        # index -> (proposed or last re-sent at, set of ack senders), in
        # the order of that time
        self._pending = {}
        self._acked_at = 0.0  # when the last MPAccepted came in
        self._prepare_acks = {}
        self._preparing = None
        self.view_changes = 0

    def on_start(self):
        if self.name == self.peers[0]:
            # Bootstrap: the first replica claims leadership via phase 1,
            # exactly once — afterwards only failures trigger phase 1.
            self._start_prepare()
        else:
            super().on_start()

    # -- leader election (phase 1 / view change) ---------------------------

    def _start_prepare(self):
        if self.crashed:
            return
        self.view_changes += 1
        self.ballot_num = self.ballot_num.successor(self.name)
        self._preparing = self.ballot_num
        self._prepare_acks = {}
        self.mark_phase("prepare")
        self._record_prepare_ack(self.name, self._own_accepted(), self.commit_index)
        self.multicast(self.other_peers, MPPrepare(self.ballot_num))
        self._arm_election_timer()

    _start_election = _start_prepare

    def _own_accepted(self):
        return tuple(
            (index, entry.accept_num, entry.value)
            for index, entry in self.log.items()
        )

    def _follow(self, ballot, leader):
        """Adopt ``ballot`` (at least ours) and follow ``leader``, the
        replica that owns it or sent it.  Following deposes us: a leader,
        or a candidate whose phase 1 the ballot supersedes, that kept
        going would propose its own ``next_index`` under the new owner's
        ballot and could overwrite a slot that owner already committed."""
        self.ballot_num = ballot
        self._preparing = None
        self._step_down(leader)

    def handle_mpprepare(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self._follow(msg.ballot, msg.ballot.pid)
            self.send(
                src,
                MPPrepareAck(msg.ballot, self._own_accepted(), self.commit_index),
            )

    def handle_mpprepareack(self, msg, src):
        if self._preparing is None or msg.ballot != self._preparing:
            return
        self._record_prepare_ack(src, msg.accepted, msg.commit_index)

    def _record_prepare_ack(self, src, accepted, commit_index):
        self._prepare_acks[src] = (accepted, commit_index)
        if not self.quorums.is_phase1_quorum(self._prepare_acks.keys()):
            return
        self._become_leader()

    def _epoch(self):
        return {"ballot": self.ballot_num}

    def _take_over(self):
        self._preparing = None
        self._pending = {}
        self._acked_at = self.sim.now
        # Value discovery: adopt, per index, the value of the highest
        # accept ballot seen in the quorum, then re-propose uncommitted
        # entries under the new ballot.
        best = {}
        max_commit = self.commit_index
        for accepted, commit_index in self._prepare_acks.values():
            max_commit = max(max_commit, commit_index)
            for index, accept_num, value in accepted:
                current = best.get(index)
                if current is None or accept_num > current[0]:
                    best[index] = (accept_num, value)
        for index, (accept_num, value) in sorted(best.items()):
            entry = self.log.get(index)
            if entry is None or accept_num > entry.accept_num:
                self._write(index, _EntryState(accept_num, value,
                                               committed=index <= max_commit))
            elif index <= max_commit:
                # An entry adopted in an earlier (failed) election may
                # carry a stale committed=False; the quorum's commit
                # index proves it committed (values agree by quorum
                # intersection).
                entry.committed = True
        self.next_index = max(best.keys(), default=self.commit_index) + 1
        # Catch up on everything the quorum knows to be committed...
        self.commit_index = max(self.commit_index, max_commit)
        self._apply_ready()
        # ...and re-run agreement for anything still uncommitted.
        for index in sorted(best):
            if index > max_commit:
                self._propose(index, (best[index][1],))

    def _send_heartbeat(self):
        self.multicast(self.other_peers,
                       Heartbeat(self.ballot_num, self.last_applied))

    def handle_heartbeat(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self._follow(msg.ballot, src)
            self._learn(msg.ballot, msg.commit_index)
            if msg.commit_index > self.last_applied:
                # A slot we lack, or hold at an older ballot: ask again
                # at every such heartbeat, since the ask can be lost too.
                self.send(src, MPCatchUp(msg.ballot, self.last_applied + 1))

    def handle_mpcatchup(self, msg, src):
        if not self.is_leader or msg.ballot != self.ballot_num:
            return
        log = self.log
        self.send(src, MPCatchUpReply(self.ballot_num, tuple(
            (index, log[index].accept_num, log[index].value)
            for index in range(msg.start, self.last_applied + 1))))

    def handle_mpcatchupreply(self, msg, src):
        for index, accept_num, value in msg.entries:
            entry = self.log.get(index)
            if entry is None or not entry.committed:
                self._write(index, _EntryState(accept_num, value,
                                               committed=True))
            self.commit_index = max(self.commit_index, index)
        self._apply_ready()

    # -- normal mode (phase 2) ---------------------------------------------

    handle_clientrequest = LeaderReplica.on_clientrequest

    def _write(self, index, entry):
        """Every log write: store ``entry`` and index its request id."""
        self.log[index] = entry
        self._note_write(entry.value.request_id, index)

    def _last_index(self):
        return self.next_index - 1

    def _request_at(self, index):
        entry = self.log.get(index)
        if entry is None or index >= self.next_index:
            return None  # a slot this leader has not assigned yet
        return entry.value.request_id

    def _append(self, batch):
        index = self.next_index
        self.next_index += len(batch)
        self._propose(index, tuple(starmap(LogCommand, batch)))
        return index

    def _propose(self, index, values):
        """Propose ``values`` for the slots from ``index`` on, in one
        ``MPAccept``."""
        self.mark_phase("accept")
        ballot, now = self.ballot_num, self.sim.now
        for slot, value in enumerate(values, index):
            self.trace_local("propose", index=slot, req=value.request_id)
            self._write(slot, _EntryState(ballot, value))
            self._pending[slot] = (now, {self.name})
        self.multicast(self.other_peers, MPAccept(ballot, index, values,
                                                  self.last_applied))
        self._replicated = True

    def _repair(self):
        """Re-send each slot pending for an election timeout whose acks
        look lost: none at all came in for that long, or a later slot
        already committed.  A slot merely still pending is not enough —
        past the knee its acks wait in the leader's ingress queue far
        longer than that.  Each run of consecutive lost slots goes in
        one ``MPAccept`` to every follower that has not acked all of
        them."""
        now = self.sim.now
        stale = now - self.election_timeout
        quiet = self._acked_at <= stale
        runs = []
        for index, (since, _acks) in self._pending.items():
            if since > stale:
                break  # every later slot is younger
            if quiet or index < self.commit_index:
                if runs and runs[-1][-1] == index - 1:
                    runs[-1].append(index)
                else:
                    runs.append([index])
        for run in runs:
            acked_all = set(self.other_peers)
            for index in run:
                acks = self._pending.pop(index)[1]
                self._pending[index] = (now, acks)
                acked_all &= acks
            self.multicast(
                [peer for peer in self.other_peers if peer not in acked_all],
                MPAccept(self.ballot_num, run[0],
                         tuple(self.log[index].value for index in run),
                         self.last_applied))

    def handle_mpaccept(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self._follow(msg.ballot, src)
            log = self.log
            for index, value in enumerate(msg.values, msg.index):
                entry = log.get(index)
                if entry is None or not entry.committed:
                    self._write(index, _EntryState(msg.ballot, value))
            self.send(src, MPAccepted(msg.ballot, msg.index,
                                      len(msg.values)))
            self._learn(msg.ballot, msg.commit_index)

    def handle_mpaccepted(self, msg, src):
        if not self.is_leader or msg.ballot != self.ballot_num:
            return
        self._acked_at = self.sim.now
        committed = False
        for index in range(msg.index, msg.index + msg.count):
            pending = self._pending.get(index)
            if pending is None:
                continue
            acks = pending[1]
            acks.add(src)
            if not self.quorums.is_phase2_quorum(acks):
                continue
            del self._pending[index]
            entry = self.log[index]
            self.trace_local("commit", index=index,
                             req=entry.value.request_id)
            entry.committed = True
            self.commit_index = max(self.commit_index, index)
            committed = True
        if committed:
            self._apply_ready()

    def _learn(self, ballot, applied):
        """Commit what the leader's applied prefix ``applied`` vouches
        for: each slot after ours up to it that we hold at the leader's
        ``ballot``.  A slot held at an older ballot may carry a value the
        leader replaced; catch-up brings the committed one."""
        if applied <= self.last_applied:
            return  # the usual case: nothing new to commit or apply
        log = self.log
        for index in range(self.last_applied + 1, applied + 1):
            entry = log.get(index)
            if entry is not None and entry.accept_num == ballot:
                entry.committed = True
                if index > self.commit_index:
                    self.commit_index = index
        self._apply_ready()

    def _committed_entry(self, index):
        entry = self.log.get(index)
        if entry is None or not entry.committed:
            return None
        return entry.value.command, entry.value.request_id

    # -- introspection ------------------------------------------------------

    def committed_log(self):
        """Committed (index, value) pairs in index order — the safety
        object the consistency checker compares across replicas."""
        return [
            (index, self.log[index].value)
            for index in sorted(self.log)
            if self.log[index].committed
        ]


class MultiPaxosClient(ClosedLoopClient):
    """Closed-loop client: one outstanding command, follows redirects."""

    handle_clientreply = ClosedLoopClient.on_reply
    handle_redirect = ClosedLoopClient.on_redirect


#: How a client talks to a Multi-Paxos log (see :mod:`repro.core.client`).
CLIENT = leader_row("multi-paxos", MultiPaxosReplica, MultiPaxosClient,
                    ClientRequest, retry_timeout=8.0)


# -- driver -----------------------------------------------------------------


class MultiPaxosResult(LeaderResult):
    """What :func:`run_multipaxos` returns."""


def run_multipaxos(
    cluster,
    n_replicas=3,
    n_clients=1,
    commands_per_client=5,
    crash_leader_at=None,
    horizon=2000.0,
    state_machine_factory=None,
):
    """Drive a Multi-Paxos cluster with closed-loop clients."""
    return run_leader_log(
        MultiPaxosResult, cluster, MultiPaxosClient, "r", n_replicas,
        n_clients, commands_per_client, crash_leader_at, horizon,
        state_machine_factory=state_machine_factory)
