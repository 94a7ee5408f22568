"""Raft (Ongaro & Ousterhout, USENIX ATC 2014).

The tutorial positions Raft as "equivalent to Paxos in fault-tolerance,
meant to be more understandable", leader-based, "integrating consensus
with log management".  This is a full implementation of the core
algorithm: terms, randomized election timeouts, RequestVote with the
up-to-date-log restriction, AppendEntries with log-matching repair, and
the commit rule (a leader only commits entries from its own term by
counting replicas, which commits all preceding entries transitively).
"""

from dataclasses import dataclass
from operator import attrgetter

from ..core.client import ClosedLoopClient
from ..net.message import Message
from .leader import (LeaderReplica, LeaderResult, Role, leader_row,
                     run_leader_log)

#: The no-op command every new leader appends in its own term.  Raft's
#: commit rule only counts replicas for current-term entries, so without
#: this a leader that inherits uncommitted entries from dead terms could
#: never commit them until a client happened to send something new.
NOOP = "__raft_noop__"


@dataclass(frozen=True)
class LogEntry:
    term: int
    command: object
    #: Client request id, carried in the log so *any* future leader can
    #: deduplicate retries of an already-appended command.
    request_id: str = None


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class RequestVote(Message):
    term: int
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True)
class VoteReply(Message):
    term: int
    granted: bool


@dataclass(frozen=True)
class AppendEntries(Message):
    term: int
    prev_log_index: int
    prev_log_term: int
    entries: tuple
    leader_commit: int


@dataclass(frozen=True)
class AppendReply(Message):
    term: int
    success: bool
    match_index: int


@dataclass(frozen=True)
class InstallSnapshot(Message):
    """Leader → lagging follower: replace your prefix with my snapshot.

    Sent when the follower's ``next_index`` precedes the leader's
    compacted log base — the entries it needs no longer exist as log
    entries, only as state."""

    term: int
    last_included_index: int
    last_included_term: int
    state: object  # the state machine snapshot
    ops_applied: int
    applied_requests: tuple  # ((request_id, result), ...) for dedup


@dataclass(frozen=True)
class RaftClientRequest(Message):
    command: object
    request_id: str


@dataclass(frozen=True)
class RaftClientReply(Message):
    request_id: str
    result: object


@dataclass(frozen=True)
class RaftRedirect(Message):
    request_id: str
    leader_hint: str


class RaftNode(LeaderReplica):
    """One Raft server.

    Parameters are :class:`~repro.protocols.leader.LeaderReplica`'s,
    plus ``snapshot_threshold``: applied entries the log keeps before
    compacting them into a snapshot (``None``: never compact).
    """

    REPLY, REDIRECT = RaftClientReply, RaftRedirect
    protocol = "raft"

    def __init__(self, sim, network, name, peers,
                 state_machine_factory=None, election_timeout=6.0,
                 snapshot_threshold=None):
        super().__init__(sim, network, name, peers, state_machine_factory,
                         election_timeout)

        # Persistent state
        self.current_term = 0
        self.voted_for = None
        self.log = []  # list[LogEntry]; self.log[0] has index log_base
        # Log compaction: entries below log_base live only in the snapshot.
        self.log_base = 0
        self.snapshot = None
        self.snapshot_term = 0
        self.snapshot_threshold = snapshot_threshold
        self.snapshots_taken = 0
        self.snapshots_installed = 0
        self.elections_started = 0

        # Leader state
        self.next_index = {}
        self.match_index = {}
        self._votes = set()

    # -- helpers -----------------------------------------------------------

    def last_log_index(self):
        return self.log_base + len(self.log) - 1

    def last_log_term(self):
        return self.log[-1].term if self.log else self.snapshot_term

    def _entry(self, index):
        """The entry at absolute ``index`` (must be >= log_base)."""
        return self.log[index - self.log_base]

    def _term_at(self, index):
        if index < 0:
            return 0
        if index == self.log_base - 1:
            return self.snapshot_term
        if index < self.log_base:
            return None  # compacted away
        if index > self.last_log_index():
            return None
        return self._entry(index).term

    def _adopt_term(self, term, leader_hint=None):
        """A higher term deposes whatever we were."""
        self.current_term = term
        self.voted_for = None
        self._step_down(leader_hint)

    # -- elections ----------------------------------------------------------

    def _start_election(self):
        if self.crashed:
            return
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self._votes = {self.name}
        self.elections_started += 1
        self.mark_phase("election")
        self.multicast(
            self.other_peers,
            RequestVote(self.current_term, self.last_log_index(),
                        self.last_log_term()),
        )
        self._arm_election_timer()

    def handle_requestvote(self, msg, src):
        if msg.term > self.current_term:
            self._adopt_term(msg.term)
        granted = False
        if msg.term == self.current_term and self.voted_for in (None, src):
            # Election restriction: grant only to candidates whose log is
            # at least as up-to-date as ours.
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                self.last_log_term(),
                self.last_log_index(),
            )
            if up_to_date:
                granted = True
                self.voted_for = src
                self._arm_election_timer()
        self.send(src, VoteReply(self.current_term, granted))

    def handle_votereply(self, msg, src):
        if msg.term > self.current_term:
            self._adopt_term(msg.term)
            return
        if self.role is not Role.CANDIDATE or msg.term != self.current_term:
            return
        if msg.granted:
            self._votes.add(src)
            if len(self._votes) >= self.quorums.q1:
                self._become_leader()

    def _epoch(self):
        return {"term": self.current_term}

    def _take_over(self):
        # Commit-point no-op: anchors inherited entries under our term.
        self.log.append(LogEntry(self.current_term, NOOP))
        self.next_index = {p: self.last_log_index() + 1 for p in self.peers}
        self.match_index = {p: -1 for p in self.peers}
        self.match_index[self.name] = self.last_log_index()
        self._broadcast_append()

    # -- log replication ------------------------------------------------------

    handle_raftclientrequest = LeaderReplica.on_clientrequest

    def _write(self, index, entry):
        """Append ``entry``, which lands at ``index``, and index its
        request id (a no-op carries none)."""
        self.log.append(entry)
        if entry.request_id is not None:
            self._note_write(entry.request_id, index)

    def _request_at(self, index):
        position = index - self.log_base
        if position < len(self.log):
            return self.log[position].request_id
        return None  # truncated away

    _last_index = last_log_index

    def _append(self, batch):
        first = self.last_log_index() + 1
        for index, (command, request_id) in enumerate(batch, first):
            self._write(index, LogEntry(self.current_term, command,
                                        request_id))
            self.trace_local("propose", index=index, req=request_id)
        self.match_index[self.name] = index
        self.mark_phase("append")
        self._broadcast_append()
        return first

    def _broadcast_append(self):
        if self.role is not Role.LEADER:
            return
        for peer in self.other_peers:
            self._send_append(peer)
        self._replicated = True

    #: A Raft heartbeat is an AppendEntries.
    _send_heartbeat = _broadcast_append

    def _send_append(self, peer):
        nxt = self.next_index.get(peer, self.last_log_index() + 1)
        if nxt < self.log_base:
            # The entries this follower needs were compacted: ship state.
            self.send(peer, InstallSnapshot(
                self.current_term,
                self.log_base - 1,
                self.snapshot_term,
                self.snapshot,
                getattr(self.state_machine, "ops_applied", 0),
                tuple(self._applied_requests.items()),
            ))
            return
        prev_index = nxt - 1
        prev_term = self._term_at(prev_index) or 0
        entries = tuple(self.log[nxt - self.log_base:])
        self.send(
            peer,
            AppendEntries(
                self.current_term, prev_index, prev_term, entries,
                self.commit_index,
            ),
        )

    def handle_appendentries(self, msg, src):
        if msg.term > self.current_term:
            self._adopt_term(msg.term, leader_hint=src)
        if msg.term < self.current_term:
            self.send(src, AppendReply(self.current_term, False, -1))
            return
        # Valid leader for our term.
        self.leader_hint = src
        if self.role is not Role.FOLLOWER:
            self._step_down(leader_hint=src)
        self._arm_election_timer()
        # Log-matching check (a prefix inside our snapshot matches by
        # construction — it was committed before being compacted).
        if msg.prev_log_index >= self.log_base - 1 and msg.prev_log_index >= 0:
            local_term = self._term_at(msg.prev_log_index)
            if local_term is None or local_term != msg.prev_log_term:
                self.send(src, AppendReply(self.current_term, False, -1))
                return
        # Append, truncating any conflicting suffix.
        insert_at = msg.prev_log_index + 1
        for offset, entry in enumerate(msg.entries):
            index = insert_at + offset
            if index < self.log_base:
                continue  # covered by our snapshot: already committed
            position = index - self.log_base
            if position < len(self.log):
                if self.log[position].term != entry.term:
                    del self.log[position:]
                    self._write(index, entry)
            else:
                self._write(index, entry)
        match = msg.prev_log_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.last_log_index())
            self.trace_local("commit", index=self.commit_index,
                             term=self.current_term)
            self._apply_ready()
        self.send(src, AppendReply(self.current_term, True, match))

    def handle_appendreply(self, msg, src):
        if msg.term > self.current_term:
            self._adopt_term(msg.term)
            return
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        if msg.success:
            self.match_index[src] = max(self.match_index.get(src, -1), msg.match_index)
            self.next_index[src] = self.match_index[src] + 1
            self._advance_commit()
        else:
            # Back up and retry — Raft's log repair.
            self.next_index[src] = max(0, self.next_index.get(src, 1) - 1)
            self._send_append(src)

    def _advance_commit(self):
        """Commit the highest index replicated on a majority whose entry
        is from the current term."""
        # The q2-th largest match index is replicated on a quorum.
        matches = sorted(self.match_index.values())
        index = min(matches[len(matches) - self.quorums.q2],
                    self.last_log_index())
        if index <= self.commit_index or \
                self._term_at(index) != self.current_term:
            return
        self.commit_index = index
        entry = self._entry(index)
        if entry.request_id is not None:
            self.trace_local("commit", index=index, term=self.current_term,
                             req=entry.request_id)
        else:
            self.trace_local("commit", index=index, term=self.current_term)
        self._apply_ready()

    def _committed_entry(self, index):
        if index > self.commit_index:
            return None
        entry = self._entry(index)
        if entry.command == NOOP:
            return ()
        return entry.command, entry.request_id

    def _apply_ready(self):
        super()._apply_ready()
        self._maybe_compact()

    # -- log compaction -----------------------------------------------------

    def _maybe_compact(self):
        """Snapshot the state machine and discard the applied prefix once
        it exceeds the configured threshold."""
        if self.snapshot_threshold is None:
            return
        applied_in_log = self.last_applied - self.log_base + 1
        if applied_in_log < self.snapshot_threshold:
            return
        if not hasattr(self.state_machine, "snapshot"):
            return
        self.snapshot = self.state_machine.snapshot()
        self.snapshot_term = self._term_at(self.last_applied)
        keep_from = self.last_applied - self.log_base + 1
        self.log = self.log[keep_from:]
        self.log_base = self.last_applied + 1
        self.snapshots_taken += 1

    def handle_installsnapshot(self, msg, src):
        if msg.term > self.current_term:
            self._adopt_term(msg.term, leader_hint=src)
        if msg.term < self.current_term:
            self.send(src, AppendReply(self.current_term, False, -1))
            return
        self.leader_hint = src
        self._arm_election_timer()
        if msg.last_included_index <= self.last_applied:
            # Stale snapshot: we're already past it.
            self.send(src, AppendReply(self.current_term, True,
                                       self.last_applied))
            return
        if hasattr(self.state_machine, "restore"):
            self.state_machine.restore(msg.state, msg.ops_applied)
        self.log = []
        self._written_at.clear()
        self.log_base = msg.last_included_index + 1
        self.snapshot = msg.state
        self.snapshot_term = msg.last_included_term
        self.commit_index = msg.last_included_index
        self.last_applied = msg.last_included_index
        self._applied_requests.update(dict(msg.applied_requests))
        self.snapshots_installed += 1
        self.send(src, AppendReply(self.current_term, True,
                                   msg.last_included_index))

    # -- introspection -------------------------------------------------------

    def committed_log(self):
        """Committed (index, command) pairs still present in the log —
        a compacted prefix lives only in the snapshot; leader no-ops are
        omitted (they carry no client command)."""
        return [
            (index, self._entry(index).command)
            for index in range(self.log_base, self.commit_index + 1)
            if self._entry(index).command != NOOP
        ]


class RaftClient(ClosedLoopClient):
    """Closed-loop Raft client following leader redirects."""

    handle_raftclientreply = ClosedLoopClient.on_reply
    handle_raftredirect = ClosedLoopClient.on_redirect


#: How a client talks to a Raft log: Multi-Paxos's row with Raft's
#: message classes — the two differ in leader election only.
CLIENT = leader_row("raft", RaftNode, RaftClient, RaftClientRequest,
                    retry_timeout=10.0, spans=True, settle=30.0)


# -- driver -----------------------------------------------------------------


class RaftResult(LeaderResult):
    """What :func:`run_raft` returns; Raft calls its replicas nodes."""

    nodes = property(attrgetter("replicas"))

    def leader(self):
        leaders = [n for n in self.nodes if n.role is Role.LEADER and not n.crashed]
        return leaders[-1] if leaders else None


def run_raft(
    cluster,
    n_nodes=3,
    n_clients=1,
    commands_per_client=5,
    horizon=3000.0,
    state_machine_factory=None,
    snapshot_threshold=None,
):
    """Drive a Raft cluster with closed-loop clients."""
    return run_leader_log(
        RaftResult, cluster, RaftClient, "n", n_nodes, n_clients,
        commands_per_client, horizon,
        state_machine_factory=state_machine_factory,
        snapshot_threshold=snapshot_threshold)
