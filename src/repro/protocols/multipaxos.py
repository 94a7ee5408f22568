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

Replicas monitor the leader with heartbeats; on silence, the next
replica in ring order runs phase 1 with a higher ballot, learns every
accepted entry from a quorum, re-proposes anything uncommitted, and
takes over — the C&C leader-election + value-discovery phases made
explicit.
"""

from dataclasses import dataclass
from operator import attrgetter

from ..core.ballot import Ballot
from ..core.client import ClientProtocol, ClosedLoopClient, RunResult
from ..core.node import Node
from ..core.quorums import MajorityQuorum
from ..net.message import Message


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
    """Normal-mode phase 2 for one log index."""

    ballot: Ballot
    index: int
    value: object


@dataclass(frozen=True)
class MPAccepted(Message):
    ballot: Ballot
    index: int


@dataclass(frozen=True)
class MPCommit(Message):
    """Asynchronous decision propagation, piggybacking the commit index."""

    ballot: Ballot
    index: int
    value: object


@dataclass(frozen=True)
class Heartbeat(Message):
    ballot: Ballot
    commit_index: int


# -- replica ----------------------------------------------------------------


@dataclass
class _EntryState:
    accept_num: Ballot
    value: object
    committed: bool = False


@dataclass(frozen=True)
class LogCommand:
    """A client command plus its request id, stored as the log value so
    any future leader can deduplicate client retries."""

    command: object
    request_id: str


class MultiPaxosReplica(Node):
    """A Multi-Paxos server: acceptor + learner + (sometimes) leader.

    Parameters
    ----------
    peers:
        All replica names (including this one), in a fixed global order
        that determines leadership succession.
    state_machine_factory:
        Zero-arg callable building this replica's deterministic state
        machine; it must expose ``apply(command) -> result``.
    election_timeout:
        Silence interval after which a replica attempts takeover.
    """

    HEARTBEAT_INTERVAL = 1.0

    def __init__(
        self,
        sim,
        network,
        name,
        peers,
        state_machine_factory=None,
        election_timeout=5.0,
    ):
        super().__init__(sim, network, name)
        self.peers = list(peers)
        #: Every peer but ourselves, in ``peers`` order — the fan-out
        #: list phase 1, phase 2, commit and heartbeat multicast to.
        self.other_peers = [p for p in self.peers if p != name]
        self.quorums = MajorityQuorum(self.peers)
        if state_machine_factory is None:
            state_machine_factory = ListStateMachine
        self.state_machine = state_machine_factory()
        self.election_timeout = election_timeout

        self.ballot_num = Ballot.ZERO
        self.log = {}  # index -> _EntryState
        self.commit_index = -1
        self.applied_index = -1

        self.is_leader = False
        self.leader_hint = self.peers[0]
        self.next_index = 0
        self._pending = {}  # index -> set of ack senders
        self._client_of = {}  # index -> (client, request_id)
        self._applied_requests = {}  # request_id -> result (dedup cache)
        self._prepare_acks = {}
        self._preparing = None
        self._heartbeat_timer = None
        self._election_timer = None
        self.view_changes = 0

    # -- lifecycle --------------------------------------------------------

    def on_start(self):
        if self.name == self.peers[0]:
            # Bootstrap: the first replica claims leadership via phase 1,
            # exactly once — afterwards only failures trigger phase 1.
            self._start_prepare()
        else:
            self._arm_election_timer()

    def on_crash(self):
        self.is_leader = False

    def on_restart(self):
        # Ballot state and the log are durable; leadership is not.
        self.is_leader = False
        self._arm_election_timer()

    # -- leader election (phase 1 / view change) ---------------------------

    def _arm_election_timer(self):
        jitter = self.rng.uniform(0.0, self.election_timeout)
        if self._election_timer is None:
            self._election_timer = self.set_timer(
                self.election_timeout + jitter, self._start_prepare
            )
        else:
            self._election_timer.restart(self.election_timeout + jitter)

    def _start_prepare(self):
        if self.crashed:
            return
        self.view_changes += 1
        self.ballot_num = self.ballot_num.successor(self.name)
        self._preparing = self.ballot_num
        self._prepare_acks = {}
        if self.network.metrics is not None:
            self.network.metrics.mark_phase("multi-paxos", "prepare", self.sim.now)
        self._record_prepare_ack(self.name, self._own_accepted(), self.commit_index)
        self.multicast(self.other_peers, MPPrepare(self.ballot_num))
        self._arm_election_timer()

    def _own_accepted(self):
        return tuple(
            (index, entry.accept_num, entry.value)
            for index, entry in self.log.items()
        )

    def _follow(self, ballot, leader):
        """Adopt ``ballot`` (at least ours) and follow ``leader``.  A
        ballot owned by another replica deposes us: a leader, or a
        candidate whose phase 1 it supersedes, that kept going would
        propose its own ``next_index`` under the new owner's ballot and
        could overwrite a slot that owner already committed."""
        self.ballot_num = ballot
        self.leader_hint = leader
        if ballot.pid != self.name:
            self.is_leader = False
            self._preparing = None
        self._arm_election_timer()

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

    def _become_leader(self):
        self._preparing = None
        self.is_leader = True
        self.leader_hint = self.name
        self.trace_local("lead", ballot=self.ballot_num)
        if self._election_timer is not None:
            self._election_timer.cancel()
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
                self.log[index] = _EntryState(accept_num, value,
                                              committed=index <= max_commit)
            elif index <= max_commit:
                # An entry adopted in an earlier (failed) election may
                # carry a stale committed=False; the quorum's commit
                # index proves it committed (values agree by quorum
                # intersection).
                entry.committed = True
        self.next_index = max(best.keys(), default=self.commit_index) + 1
        # Catch up on everything the quorum knows to be committed...
        self._advance_commit(max_commit)
        # ...and re-run agreement for anything still uncommitted.
        for index in sorted(best):
            if index > max_commit:
                self._propose(index, best[index][1])
        self._heartbeat_timer = self.set_periodic_timer(
            self.HEARTBEAT_INTERVAL, self._send_heartbeat
        )

    def _send_heartbeat(self):
        if not self.is_leader:
            return
        self.multicast(self.other_peers,
                       Heartbeat(self.ballot_num, self.commit_index))

    def handle_heartbeat(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self._follow(msg.ballot, src)
            self._advance_commit(msg.commit_index)

    # -- normal mode (phase 2) ---------------------------------------------

    def handle_clientrequest(self, msg, src):
        if not self.is_leader:
            self.send(src, Redirect(msg.request_id, self.leader_hint))
            return
        if msg.request_id in self._applied_requests:
            # Retry of a completed command: re-reply, never re-propose.
            self.send(src, ClientReply(msg.request_id,
                                       self._applied_requests[msg.request_id]))
            return
        # Everything at or below applied_index is in _applied_requests
        # (checked above), so only the un-applied window can still match.
        for index in range(self.applied_index + 1, self.next_index):
            entry = self.log.get(index)
            if entry is not None and isinstance(entry.value, LogCommand) \
                    and entry.value.request_id == msg.request_id:
                # Already in the log, still committing.
                self._client_of[index] = (src, msg.request_id)
                return
        index = self.next_index
        self.next_index += 1
        self._client_of[index] = (src, msg.request_id)
        self._propose(index, LogCommand(msg.command, msg.request_id))

    def _propose(self, index, value):
        if self.network.metrics is not None:
            self.network.metrics.mark_phase("multi-paxos", "accept", self.sim.now)
        if isinstance(value, LogCommand):
            self.trace_local("propose", index=index, req=value.request_id)
        else:
            self.trace_local("propose", index=index)
        self.log[index] = _EntryState(self.ballot_num, value)
        self._pending[index] = {self.name}
        self.multicast(self.other_peers,
                       MPAccept(self.ballot_num, index, value))

    def handle_mpaccept(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self._follow(msg.ballot, src)
            self.log[msg.index] = _EntryState(msg.ballot, msg.value)
            self.send(src, MPAccepted(msg.ballot, msg.index))

    def handle_mpaccepted(self, msg, src):
        if not self.is_leader or msg.ballot != self.ballot_num:
            return
        pending = self._pending.get(msg.index)
        if pending is None:
            return
        pending.add(src)
        if not self.quorums.is_phase2_quorum(pending):
            return
        del self._pending[msg.index]
        value = self.log[msg.index].value
        if isinstance(value, LogCommand):
            self.trace_local("commit", index=msg.index,
                             req=value.request_id)
        else:
            self.trace_local("commit", index=msg.index)
        self._commit(msg.index)
        self.multicast(self.other_peers,
                       MPCommit(self.ballot_num, msg.index, value))

    def handle_mpcommit(self, msg, src):
        entry = self.log.get(msg.index)
        if entry is None or entry.value != msg.value:
            self.log[msg.index] = _EntryState(msg.ballot, msg.value)
        self._commit(msg.index)

    def _commit(self, index):
        entry = self.log.get(index)
        if entry is None:
            return
        entry.committed = True
        self.commit_index = max(self.commit_index, index)
        self._apply_ready()

    def _advance_commit(self, commit_index):
        for index in range(self.applied_index + 1, commit_index + 1):
            entry = self.log.get(index)
            if entry is not None:
                entry.committed = True
        self.commit_index = max(self.commit_index, commit_index)
        self._apply_ready()

    def _apply_ready(self):
        """Apply committed entries strictly in order — the slides' step 3:
        'server waits for previous log entries to be applied'."""
        while True:
            nxt = self.applied_index + 1
            entry = self.log.get(nxt)
            if entry is None or not entry.committed:
                return
            value = entry.value
            command = value.command if isinstance(value, LogCommand) else value
            result = self.state_machine.apply(command)
            self.applied_index = nxt
            if isinstance(value, LogCommand):
                self.trace_local("apply", index=nxt, op=command,
                                 req=value.request_id)
            else:
                self.trace_local("apply", index=nxt, op=command)
            if isinstance(value, LogCommand):
                self._applied_requests[value.request_id] = result
            client = self._client_of.pop(nxt, None)
            if client is not None:
                dst, request_id = client
                self.send(dst, ClientReply(request_id, result))

    # -- introspection ------------------------------------------------------

    def committed_log(self):
        """Committed (index, value) pairs in index order — the safety
        object the consistency checker compares across replicas."""
        return [
            (index, self.log[index].value)
            for index in sorted(self.log)
            if self.log[index].committed
        ]


class ListStateMachine:
    """Default state machine: append-only command history."""

    def __init__(self):
        self.history = []

    def apply(self, command):
        self.history.append(command)
        return len(self.history) - 1

    def snapshot(self):
        return list(self.history)

    def restore(self, snapshot, ops_applied=0):
        self.history = list(snapshot)


class MultiPaxosClient(ClosedLoopClient):
    """Closed-loop client: one outstanding command, follows redirects."""

    handle_clientreply = ClosedLoopClient.on_reply
    handle_redirect = ClosedLoopClient.on_redirect


#: How a client talks to a Multi-Paxos log (see :mod:`repro.core.client`).
CLIENT = MultiPaxosClient.ROW = ClientProtocol(
    name="multi-paxos",
    ident=lambda client, seq, command: "%s-%d" % (client, seq),
    request=lambda ident, command, client=None, signer=None:
        ClientRequest(command, ident),
    reply=ClientReply.mtype,
    key=attrgetter("request_id"),
    need=lambda n, f: 1,
    nodes_per_fault=2,
    replica=MultiPaxosReplica,
    replica_args=lambda peers, f: (peers,),
    is_leader=attrgetter("is_leader"),
    client=MultiPaxosClient,
    redirect=Redirect.mtype,
    retry="rotate",
    retry_timeout=8.0,
)


# -- driver -----------------------------------------------------------------


class MultiPaxosResult(RunResult):
    """What :func:`run_multipaxos` returns."""

    def committed_logs(self):
        return [replica.committed_log() for replica in self.replicas]

    logs = committed_logs


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
    replica_names = ["r%d" % i for i in range(n_replicas)]
    replicas = cluster.add_nodes(
        MultiPaxosReplica,
        replica_names,
        replica_names,
        state_machine_factory=state_machine_factory,
    )
    clients = [
        cluster.add_node(
            MultiPaxosClient,
            "c%d" % i,
            replica_names,
            ["cmd-%d-%d" % (i, j) for j in range(commands_per_client)],
        )
        for i in range(n_clients)
    ]
    if crash_leader_at is not None:
        cluster.sim.schedule(crash_leader_at, replicas[0].crash)
    return MultiPaxosResult.drive(cluster, replicas, clients, horizon)
