"""One leader-replica core for Multi-Paxos and Raft.

Howard & Mortier (*Paxos vs Raft*) find that the two protocols differ
essentially only in leader election: Raft votes only for a candidate
whose log is up to date, Paxos recovers the log in phase 1.
:class:`LeaderReplica` is everything else, written once: the election
timer, step-down, the heartbeat rule, the client request path with its
retry dedup and its batching window, and the in-order apply loop;
:func:`leader_row` builds the client row and :func:`run_leader_log` runs
a cluster with clients.

A leader ingests about three messages per command (the request and two
acks), so past the knee its ingress queue, not the protocol, sets the
latency.  The window bounds that: a leader appends a request at once
only while fewer than :attr:`LeaderReplica.WINDOW` of its entries are
un-applied; otherwise it holds the request, and the next time its apply
loop applies anything it appends everything held as one batch, which
one replication message per follower carries and one ack per follower
answers.

This is a protocol module, not a ``core`` one, because handler time is
attributed to the package of the module that defines the handler, and
:meth:`LeaderReplica.on_clientrequest` is both protocols' handler.
"""

import enum
from operator import attrgetter

from ..core.client import ClientProtocol, RunResult
from .replica import Replica


class Role(enum.Enum):
    """A replica's current role.  (Multi-Paxos runs phase 1 as a
    follower: its candidacy is the ballot it is preparing.)"""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class LeaderReplica(Replica):
    """A replica of a leader-based replicated log.

    Parameters
    ----------
    peers, state_machine_factory:
        As for :class:`~repro.protocols.replica.Replica`; quorums are
        majorities, tolerating as many crash faults as the peers allow.
    election_timeout:
        Leader silence after which a follower campaigns; each arm adds
        uniform jitter in [0, timeout] against split votes and duels.

    A subclass sets :attr:`REPLY` and :attr:`REDIRECT`, aliases
    ``handle_<its request mtype>`` to :meth:`on_clientrequest`, and
    provides its election — ``_start_election`` (calling
    :meth:`_become_leader` on a win), ``_epoch`` (the ``lead``
    milestone's detail), ``_take_over`` and ``_send_heartbeat`` — and
    four operations on its log: ``_last_index()`` (the last index
    written or assigned), ``_request_at(index)`` (the request id the
    live entry at an index after ``last_applied`` holds, or ``None``),
    ``_committed_entry(index)`` (``(command, request_id)``, ``()`` for a
    no-op, ``None`` while uncommitted) and ``_append(batch)``, which
    writes a batch of ``(command, request_id)`` pairs at consecutive
    indices, replicates them together and returns the first index.
    Every log write that stores a request id calls
    :meth:`_note_write`, so the request index knows where to look.  A
    log whose lost replication only the leader can notice overrides
    :meth:`_repair`, which runs at every heartbeat due time.

    Heartbeats exist only so that followers do not suspect a live
    leader, and any replication message does that job too (a Raft
    heartbeat *is* an empty AppendEntries).  So a leader decides at each
    due time of one re-armed timer: if it broadcast a replication
    message to every follower since the last due time (the subclass
    sets :attr:`_replicated` where it does), it sends nothing and waits
    :attr:`HEARTBEAT_INTERVAL`; otherwise it sends ``_send_heartbeat``
    and doubles the wait, up to ``election_timeout / 2``, so an idle
    group costs little.  A follower therefore hears from a live leader
    at least every ``election_timeout / 2 + HEARTBEAT_INTERVAL`` (a
    broadcast just after one due time, a skip at the next, a heartbeat
    one interval later), plus the spread of message delays.  Under the
    default 0.5-1.5 delays that is 4.5 vt for Multi-Paxos and 5 vt for
    Raft, below their ``election_timeout`` of 5 and 6, the shortest
    silence after which a follower campaigns.
    """

    HEARTBEAT_INTERVAL = 1.0
    #: Un-applied entries past which a leader holds new requests back,
    #: to append them as one batch (see the module docstring).  Steady
    #: loads below the knee never reach it.
    WINDOW = 32
    #: The protocol's client-reply and redirect message classes.
    REPLY = REDIRECT = None

    def __init__(self, sim, network, name, peers, state_machine_factory,
                 election_timeout):
        super().__init__(sim, network, name, peers,
                         state_machine_factory=state_machine_factory)
        self.election_timeout = election_timeout
        self.role = Role.FOLLOWER
        self.leader_hint = None
        self.commit_index = -1
        self.last_applied = -1
        self._client_of = {}  # log index -> (client, request_id)
        self._applied_requests = {}  # request_id -> result (dedup cache)
        # request_id -> the log index it was written at; a list of them
        # only if it was written at several.  Entries may be stale (the
        # slot was overwritten or truncated): a lookup checks the log.
        self._written_at = {}
        # request_id -> (command, client) of each request the window
        # held back, in arrival order.  Volatile: only a leader holds,
        # and leadership ends in a crash or in _step_down.
        self._held_requests = {}
        self._election_timer = None
        self._heartbeat_timer = None
        self._heartbeat_gap = self.HEARTBEAT_INTERVAL
        #: Whether every follower was sent a replication message since
        #: the heartbeat timer last came due.
        self._replicated = False

    @property
    def is_leader(self):
        return self.role is Role.LEADER

    # -- lifecycle --------------------------------------------------------

    def on_start(self):
        self._arm_election_timer()

    def on_crash(self):
        self.role = Role.FOLLOWER
        self._held_requests.clear()

    def on_restart(self):
        # The log, the term or ballot and the dedup table are durable;
        # leadership, and knowing who holds it, are not.
        self.role = Role.FOLLOWER
        self.leader_hint = None
        self._arm_election_timer()

    # -- leadership -------------------------------------------------------

    def _arm_election_timer(self):
        timeout = self.election_timeout + self.rng.uniform(
            0.0, self.election_timeout)
        if self._election_timer is None:
            self._election_timer = self.set_timer(timeout,
                                                  self._start_election)
        else:
            self._election_timer.restart(timeout)

    def _step_down(self, leader_hint=None):
        """Give up leadership or candidacy, stop heartbeating, note
        ``leader_hint`` when given, redirect every request the window
        held back there, and wait for the leader."""
        self.role = Role.FOLLOWER
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        if leader_hint is not None:
            self.leader_hint = leader_hint
        if self._held_requests:
            hint = self.leader_hint or ""
            for request_id, (_, client) in self._held_requests.items():
                self.send(client, self.REDIRECT(request_id, hint))
            self._held_requests.clear()
        self._arm_election_timer()

    def _become_leader(self):
        self.role = Role.LEADER
        self.leader_hint = self.name
        self.trace_local("lead", **self._epoch())
        if self._election_timer is not None:
            self._election_timer.cancel()
        self._replicated = False
        self._heartbeat_gap = self.HEARTBEAT_INTERVAL
        self._take_over()
        self._heartbeat_timer = self.set_timer(self.HEARTBEAT_INTERVAL,
                                               self._heartbeat_due)

    def _heartbeat_due(self):
        """Skip the heartbeat a replication broadcast already sent, or
        send it and space the next one out (see the class docstring)."""
        self._repair()
        if self._replicated:
            gap = self.HEARTBEAT_INTERVAL
        else:
            self._send_heartbeat()
            gap = min(2 * self._heartbeat_gap, self.election_timeout / 2)
        self._replicated = False
        self._heartbeat_gap = gap
        self._heartbeat_timer.restart(gap)

    def _repair(self):
        """Re-send replication the followers lost.  Raft's needs nothing
        here: each AppendEntries re-ships what a follower's consistency
        check rejects."""

    # -- the client path --------------------------------------------------

    def on_clientrequest(self, msg, src):
        """Redirect a client that did not reach the leader; answer a
        retry of an applied request from the dedup table; re-address the
        reply of one still committing or held; hold anything new while
        the window is full or others are held, else append it."""
        request_id = msg.request_id
        if not self.is_leader:
            self.send(src, self.REDIRECT(request_id, self.leader_hint or ""))
            return
        if request_id in self._applied_requests:
            # Retry of a completed command: re-reply, never re-propose.
            self.send(src, self.REPLY(request_id,
                                      self._applied_requests[request_id]))
            return
        index = self._in_flight(request_id)
        if index is not None:
            self._client_of[index] = (src, request_id)
        elif self._held_requests or \
                self._last_index() - self.last_applied >= self.WINDOW:
            # A held id's retry keeps its place and only re-addresses it.
            self._held_requests[request_id] = (msg.command, src)
        else:
            index = self._append(((msg.command, request_id),))
            self._client_of[index] = (src, request_id)

    def _note_write(self, request_id, index):
        """Record that the log entry at ``index`` holds ``request_id``."""
        held = self._written_at.get(request_id)
        if held is None:
            self._written_at[request_id] = index
        elif held.__class__ is int:
            if held != index:
                self._written_at[request_id] = [held, index]
        elif index not in held:
            held.append(index)

    def _in_flight(self, request_id):
        """The lowest index after ``last_applied`` whose live entry holds
        ``request_id`` (the request is still committing), or ``None``.

        Everything at or below ``last_applied`` is in
        ``_applied_requests``, so only the un-applied tail can hold an id
        asked about here; the request index names the candidates, and
        :meth:`_request_at` checks each against the live log."""
        held = self._written_at.get(request_id)
        if held is None:
            return None
        for index in (held,) if held.__class__ is int else sorted(held):
            if index > self.last_applied and \
                    self._request_at(index) == request_id:
                return index
        return None

    def _apply_ready(self):
        """Apply committed entries strictly in log order — the slides'
        'server waits for previous log entries to be applied' — keep
        each request's result for retries, and answer a client waiting
        on an entry only with the result of its own request.  A leader
        that applied anything appends what the window held back."""
        applied_before = self.last_applied
        while True:
            entry = self._committed_entry(self.last_applied + 1)
            if entry is None:
                break
            self.last_applied = index = self.last_applied + 1
            if not entry:
                continue  # a leader's no-op: nothing to apply
            command, request_id = entry
            result = self.state_machine.apply(command)
            if request_id is None:
                self.trace_local("apply", index=index, op=command)
            else:
                self.trace_local("apply", index=index, op=command,
                                 req=request_id)
                self._applied_requests[request_id] = result
                self._written_at.pop(request_id, None)
            client = self._client_of.pop(index, None)
            if client is not None and client[1] == request_id:
                self.send(client[0], self.REPLY(request_id, result))
        if self._held_requests and self.last_applied > applied_before:
            self._append_held()

    def _append_held(self):
        """Append every held request as one batch, in arrival order."""
        held = self._held_requests
        self._held_requests = {}
        index = self._append([(command, request_id) for request_id,
                              (command, _) in held.items()])
        for request_id, (_, client) in held.items():
            self._client_of[index] = (client, request_id)
            index += 1


def leader_row(name, replica, client, request, **options):
    """Bind ``client`` to the :class:`ClientProtocol` row of the log
    ``replica`` serves, and return it: a request carries
    ``<client>-<seq>`` as its id, one reply completes it, a follower
    redirects to the leader, and silence moves on to the next replica."""
    client.ROW = ClientProtocol(
        name=name,
        ident=lambda client, seq, command: "%s-%d" % (client, seq),
        request=lambda ident, command, client=None, signer=None:
            request(command, ident),
        reply=replica.REPLY.mtype,
        key=attrgetter("request_id"),
        need=lambda n, f: 1,
        nodes_per_fault=2,
        replica=replica,
        replica_args=lambda peers, f: (peers,),
        is_leader=attrgetter("is_leader"),
        client=client,
        redirect=replica.REDIRECT.mtype,
        retry="rotate",
        **options,
    )
    return client.ROW


class LeaderResult(RunResult):
    """What :func:`run_leader_log` returns."""

    def committed_logs(self):
        return [replica.committed_log() for replica in self.replicas]

    logs = committed_logs


def run_leader_log(result, cluster, client, prefix, n, n_clients,
                   commands_per_client, horizon, **options):
    """Drive ``n`` replicas named ``<prefix><i>`` (``client``'s row names
    their class; ``options`` go to it) with ``n_clients`` closed-loop
    ``client`` nodes and return a ``result``, a :class:`LeaderResult`."""
    names = ["%s%d" % (prefix, i) for i in range(n)]
    replicas = cluster.add_nodes(client.ROW.replica, names, names, **options)
    clients = [cluster.add_node(client, "c%d" % i, names,
                                ["cmd-%d-%d" % (i, j)
                                 for j in range(commands_per_client)])
               for i in range(n_clients)]
    return result.drive(cluster, replicas, clients, horizon)
