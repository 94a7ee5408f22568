"""One way to talk to a replicated log.

The paper's model has one kind of client — a synthetic closed-loop
client over a replicated key-value store — and every protocol in the
library answers the same five questions about it: what a request looks
like, which message is its reply, which reply belongs to which request,
how many matching replies complete it, and what to do when none comes.
A :class:`ClientProtocol` row holds those answers as data;
:class:`ClosedLoopClient` (here) and the open-loop load injector
(:mod:`repro.load.engine`) are the two drivers that read it.  Neither
ever looks at a protocol's name.

Howard & Mortier (*Paxos vs Raft*) show the two log protocols differ in
leader election only — nothing a client sees — so their rows differ in
message classes alone; the PBFT family shares one client rule, f + 1
matching replies, so theirs differ in message classes and timeouts.
"""

from dataclasses import dataclass

from .exceptions import LivenessFailure
from .node import Node
from .quorums import primary_of

__all__ = ["ClientProtocol", "ClosedLoopClient", "RunResult", "agreed",
           "next_target"]


@dataclass(frozen=True)
class ClientProtocol:
    """How a client talks to one replication protocol — a row of data.

    A protocol module declares its row once; the load engine,
    :class:`~repro.shard.group.ShardGroup` and
    :class:`~repro.smr.ReplicatedKV` find it through ``Scenario.client``.
    """

    name: str
    #: ``ident(client_name, seq, command)``: the value the replies to
    #: the client's ``seq``-th request will carry.
    ident: object
    #: ``request(ident, command, client_name=None, signer=None)``: the
    #: request message.  Callers that number their own requests (the
    #: transaction coordinator) pass their own ``ident``.
    request: object
    #: mtype of the reply, and ``key(msg)``: the ident a reply (or a
    #: redirect) answers.
    reply: str
    key: object
    #: ``need(n, f)``: equal results, from distinct replicas, that
    #: complete a request.
    need: object
    #: mtype of the "ask the leader instead" answer (it carries a
    #: ``leader_hint``), for protocols whose followers send one.
    redirect: str = None
    #: What to do about an unanswered request: ``"rotate"`` resends to
    #: the next replica in ring order (the leader may be dead),
    #: ``"multicast"`` resends to every replica (backups relay to the
    #: primary or start a view change), ``None`` waits.
    retry: str = None
    retry_timeout: float = None
    #: False leaves the retry timer running when a reply arrives (the
    #: next request re-arms it; the last one's is left to expire).  XFT
    #: does; it shows in ``sim_timers_cancelled_total``.
    cancel_on_reply: bool = True
    #: The leader rotates after every decision: request ``seq`` goes to
    #: the primary of view ``seq`` (basic HotStuff).
    rotates: bool = False
    #: Open a ``<name>:<client>-<seq>`` request span on the metrics
    #: collector from first transmission to completion.
    spans: bool = False
    #: ``view(reply)`` when replies carry the view; the primary of view
    #: ``v`` is ``primary_of(replicas, v)``.  Both drivers follow it: the next
    #: request goes to the primary the completing reply names.
    view: object = None
    # What a fleet builder (load engine, ShardGroup, ReplicatedKV) needs
    # on top; rows nobody builds fleets from leave these out.
    #: Replicas per tolerated fault: ``n = nodes_per_fault * f + 1``.
    nodes_per_fault: int = None
    #: The replica class, ``replica_args(peers, f)`` — its constructor
    #: arguments after the name — and ``is_leader(replica)``.
    replica: type = None
    replica_args: object = None
    is_leader: object = None
    #: The :class:`ClosedLoopClient` subclass bound to this row.
    client: type = None
    #: Virtual time the first election needs before open-loop load.
    settle: float = 10.0


def agreed(replies, need):
    """True once ``need`` of ``replies`` (replica -> result) are equal —
    by ``repr``, since state-machine results need not be hashable."""
    if len(replies) < need:
        return False
    tally = {}
    for result in replies.values():
        key = repr(result)
        tally[key] = tally.get(key, 0) + 1
    return max(tally.values()) >= need


def next_target(replicas, target, hint=None, src=None):
    """Whom to ask after ``target`` did not serve a request: the leader
    ``src`` hinted at, or — no hint, a hint at itself, a timeout — the
    next replica in ring order."""
    if hint and hint != src:
        return hint
    return replicas[(replicas.index(target) + 1) % len(replicas)]


class ClosedLoopClient(Node):
    """One outstanding request at a time, driven by a
    :class:`ClientProtocol` row.

    A protocol's public client is a subclass that sets :attr:`ROW` and
    aliases ``handle_<reply mtype>`` to :meth:`on_reply` (and
    ``handle_<redirect mtype>`` to :meth:`on_redirect`): node dispatch
    is by method name.

    A request's latency runs from its *first* transmission to its
    completion, so retries and redirect chases count and a finished
    client's latencies sum to the time it was busy.
    """

    #: The row this client speaks; set by the protocol's subclass.
    ROW = None

    def __init__(self, sim, network, name, replicas, commands, f=0,
                 retry_timeout=None, signer=None):
        super().__init__(sim, network, name)
        row = self.ROW
        self.replicas = list(replicas)
        self.commands = list(commands)
        self.f = f
        self.retry_timeout = retry_timeout or row.retry_timeout
        self.signer = signer  # for rows whose requests carry a signature
        self.target = self.replicas[0]
        self.results = []
        self.latencies = []
        self._need = row.need(len(self.replicas), f)
        self._next = 0
        self._opened = -1  # seq of the newest request transmitted
        self._ident = None
        self._replies = {}
        self._sent_at = None
        self._timer = None

    @property
    def done(self):
        return self._next >= len(self.commands)

    def on_start(self):
        self._send_next()

    def submit(self, command):
        """Queue ``command`` behind whatever is in flight; an idle
        client sends it at once."""
        idle = self.done
        self.commands.append(command)
        if idle:
            self._send_next()

    def call(self, command, timeout):
        """:meth:`submit` ``command``, run the simulation until its
        result arrives and return it; :class:`LivenessFailure` when
        ``timeout`` virtual time passes first."""
        index = len(self.commands)
        self.submit(command)
        self.sim.run(stop_when=lambda: len(self.results) > index,
                     until=self.sim.now + timeout)
        if len(self.results) <= index:
            raise LivenessFailure(
                "operation %r did not complete within %.0f time units"
                % (command, timeout))
        return self.results[index]

    # -- sending ----------------------------------------------------------

    def _request(self):
        return self.ROW.request(self._ident, self.commands[self._next],
                                self.name, self.signer)

    def _span_label(self):
        return "%s:%s-%d" % (self.ROW.name, self.name, self._next)

    def _send_next(self):
        """(Re)transmit the current request to :attr:`target`; its first
        transmission opens it."""
        if self.done:
            return
        row = self.ROW
        seq = self._next
        if self._opened != seq:
            self._opened = seq
            self._ident = row.ident(self.name, seq, self.commands[seq])
            self._replies = {}
            self._sent_at = self.sim.now
            if row.rotates:
                self.target = primary_of(self.replicas, seq)
            if row.spans:
                self.network.metrics.start_request(self._span_label(),
                                                   self.sim.now)
        self.send(self.target, self._request())
        self._arm_timer()

    def _arm_timer(self):
        if self.ROW.retry is None:
            return
        if self._timer is None:
            self._timer = self.set_timer(self.retry_timeout, self._on_timeout)
        else:
            self._timer.restart(self.retry_timeout)

    def _on_timeout(self):
        if self.done:
            return
        if self.ROW.retry == "rotate":
            self.target = next_target(self.replicas, self.target)
            self._send_next()
        else:
            self.multicast(self.replicas, self._request())
            self._arm_timer()

    # -- receiving --------------------------------------------------------

    def on_redirect(self, msg, src):
        self.target = next_target(self.replicas, self.target,
                                  msg.leader_hint, src)
        self._send_next()

    def on_reply(self, msg, src):
        row = self.ROW
        if row.key(msg) != self._ident or self.done:
            return  # a duplicate, or the answer to an earlier request
        if self._need > 1:
            self._replies[src] = msg.result
            if not agreed(self._replies, self._need):
                return
        if row.spans:
            self.network.metrics.finish_request(self._span_label(),
                                                self.sim.now)
        self.results.append(msg.result)
        self.latencies.append(self.sim.now - self._sent_at)
        self._next += 1
        if row.view is not None:
            self.target = primary_of(self.replicas, row.view(msg))
        if row.cancel_on_reply and self._timer is not None:
            self._timer.cancel()
        self._send_next()


@dataclass
class RunResult:
    """What a protocol driver returns: the replicas and clients it ran,
    the messages sent and the virtual time taken."""

    replicas: list
    clients: list
    messages: int
    duration: float

    @classmethod
    def drive(cls, cluster, replicas, clients, horizon, **extra):
        """Start every node, run until every client is done (or
        ``horizon``) and collect the result."""
        def all_done():
            # Checked after every event: a plain loop, no generator frame.
            for client in clients:
                if not client.done:
                    return False
            return True
        cluster.start_all()
        cluster.run_until(all_done, until=horizon)
        return cls(replicas, clients, cluster.metrics.messages_total,
                   cluster.now, **extra)

    def logs(self):
        """Per-replica ``(position, operation)`` logs."""
        return [replica.executed for replica in self.replicas]

    def logs_consistent(self):
        """Every log lists its positions in ascending order (a replica
        executes in sequence order), and no two replicas disagree at any
        position (prefix consistency: shorter logs must be prefixes of
        longer ones)."""
        from ..smr.checker import check_log_consistency
        logs = [list(log) for log in self.logs()]
        for log in logs:
            for (position, _), (later, _) in zip(log, log[1:]):
                if later <= position:
                    return False
        return check_log_consistency(logs)
