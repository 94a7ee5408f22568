"""XFT (Liu et al., OSDI 2016): fault tolerance beyond crashes, without
paying full BFT prices.

The model from the slides: with n = **2f+1** replicas, XFT counts three
kinds of trouble at a moment s — **c(s)** crashed, **m(s)** non-crash
(Byzantine), and **p(s)** correct-but-**partitioned** replicas.  The
system is in **anarchy** iff ``m(s) > 0`` **and**
``c(s) + m(s) + p(s) > floor((n-1)/2)``.  *XFT satisfies safety in
executions in which the system is never in anarchy* — i.e. it survives
any combination of faults a majority can outvote, plus Byzantine faults
as long as machines *and* network don't fail simultaneously beyond the
majority.

XPaxos (the agreement protocol): an active **synchronous group** of f+1
replicas runs the common case — leader sends PREPARE, the group
exchanges COMMIT all-to-all, and a request completes when every group
member has committed; the remaining f replicas are passive (lazily
updated).  A fault inside the group triggers a view change that
reconfigures the *entire* synchronous group.

The anarchy experiment (E13) shows both directions: no divergence while
the anarchy predicate is false, and a concrete divergence constructed
once it turns true (Byzantine leader + partition).
"""

from dataclasses import dataclass
from operator import attrgetter

from ..core.client import ClientProtocol, ClosedLoopClient, RunResult
from ..core.node import Node
from ..core.quorums import minimum_nodes
from ..net.message import Message
from .replica import Replica, run_closed_loop


def in_anarchy(n, crashed, byzantine, partitioned):
    """The anarchy predicate from the slides."""
    return byzantine > 0 and (crashed + byzantine + partitioned) > (n - 1) // 2


@dataclass(frozen=True)
class XRequest(Message):
    operation: object
    timestamp: float
    client: str


@dataclass(frozen=True)
class XPrepare(Message):
    view: int
    seq: int
    operation: object
    timestamp: float
    client: str


@dataclass(frozen=True)
class XCommit(Message):
    view: int
    seq: int
    operation: object


@dataclass(frozen=True)
class XReply(Message):
    replica: str
    timestamp: float
    result: object


@dataclass(frozen=True)
class XViewChange(Message):
    """View-change vote, carrying the sender's committed log — the state
    transfer that makes reconfiguration safe *outside* anarchy.  A
    Byzantine sender lies by sending an empty log; a partition keeps a
    correct sender's log from arriving: either alone is survivable, the
    combination is anarchy."""

    new_view: int
    log: tuple  # ((seq, operation), ...)


@dataclass(frozen=True)
class XLazyUpdate(Message):
    seq: int
    operation: object


class XftReplica(Replica):
    """An XPaxos replica.

    The synchronous group of view v is the f+1 consecutive replicas
    starting at index v (mod n); its first member leads.  View change
    here is deliberately simple — replicas suspecting the group broadcast
    VIEW-CHANGE and move on when f+1 agree — because the reproduced
    claims are the common case shape and the anarchy boundary, not
    XPaxos's full view-change machinery.
    """

    VIEW_TIMEOUT = 25.0
    protocol = "xft"

    def __init__(self, sim, network, name, peers, f,
                 state_machine_factory=None):
        super().__init__(sim, network, name, peers, f,
                         state_machine_factory=state_machine_factory)
        self.view = 0
        self.executed = []  # (seq, operation), in sequence order
        self.next_seq = 0
        self._commits = {}  # (view, seq) -> {name: operation}
        self._requests = {}  # seq -> (operation, timestamp, client)
        self._seen = set()
        self._vc_votes = {}  # new_view -> {name: log}
        self._pending_timer = None
        self._outstanding = 0  # requests proposed but not yet executed

    # -- group arithmetic -----------------------------------------------------

    def group_of(self, view):
        """The view's synchronous group; its primary leads it."""
        return [self.primary_of(view + k) for k in range(self.f + 1)]

    @property
    def sync_group(self):
        return self.group_of(self.view)

    @property
    def in_group(self):
        return self.name in self.sync_group

    # -- common case -----------------------------------------------------------

    def handle_xrequest(self, msg, src):
        if not self.is_primary:
            self.send(self.primary_name, msg)
            self._arm_suspicion()
            return
        key = (msg.client, msg.timestamp)
        if key in self._seen:
            return
        self._seen.add(key)
        seq = self.next_seq
        self.next_seq += 1
        self._requests[seq] = (msg.operation, msg.timestamp, msg.client)
        self._outstanding += 1
        self._arm_suspicion()
        self.mark_phase("prepare")
        prepare = XPrepare(self.view, seq, msg.operation, msg.timestamp,
                           msg.client)
        self.multicast(self.sync_group[1:], prepare)  # we head the group
        self._record_commit(self.view, seq, msg.operation, self.name)

    def handle_xprepare(self, msg, src):
        if src != self.primary_name or msg.view != self.view \
                or not self.in_group:
            return
        self._requests[msg.seq] = (msg.operation, msg.timestamp, msg.client)
        self.mark_phase("commit")
        commit = XCommit(msg.view, msg.seq, msg.operation)
        # The leader sends no XCOMMIT: its PREPARE is its commit.
        self._record_commit(msg.view, msg.seq, msg.operation, src)
        self._record_commit(msg.view, msg.seq, msg.operation, self.name)
        self.multicast([m for m in self.sync_group if m != self.name], commit)

    def handle_xcommit(self, msg, src):
        if msg.view != self.view or not self.in_group:
            return
        self._record_commit(msg.view, msg.seq, msg.operation, src)

    def _record_commit(self, view, seq, operation, sender):
        votes = self._commits.setdefault((view, seq), {})
        votes[sender] = operation
        group = set(self.group_of(view))
        matching = {s for s, op in votes.items() if op == operation}
        # XPaxos requires commits from the *entire* synchronous group.
        if matching >= group and not self._committed(seq):
            request = self._requests.get(seq)
            if request is None:
                return
            operation_, timestamp, client = request
            self._execute_in_order(seq, operation_, timestamp, client)
            if self.is_primary:
                self.multicast([p for p in self.peers if p not in group],
                               XLazyUpdate(seq, operation_))

    def handle_xlazyupdate(self, msg, src):
        # Passive replica: adopt the committed operation lazily.
        self._execute_in_order(msg.seq, msg.operation, None, None)

    def _execute(self, seq, operation, timestamp, client):
        result = self.state_machine.apply(operation)
        self.executed.append((seq, operation))
        if self._outstanding > 0:
            self._outstanding -= 1
        if self._outstanding == 0 and self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        if client is not None:
            self.send(client, XReply(self.name, timestamp, result))

    # -- view change ---------------------------------------------------------------

    def _arm_suspicion(self):
        if self._pending_timer is None or not self._pending_timer.active:
            self._pending_timer = self.set_timer(self.VIEW_TIMEOUT,
                                                 self._suspect)

    def _own_log(self):
        return tuple(sorted(self.executed))

    def _suspect(self):
        self._pending_timer = None
        new_view = self.view + 1
        self._record_vc(new_view, self.name, self._own_log())
        self.multicast(self.other_peers,
                       XViewChange(new_view, self._own_log()))
        # Keep suspecting while nothing makes progress (the next group
        # may contain another crashed replica).
        if self._outstanding > 0:
            self._arm_suspicion()

    def handle_xviewchange(self, msg, src):
        if msg.new_view <= self.view:
            return
        self._record_vc(msg.new_view, src, msg.log)

    def _record_vc(self, new_view, sender, log):
        votes = self._vc_votes.setdefault(new_view, {})
        votes[sender] = log
        if len(votes) >= self.quorums.q1 and new_view > self.view:
            if self.name not in votes:
                votes[self.name] = self._own_log()
                self.multicast(self.other_peers,
                               XViewChange(new_view, self._own_log()))
            self.view = new_view
            self.mark_phase("view-change")
            self._install_view(votes)

    def _install_view(self, votes):
        """State transfer: adopt every committed entry reported by the
        view-change quorum, then continue sequencing past them."""
        adopted = dict(self.executed)
        for log in votes.values():
            for seq, operation in log:
                adopted.setdefault(seq, operation)
        for seq in sorted(adopted):
            self._execute_in_order(seq, adopted[seq], None, None)
        self.next_seq = max(
            [self.next_seq] + [seq + 1 for seq in adopted]
        )


class ByzantineXftLeader(XftReplica):
    """The anarchy attack: a leader that commits and then lies about it.

    Step 1: as the view-0 leader it commits operation A with its group
    partner.  Step 2: during the ensuing view changes it reports an
    *empty* committed log, hiding A.  Outside anarchy this is harmless —
    the correct partner's view-change vote carries A, so the new group
    adopts it.  Inside anarchy (the partner is partitioned away) the
    only log the new group sees is the Byzantine one, the sequence
    number is reused for a different operation, and the two sides of
    the partition diverge.
    """

    def _own_log(self):
        return ()  # the lie: hide everything we committed

    def commit_with(self, victim, seq, operation):
        """Run the view-0 common case with ``victim`` only."""
        self._requests[seq] = (operation, 0.0, "_sink")
        self.send(victim, XPrepare(0, seq, operation, 0.0, "_sink"))
        self.send(victim, XCommit(0, seq, operation))

    def vote_for_view(self, new_view):
        self.multicast(self.other_peers, XViewChange(new_view, ()))


class XftClient(ClosedLoopClient):
    """Completes on a single reply from the synchronous group (all of
    whose members committed — the group is trusted as a unit in XFT's
    common case); the experiments inspect replica logs directly."""

    handle_xreply = ClosedLoopClient.on_reply


#: How a client talks to XPaxos: one reply completes; an unanswered
#: request is broadcast so every replica forwards it (and suspects a
#: dead group).
CLIENT = XftClient.ROW = ClientProtocol(
    name="xft",
    ident=lambda client, seq, operation: float(seq),
    request=lambda ident, operation, client=None, signer=None:
        XRequest(operation, ident, client),
    reply=XReply.mtype,
    key=attrgetter("timestamp"),
    need=lambda n, f: 1,
    retry="multicast",
    retry_timeout=40.0,
    cancel_on_reply=False,
)


class XftResult(RunResult):
    """What the XFT drivers return."""


def run_xft(cluster, f=1, operations=3, crash_group_member_at=None,
            horizon=2000.0, n_clients=1):
    """Drive XPaxos's common case; optionally crash a synchronous-group
    member to exercise the view change."""
    names = ["r%d" % i for i in range(minimum_nodes(f))]
    replicas = cluster.add_nodes(XftReplica, names, names, f)
    if crash_group_member_at is not None:
        cluster.sim.schedule(crash_group_member_at, replicas[1].crash)
    return run_closed_loop(XftResult, cluster, replicas, XftClient, names,
                           operations, horizon=horizon, n_clients=n_clients)


class _Sink(Node):
    """Absorbs replies addressed to the attack's fake client."""


def _xft_attack(cluster, partitioned, horizon=300.0):
    """Shared skeleton for the anarchy experiment and its control.

    n=3, f=1.  r0 is Byzantine (view-0 leader, lies in view changes);
    ``partitioned`` decides whether r1 is cut off from r2.  With the
    partition: c=0, m=1, p=1 → m>0 and c+m+p=2 > floor(2/2)=1 →
    **anarchy**, and the committed operation A is lost when r2 takes
    over, reusing seq 0 for B.  Without it (m=1, p=0 → not anarchy),
    r1's view-change vote carries A and safety holds.
    """
    names = ["r0", "r1", "r2"]
    leader = cluster.add_node(ByzantineXftLeader, "r0", names, 1)
    honest = [cluster.add_node(XftReplica, name, names, 1)
              for name in names[1:]]
    r1, r2 = honest
    cluster.add_node(_Sink, "_sink")
    if partitioned:
        def block_r1_r2(src, dst, message):
            if {src, dst} == {"r1", "r2"}:
                return False
            return None
        cluster.network.add_interceptor(block_r1_r2)
    # The client starts with no operations (so start_all is a no-op for
    # it); op-B is injected at t=30, after the scripted view changes.
    client = cluster.add_node(XftClient, "atk-client", ["r2"], [])
    client.retry_timeout = 1e9  # single shot

    cluster.start_all()
    # Step 1: Byzantine leader commits A with r1 in view 0.
    cluster.sim.schedule(1.0, leader.commit_with, "r1", 0, "op-A")
    # Step 2: drive two view changes (r2 suspects; r0 votes along, lying).
    cluster.sim.schedule(10.0, r1._suspect)   # no-op across a partition
    cluster.sim.schedule(12.0, r2._suspect)
    cluster.sim.schedule(12.5, leader.vote_for_view, 1)
    cluster.sim.schedule(20.0, r1._suspect)
    cluster.sim.schedule(22.0, r2._suspect)
    cluster.sim.schedule(22.5, leader.vote_for_view, 2)
    # Step 3: in view 2, group [r2, r0] serves a new request.
    cluster.sim.schedule(30.0, client.submit, "op-B")
    cluster.run(until=horizon)
    return XftResult(
        replicas=[leader] + honest,
        clients=[client],
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )


def run_xft_anarchy(cluster, horizon=300.0):
    """The anarchy divergence: Byzantine leader + partition (see
    :func:`_xft_attack`).  Honest replicas r1 and r2 end up with
    conflicting operations at sequence 0."""
    return _xft_attack(cluster, partitioned=True, horizon=horizon)


def run_xft_no_anarchy_control(cluster, horizon=300.0):
    """The same Byzantine leader *without* the partition: not anarchy,
    and the state transfer in r1's view-change vote preserves safety."""
    return _xft_attack(cluster, partitioned=False, horizon=horizon)
