"""Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI '99).

The slides' summary, implemented in full:

* **3f+1 replicas, quorums of 2f+1, intersection f+1** — so any two
  quorums share at least one *correct* replica.
* Three phases: **pre-prepare** picks the order (the primary assigns a
  sequence number), **prepare** ensures order within a view (2f matching
  prepares + the pre-prepare), **commit** ensures order across views
  (2f+1 commits).  A replica executes a request once it is committed and
  every lower sequence number has been executed, then replies to the
  client, which waits for **f+1 matching replies**.
* **View change** provides liveness when the primary fails: timeouts
  trigger VIEW-CHANGE messages carrying prepared certificates; the new
  primary needs 2f+1 of them and broadcasts NEW-VIEW with proof,
  re-proposing every prepared request.  Message complexity O(n²) in the
  normal case and O(n³) for view change (n² messages × O(n) certificate
  size).
* **Garbage collection**: replicas periodically checkpoint and a
  checkpoint becomes *stable* with 2f+1 matching CHECKPOINT messages,
  letting the log be truncated.

Why Paxos cannot simply be reused (the slides' question): a malicious
primary can assign the same sequence number to different requests, and
a Paxos majority quorum's intersection may contain only faulty nodes.
PBFT fixes both with the extra phase and the bigger quorum; the
``equivocate`` Byzantine primary behaviour in this module demonstrates
the attack and the defence.
"""

from dataclasses import dataclass
from operator import attrgetter

from ..core.client import ClientProtocol, ClosedLoopClient, RunResult
from ..core.quorums import CountingQuorum, minimum_nodes
from ..crypto.hashing import sha256_hex
from ..net.message import Message
from .replica import Replica


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class PbftRequest(Message):
    operation: object
    timestamp: float
    client: str
    #: Client signature over (operation, timestamp, client).  When the
    #: cluster runs with a key registry, replicas refuse unsigned or
    #: forged requests — the defence that stops a Byzantine primary from
    #: fabricating operations (see ForgingPrimary for the attack).
    signature: object = None


@dataclass(frozen=True)
class PrePrepare(Message):
    view: int
    seq: int
    digest: str
    request: PbftRequest


@dataclass(frozen=True)
class PbftPrepare(Message):
    view: int
    seq: int
    digest: str


@dataclass(frozen=True)
class PbftCommit(Message):
    view: int
    seq: int
    digest: str


@dataclass(frozen=True)
class PbftReply(Message):
    view: int
    timestamp: float
    client: str
    replica: str
    result: object


@dataclass(frozen=True)
class Checkpoint(Message):
    seq: int
    state_digest: str


@dataclass(frozen=True)
class ViewChange(Message):
    new_view: int
    last_stable_seq: int
    prepared_proofs: tuple  # ((seq, digest, view), ...)


@dataclass(frozen=True)
class NewView(Message):
    view: int
    view_change_senders: tuple
    pre_prepares: tuple  # ((seq, digest, request), ...)


def request_digest(request):
    return sha256_hex(request.operation, request.timestamp, request.client)


NULL_DIGEST = "null"
NULL_REQUEST = PbftRequest("no-op", -1.0, "_null")


class _SlotState:
    """Per-(seq) agreement bookkeeping.

    ``prepared_proof`` survives view changes: it is the (view, digest,
    request) of the highest view in which this replica prepared the slot,
    and is what VIEW-CHANGE messages carry — without it, a second view
    change could lose a possibly-committed request and violate safety.
    """

    __slots__ = ("digest", "request", "pre_prepared", "prepares", "commits",
                 "prepared", "committed", "executed", "prepared_proof")

    def __init__(self):
        self.digest = None
        self.request = None
        self.pre_prepared = False
        self.prepares = set()
        self.commits = set()
        self.prepared = False
        self.committed = False
        self.executed = False
        self.prepared_proof = None  # (view, digest, request)


def quorums_for(peers, f):
    """The quorums PBFT replicas count votes with: any two share f+1
    replicas (b = f), at least one of them correct."""
    return CountingQuorum.tolerating(peers, f, b=f)


class PbftReplica(Replica):
    """One PBFT replica (the primary of view v is ``peers[v % n]``).

    Parameters
    ----------
    f:
        Tolerated Byzantine faults; requires n >= 3f+1, and any two
        quorums share f+1 replicas (b = f, :func:`quorums_for`).
    checkpoint_interval:
        Checkpoint every this-many executed requests.
    """

    VIEW_CHANGE_TIMEOUT = 20.0
    protocol = "pbft"

    def __init__(self, sim, network, name, peers, f,
                 state_machine_factory=None, checkpoint_interval=16,
                 keys=None):
        super().__init__(sim, network, name, peers, f, b=f,
                         state_machine_factory=state_machine_factory)
        self.keys = keys  # KeyRegistry for client-request verification
        self.checkpoint_interval = checkpoint_interval

        self.view = 0
        self.next_seq = 0
        self.slots = {}  # seq -> _SlotState
        self.last_executed = -1
        self.last_stable_seq = -1
        self.executed_requests = []
        self._seen_digests = {}  # digest -> seq (dedup at every replica)
        self._last_reply = {}  # (client, timestamp) -> PbftReply cache
        self._checkpoint_votes = {}  # seq -> {replica: digest}
        #: (digest of the latest checkpoint taken, how many entries of
        #: ``executed_requests`` it covers): the next checkpoint hashes
        #: this digest plus the operations executed since, never the
        #: prefix again.
        self._last_checkpoint = ("", 0)
        self._view_changes = {}  # new_view -> {sender: ViewChange}
        self._view_change_timer = None
        self._pending_requests = {}  # digest -> PbftRequest (awaiting order)
        self._future_preprepares = []  # stashed until the NEW-VIEW arrives
        self.view_changes_completed = 0

    # -- client requests -------------------------------------------------------

    def _request_authentic(self, request):
        """With a key registry, only properly client-signed requests (or
        protocol no-ops) are acceptable."""
        if self.keys is None:
            return True
        if request.client == "_null":
            return True
        return self.keys.verify(request.signature, "pbft-request",
                                request.operation, request.timestamp,
                                request.client)

    def handle_pbftrequest(self, msg, src):
        if not self._request_authentic(msg):
            return
        digest = request_digest(msg)
        cached = self._last_reply.get((msg.client, msg.timestamp))
        if cached is not None:
            # Standard PBFT dedup: retransmit the cached reply rather than
            # re-ordering (and rather than re-arming liveness timers).
            self.send(msg.client, cached)
            return
        if digest in self._seen_digests:
            return  # already ordered / in progress
        if self.is_primary:
            self._assign(msg, digest)
        else:
            # Backup: remember the request and start the view-change timer;
            # if the primary never orders it, liveness machinery kicks in.
            self._pending_requests[digest] = msg
            self._arm_view_change_timer()

    def _assign(self, request, digest):
        seq = self.next_seq
        self.next_seq += 1
        self._seen_digests[digest] = seq
        self.mark_phase("pre-prepare")
        message = PrePrepare(self.view, seq, digest, request)
        self._accept_pre_prepare(message)
        self.multicast(self.other_peers, message)

    # -- phase 1: pre-prepare ---------------------------------------------------

    def handle_preprepare(self, msg, src):
        if msg.view > self.view:
            # We have not seen the NEW-VIEW yet; hold the proposal until
            # the view catches up instead of dropping it.
            self._future_preprepares.append((msg, src))
            return
        if src != self.primary_name or msg.view != self.view:
            return
        if msg.digest != NULL_DIGEST and request_digest(msg.request) != msg.digest:
            return  # corrupted proposal
        if msg.digest != NULL_DIGEST and not self._request_authentic(msg.request):
            return  # fabricated request: the primary cannot forge clients
        slot = self.slots.get(msg.seq)
        if slot is not None and slot.executed:
            return  # already executed this sequence number
        if slot is not None and slot.digest is not None and slot.digest != msg.digest:
            # Equivocation detected: the primary assigned this sequence
            # number to a different request already.  Refuse and push for
            # a view change.
            self._arm_view_change_timer()
            return
        self._accept_pre_prepare(msg)
        self.mark_phase("prepare")
        prepare = PbftPrepare(msg.view, msg.seq, msg.digest)
        self._record_prepare(msg.seq, msg.digest, self.name)
        self.multicast(self.other_peers, prepare)

    def _slot(self, seq):
        # Not ``setdefault``: that builds a _SlotState on every call and
        # drops it on all but the first per sequence number.
        slot = self.slots.get(seq)
        if slot is None:
            slot = self.slots[seq] = _SlotState()
        return slot

    def _accept_pre_prepare(self, msg):
        slot = self._slot(msg.seq)
        slot.digest = msg.digest
        slot.request = msg.request
        slot.pre_prepared = True
        # The pre-prepare doubles as the primary's prepare vote.
        slot.prepares.add(self.primary_name)
        self._seen_digests[msg.digest] = msg.seq
        self._pending_requests.pop(msg.digest, None)
        # A backup that accepted a client request keeps a timer running
        # until the request executes — otherwise a primary that orders
        # but never completes (e.g. by equivocating on sequence numbers)
        # would stall the system forever.
        if not self.is_primary and msg.request is not None \
                and msg.request.client != "_null":
            self._arm_view_change_timer()
        self._maybe_prepared(msg.seq)

    def _has_unexecuted_client_slots(self):
        return any(
            slot.pre_prepared and not slot.executed
            and slot.request is not None and slot.request.client != "_null"
            for slot in self.slots.values()
        )

    # -- phase 2: prepare ----------------------------------------------------

    def handle_pbftprepare(self, msg, src):
        # Prepare, commit, checkpoint and view-change votes count only
        # from replicas: an outsider's vote would let more than b
        # members of a quorum be faulty.
        if msg.view != self.view or src not in self.quorums.members:
            return
        self._record_prepare(msg.seq, msg.digest, src)

    def _record_prepare(self, seq, digest, sender):
        slot = self._slot(seq)
        if slot.digest is not None and slot.digest != digest:
            return  # prepare for a conflicting digest: ignore
        slot.prepares.add(sender)
        self._maybe_prepared(seq)

    def _maybe_prepared(self, seq):
        slot = self.slots.get(seq)
        if slot is None or slot.prepared or not slot.pre_prepared:
            return
        # prepared == pre-prepare + 2f prepares (incl. own) == quorum votes
        if len(slot.prepares) >= self.quorums.q2:
            slot.prepared = True
            slot.prepared_proof = (self.view, slot.digest, slot.request)
            self.mark_phase("commit")
            commit = PbftCommit(self.view, seq, slot.digest)
            self._record_commit(seq, slot.digest, self.name)
            self.multicast(self.other_peers, commit)

    # -- phase 3: commit --------------------------------------------------------

    def handle_pbftcommit(self, msg, src):
        if msg.view != self.view or src not in self.quorums.members:
            return
        self._record_commit(msg.seq, msg.digest, src)

    def _record_commit(self, seq, digest, sender):
        slot = self._slot(seq)
        if slot.digest is not None and slot.digest != digest:
            return
        slot.commits.add(sender)
        self._maybe_committed(seq)

    def _maybe_committed(self, seq):
        slot = self.slots.get(seq)
        if slot is None or slot.committed or not slot.prepared:
            return
        if len(slot.commits) >= self.quorums.q2:
            slot.committed = True
            self._execute_ready()

    # -- execution ----------------------------------------------------------

    def _execute_ready(self):
        while True:
            seq = self.last_executed + 1
            slot = self.slots.get(seq)
            if slot is None or not slot.committed or slot.executed:
                return
            slot.executed = True
            self.last_executed = seq
            request = slot.request
            is_real = request is not None and request.client != "_null"
            self.trace_local("execute", seq=seq, view=self.view,
                             op=request.operation if is_real else "null")
            if is_real:
                result = self.state_machine.apply(request.operation)
                self.executed_requests.append((seq, request.operation))
                reply = PbftReply(self.view, request.timestamp, request.client,
                                  self.name, result)
                self._last_reply[(request.client, request.timestamp)] = reply
                self.send(request.client, reply)
            if self._view_change_timer is not None \
                    and not self._pending_requests \
                    and not self._has_unexecuted_client_slots():
                self._view_change_timer.cancel()
                self._view_change_timer = None
            if (seq + 1) % self.checkpoint_interval == 0:
                self._take_checkpoint(seq)

    # -- checkpoints / garbage collection ------------------------------------

    def _take_checkpoint(self, seq):
        # A hash chain over checkpoint-to-checkpoint segments (the shape
        # of Zyzzyva's ``history``): two replicas hold the same digest
        # iff their executed prefixes agree, and the work per checkpoint
        # is one interval's worth of operations however long the log is.
        previous, offset = self._last_checkpoint
        digest = sha256_hex(
            previous, [op for _seq, op in self.executed_requests[offset:]])
        self._last_checkpoint = (digest, len(self.executed_requests))
        self._record_checkpoint_vote(seq, digest, self.name)
        message = Checkpoint(seq, digest)
        self.multicast(self.other_peers, message)

    def handle_checkpoint(self, msg, src):
        if src in self.quorums.members:
            self._record_checkpoint_vote(msg.seq, msg.state_digest, src)

    def _record_checkpoint_vote(self, seq, digest, sender):
        votes = self._checkpoint_votes.setdefault(seq, {})
        votes[sender] = digest
        matching = [s for s, d in votes.items() if d == digest]
        if len(matching) >= self.quorums.q2 and seq > self.last_stable_seq:
            self._stabilise_checkpoint(seq)

    def _stabilise_checkpoint(self, seq):
        """2f+1 matching checkpoints: discard log entries up to seq."""
        self.last_stable_seq = seq
        for old_seq in [s for s in self.slots if s <= seq]:
            del self.slots[old_seq]
        for old_seq in [s for s in self._checkpoint_votes if s < seq]:
            del self._checkpoint_votes[old_seq]

    # -- view change ------------------------------------------------------------

    def _arm_view_change_timer(self):
        if self._view_change_timer is not None:
            return
        self._view_change_timer = self.set_timer(
            self.VIEW_CHANGE_TIMEOUT, self._start_view_change
        )

    def _start_view_change(self):
        self._view_change_timer = None
        self._send_view_change(self.view + 1)

    def _send_view_change(self, new_view):
        proofs = tuple(
            (seq, slot.prepared_proof[1], slot.prepared_proof[0],
             slot.prepared_proof[2])
            for seq, slot in sorted(self.slots.items())
            if slot.prepared_proof is not None and not slot.executed
        )
        self.mark_phase("view-change")
        message = ViewChange(new_view, self.last_stable_seq, proofs)
        self._record_view_change(message, self.name)
        self.multicast(self.other_peers, message)

    def handle_viewchange(self, msg, src):
        if msg.new_view <= self.view or src not in self.quorums.members:
            return
        self._record_view_change(msg, src)
        # Joining amplification: if f+1 replicas want a newer view, join in
        # (standard PBFT liveness rule) — b+1 of them include a correct one.
        votes = self._view_changes.get(msg.new_view, {})
        if len(votes) >= self.quorums.b + 1 and self.name not in votes:
            self._send_view_change(msg.new_view)

    def _record_view_change(self, msg, sender):
        votes = self._view_changes.setdefault(msg.new_view, {})
        votes[sender] = msg
        if self.primary_of(msg.new_view) != self.name:
            return
        if len(votes) >= self.quorums.q1 and msg.new_view > self.view:
            self._become_primary(msg.new_view, dict(votes))

    def _become_primary(self, new_view, votes):
        # Gather every prepared request from the certificates and
        # re-propose it in the new view (highest-view proof wins per seq).
        best = {}  # seq -> (view, digest, request)
        min_stable = max(vc.last_stable_seq for vc in votes.values())
        for vc in votes.values():
            for seq, digest, view, request in vc.prepared_proofs:
                if seq <= min_stable:
                    continue
                current = best.get(seq)
                if current is None or view > current[0]:
                    best[seq] = (view, digest, request)
        max_seq = max(best.keys(), default=min_stable)
        max_seq = max(max_seq, self.last_executed)
        pre_prepares = []
        for seq in range(min_stable + 1, max_seq + 1):
            if seq in best:
                _view, digest, request = best[seq]
                pre_prepares.append((seq, digest, request))
            else:
                slot = self.slots.get(seq)
                if slot is not None and slot.executed:
                    # Locally executed: its digest is committed; carry it.
                    pre_prepares.append((seq, slot.digest, slot.request))
                else:
                    pre_prepares.append((seq, NULL_DIGEST, NULL_REQUEST))
        self.view = new_view
        self.view_changes_completed += 1
        self.trace_local("lead", view=new_view)
        self.next_seq = max_seq + 1
        self._enter_view(pre_prepares)
        message = NewView(new_view, tuple(sorted(votes)), tuple(pre_prepares))
        self.multicast(self.other_peers, message)
        # Locally run the agreement for the carried-over proposals (the
        # pre-prepare is implicit in the NEW-VIEW for the backups).
        for seq, digest, request in pre_prepares:
            self._accept_pre_prepare(
                PrePrepare(new_view, seq, digest,
                           request if request is not None else NULL_REQUEST)
            )
        # Re-propose any requests still waiting for an order.
        for digest, request in list(self._pending_requests.items()):
            if digest not in self._seen_digests:
                self._assign(request, digest)
        self._replay_future_preprepares()

    def handle_newview(self, msg, src):
        if src != self.primary_of(msg.view) or msg.view <= self.view:
            return
        if len(msg.view_change_senders) < self.quorums.q1:
            return  # insufficient proof
        self.view = msg.view
        self.view_changes_completed += 1
        max_seq = max((seq for seq, _d, _r in msg.pre_prepares),
                      default=self.last_executed)
        self.next_seq = max_seq + 1
        self._enter_view(msg.pre_prepares)
        # Run the prepare phase for the re-proposed requests.
        for seq, digest, request in msg.pre_prepares:
            self.handle_preprepare(
                PrePrepare(msg.view, seq, digest,
                           request if request is not None else NULL_REQUEST),
                src,
            )
        self._replay_future_preprepares()
        # Forward orphaned requests to the new primary so they don't have
        # to wait for a client retransmission.
        for request in self._pending_requests.values():
            self.send(src, request)

    def _replay_future_preprepares(self):
        stashed, self._future_preprepares = self._future_preprepares, []
        for msg, src in stashed:
            if msg.view >= self.view:
                self.handle_preprepare(msg, src)

    def _enter_view(self, pre_prepares):
        if self._view_change_timer is not None:
            self._view_change_timer.cancel()
            self._view_change_timer = None
        # Agreement state is re-earned in the new view, but prepared
        # proofs persist (they may certify a committed request).  Any
        # request *not* carried over and *not* locally prepared goes back
        # to the pending pool so it can be re-ordered from scratch.
        carried = {digest for _seq, digest, _request in pre_prepares}
        for seq in list(self.slots):
            slot = self.slots[seq]
            if slot.executed:
                continue
            if (slot.digest is not None and slot.digest not in carried
                    and slot.prepared_proof is None):
                self._seen_digests.pop(slot.digest, None)
                if slot.request is not None and slot.request.client != "_null":
                    self._pending_requests[slot.digest] = slot.request
                del self.slots[seq]
                continue
            slot.prepares = set()
            slot.commits = set()
            slot.prepared = False
            slot.pre_prepared = False
            slot.digest = None
            slot.request = None
        if self._pending_requests and not self.is_primary:
            self._arm_view_change_timer()


# -- Byzantine primaries -------------------------------------------------------


class EquivocatingPrimary(PbftReplica):
    """A malicious primary that equivocates on *ordering*: it tells half
    the replicas a request has sequence number k and the other half k+1.
    Neither assignment can gather 2f+1 prepares, the request stalls, the
    backups' timers fire, and a view change removes the attacker — the
    attack the slides use to motivate the prepare phase."""

    def _assign(self, request, digest):
        seq = self.next_seq
        self.next_seq += 2
        self._seen_digests[digest] = seq
        half = len(self.peers) // 2
        for position, peer in enumerate(self.peers):
            if peer == self.name:
                continue
            assigned = seq if position < half else seq + 1
            self.send(peer, PrePrepare(self.view, assigned, digest, request))
        # The faulty primary does not follow the protocol locally.


class ForgingPrimary(PbftReplica):
    """A malicious primary that *fabricates* a request no client sent and
    assigns the same sequence number to the real and fake requests for
    different halves.  Against an unauthenticated cluster (keys=None) the
    fabricated operation can actually commit; with client signatures the
    honest replicas refuse the forged pre-prepare outright — the library's
    demonstration of why PBFT requests are signed."""

    def _assign(self, request, digest):
        seq = self.next_seq
        self.next_seq += 1
        self._seen_digests[digest] = seq
        fake = PbftRequest(("forged-op",), request.timestamp, request.client,
                           signature=request.signature)  # stolen, stale sig
        fake_digest = request_digest(fake)
        half = len(self.peers) // 2
        for position, peer in enumerate(self.peers):
            if peer == self.name:
                continue
            if position < half:
                self.send(peer, PrePrepare(self.view, seq, digest, request))
            else:
                self.send(peer, PrePrepare(self.view, seq, fake_digest, fake))


class SilentPrimary(PbftReplica):
    """A primary that accepts requests and never orders them — the
    failure that exercises the view-change path."""

    def _assign(self, request, digest):
        self._seen_digests[digest] = self.next_seq  # swallow silently


class PbftClient(ClosedLoopClient):
    """PBFT client: sends to the primary, accepts f+1 matching replies,
    broadcasts to all replicas on timeout (the standard liveness path)."""

    handle_pbftreply = ClosedLoopClient.on_reply


def _client_request(ident, operation, client=None, signer=None):
    """The timestamp doubles as the request identifier; ``signer`` signs
    when the cluster verifies client requests."""
    signature = None
    if signer is not None:
        signature = signer.sign("pbft-request", operation, ident, client)
    return PbftRequest(operation, ident, client, signature)


#: How a client talks to PBFT (see :mod:`repro.core.client`).
CLIENT = PbftClient.ROW = ClientProtocol(
    name="pbft",
    ident=lambda client, seq, operation: float(seq),
    request=_client_request,
    reply=PbftReply.mtype,
    key=attrgetter("timestamp"),
    need=lambda n, f: f + 1,
    nodes_per_fault=3,
    replica=PbftReplica,
    replica_args=lambda peers, f: (peers, f),
    is_leader=attrgetter("is_primary"),
    client=PbftClient,
    retry="multicast",
    retry_timeout=30.0,
    spans=True,
    view=attrgetter("view"),
)


# -- driver -----------------------------------------------------------------


class PbftResult(RunResult):
    """What :func:`run_pbft` returns."""

    def honest_replicas(self):
        return [
            r for r in self.replicas
            if type(r) is PbftReplica and not r.crashed
        ]

    def executed_logs(self):
        return [r.executed_requests for r in self.honest_replicas()]

    logs = executed_logs


def run_pbft(
    cluster,
    f=1,
    n_clients=1,
    operations_per_client=3,
    primary_class=PbftReplica,
    horizon=3000.0,
    checkpoint_interval=16,
    authenticate_clients=False,
):
    """Drive a PBFT cluster; ``primary_class`` selects the replica-0
    behaviour (honest, equivocating, forging, silent).  With
    ``authenticate_clients`` replicas verify client signatures via the
    cluster's key registry."""
    names = ["r%d" % i for i in range(minimum_nodes(f, b=f))]
    keys = cluster.keys if authenticate_clients else None
    replicas = []
    for i, name in enumerate(names):
        cls = primary_class if i == 0 else PbftReplica
        replicas.append(
            cluster.add_node(cls, name, names, f,
                             checkpoint_interval=checkpoint_interval,
                             keys=keys)
        )
    clients = [
        cluster.add_node(
            PbftClient,
            "c%d" % i,
            names,
            ["op-%d-%d" % (i, j) for j in range(operations_per_client)],
            f,
            signer=cluster.keys.signer("c%d" % i) if authenticate_clients
            else None,
        )
        for i in range(n_clients)
    ]
    return PbftResult.drive(cluster, replicas, clients, horizon)
