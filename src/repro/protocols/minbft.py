"""MinBFT (Veronese et al., IEEE ToC 2013): BFT with 2f+1 replicas.

The tutorial's point: PBFT's 3f+1/3-phase cost exists because a
Byzantine node can *equivocate* — tell different things to different
quorums.  MinBFT removes that power with a tamper-proof **USIG**
(Unique Sequential Identifier Generator): every protocol message carries
a UI whose counter the trusted component assigns incrementally, so "a
Byzantine node may decide not to send a message or send it corrupted,
but it cannot send two different messages to different replicas" with
the same counter.  With equivocation gone, **2f+1 replicas and two
phases** (prepare, commit) suffice — "the same number of replicas,
communication phases and message complexity as Paxos".

Flow: client → primary REQUEST; primary broadcasts PREPARE with a fresh
UI; replicas verify the UI sequence and broadcast COMMIT (with their own
UIs); a request is accepted once f+1 matching COMMITs arrive (at least
one from a correct replica), executed in counter order, and the client
waits for f+1 matching replies.
"""

from dataclasses import dataclass
from operator import attrgetter

from ..core.client import ClientProtocol, ClosedLoopClient, RunResult
from ..core.quorums import minimum_nodes
from ..crypto.usig import UsigLogChecker
from ..net.message import Message
from .replica import Replica, run_closed_loop


@dataclass(frozen=True)
class MinRequest(Message):
    operation: object
    timestamp: float
    client: str


@dataclass(frozen=True)
class MinPrepare(Message):
    view: int
    request: MinRequest
    ui: object  # primary's UI — assigns the order


@dataclass(frozen=True)
class MinCommit(Message):
    view: int
    request: MinRequest
    primary_ui: object
    ui: object  # committing replica's own UI


@dataclass(frozen=True)
class MinReply(Message):
    replica: str
    timestamp: float
    result: object


class MinBftReplica(Replica):
    """One MinBFT replica; replica 0 of ``peers`` is the view-0 primary.

    The USIG stops equivocation, so crash-sized quorums (b = 0) suffice:
    f+1 of 2f+1.
    """

    protocol = "minbft"

    def __init__(self, sim, network, name, peers, f, usig_authority,
                 state_machine_factory=None):
        super().__init__(sim, network, name, peers, f,
                         state_machine_factory=state_machine_factory)
        self.view = 0
        self.usig = usig_authority.provision(name)
        self._checkers = {
            peer: UsigLogChecker(self.usig, peer) for peer in self.other_peers
        }
        # Out-of-order UIs are buffered until the counter gap closes —
        # the receiver must process each sender's stream gap-free.
        self._usig_inbox = {peer: {} for peer in self.other_peers}
        self.executed = []  # (counter, operation)
        self._commit_votes = {}  # primary counter -> {replica}
        self._pending = {}  # primary counter -> MinPrepare
        self._next_to_execute = 1
        self._reply_cache = {}

    def handle_minrequest(self, msg, src):
        if not self.is_primary:
            self.send(self.primary_name, msg)
            return
        key = (msg.client, msg.timestamp)
        cached = self._reply_cache.get(key)
        if cached is not None:
            self.send(msg.client, cached)
            return
        if key in self._reply_cache:
            return  # in progress
        self._reply_cache[key] = None
        ui = self.usig.create_ui("prepare", self.view, msg.operation,
                                 msg.client, msg.timestamp)
        self.mark_phase("prepare")
        prepare = MinPrepare(self.view, msg, ui)
        self.multicast(self.other_peers, prepare)
        self._accept_prepare(prepare, from_self=True)

    def _usig_deliver(self, src, ui, values, continuation, msg):
        """Process ``msg`` only when ``ui`` is the next counter from
        ``src`` (buffering ahead-of-sequence messages, dropping replays
        and bad certificates)."""
        checker = self._checkers[src]
        if ui.counter < checker.expected:
            return  # replay
        if ui.counter > checker.expected:
            self._usig_inbox[src][ui.counter] = (ui, values, continuation, msg)
            return
        if not checker.accept(ui, *values):
            return  # forged certificate
        continuation(msg, src)
        inbox = self._usig_inbox[src]
        while checker.expected in inbox:
            next_ui, next_values, next_cont, next_msg = inbox.pop(checker.expected)
            if not checker.accept(next_ui, *next_values):
                return
            next_cont(next_msg, src)

    def handle_minprepare(self, msg, src):
        if src != self.primary_name or msg.view != self.view:
            return
        values = ("prepare", msg.view, msg.request.operation,
                  msg.request.client, msg.request.timestamp)
        self._usig_deliver(src, msg.ui, values,
                           lambda m, s: self._accept_prepare(m, from_self=False),
                           msg)

    def _accept_prepare(self, msg, from_self):
        # The PREPARE is the primary's own commit vote: its UI counter both
        # orders the request and contributes to the f+1 tally, so prepare
        # counters stay contiguous (1, 2, 3, ...) and double as sequence
        # numbers.
        counter = msg.ui.counter
        self._pending[counter] = msg
        self._record_commit(counter, self.primary_name)
        if from_self:
            return
        self.mark_phase("commit")
        ui = self.usig.create_ui("commit", self.view, counter)
        commit = MinCommit(self.view, msg.request, msg.ui, ui)
        self._record_commit(counter, self.name)
        self.multicast(self.other_peers, commit)

    def handle_mincommit(self, msg, src):
        if msg.view != self.view:
            return
        self._usig_deliver(src, msg.ui,
                           ("commit", msg.view, msg.primary_ui.counter),
                           self._accept_commit, msg)

    def _accept_commit(self, msg, src):
        counter = msg.primary_ui.counter
        if counter not in self._pending:
            # Commit arrived before the prepare; the commit carries enough
            # to reconstruct the prepare (it embeds the primary's UI).
            if not self.usig.verify_ui(
                msg.primary_ui, "prepare", msg.view, msg.request.operation,
                msg.request.client, msg.request.timestamp
            ):
                return
            self._pending[counter] = MinPrepare(msg.view, msg.request,
                                                msg.primary_ui)
        self._record_commit(counter, src)

    def _record_commit(self, counter, sender):
        votes = self._commit_votes.setdefault(counter, set())
        votes.add(sender)
        self._execute_ready()

    def _execute_ready(self):
        # Execute strictly in primary-counter order, once f+1 commits
        # (necessarily including a correct replica) are in.
        while True:
            counter = self._next_to_execute
            votes = self._commit_votes.get(counter, set())
            prepare = self._pending.get(counter)
            if prepare is None or len(votes) < self.quorums.q2:
                return
            self._next_to_execute += 1
            result = self.state_machine.apply(prepare.request.operation)
            self.executed.append((counter, prepare.request.operation))
            reply = MinReply(self.name, prepare.request.timestamp, result)
            key = (prepare.request.client, prepare.request.timestamp)
            self._reply_cache[key] = reply
            self.send(prepare.request.client, reply)


class MinBftClient(ClosedLoopClient):
    """MinBFT client: f+1 matching replies complete a request."""

    handle_minreply = ClosedLoopClient.on_reply


#: How a client talks to MinBFT: PBFT's rule (f + 1 matching replies,
#: retransmit to all) on 2f+1 replicas.
CLIENT = MinBftClient.ROW = ClientProtocol(
    name="minbft",
    ident=lambda client, seq, operation: float(seq),
    request=lambda ident, operation, client=None, signer=None:
        MinRequest(operation, ident, client),
    reply=MinReply.mtype,
    key=attrgetter("timestamp"),
    need=lambda n, f: f + 1,
    retry="multicast",
    retry_timeout=30.0,
)


class MinBftResult(RunResult):
    """What :func:`run_minbft` returns."""


def run_minbft(cluster, f=1, operations=3, horizon=2000.0, n_clients=1):
    """Drive a MinBFT cluster of 2f+1 replicas with ``n_clients``
    clients of ``operations`` each."""
    names = ["r%d" % i for i in range(minimum_nodes(f))]
    replicas = cluster.add_nodes(
        MinBftReplica, names, names, f, cluster.usig_authority
    )
    return run_closed_loop(MinBftResult, cluster, replicas, MinBftClient,
                           names, operations, f, horizon, n_clients)
