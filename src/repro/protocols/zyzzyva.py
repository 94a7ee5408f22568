"""Zyzzyva: speculative Byzantine fault tolerance (Kotla et al., SOSP '07).

The tutorial's summary: replicas *speculatively* execute a request as
soon as they receive a valid ordered request from the primary —
commitment moves to the **client**:

* **Case 1** — the client receives **3f+1 matching replies**: every
  replica executed in the same order; the request completes in a single
  phase (request → order → reply, 3 message delays).
* **Case 2** — the client receives only **2f+1** matching replies within
  its timeout: it assembles a *commit certificate* (the 2f+1 matching
  replies) and sends it to all replicas; a replica receiving the
  certificate knows the request is durable and answers Local-Commit; the
  client completes on 2f+1 local-commits.

Prepare and commit collapse into one linear phase; the price is a more
complex view change (one extra round), which this module does not need
to exercise — the two figure cases and the speculative/PBFT latency gap
are the reproduced claims (E10).
"""

from dataclasses import dataclass

from ..core.client import RunResult
from ..core.node import Node
from ..core.quorums import CountingQuorum, minimum_nodes
from ..crypto.hashing import sha256_hex
from ..net.message import Message
from .replica import Replica, run_closed_loop


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class ZyzRequest(Message):
    operation: object
    timestamp: float
    client: str


@dataclass(frozen=True)
class OrderReq(Message):
    """Primary's ordered request: sequence number + request + history."""

    view: int
    seq: int
    history: str
    request: ZyzRequest


@dataclass(frozen=True)
class SpecReply(Message):
    """A replica's speculative reply (sent straight to the client)."""

    view: int
    seq: int
    history: str
    replica: str
    client: str
    timestamp: float
    result: object


@dataclass(frozen=True)
class CommitCert(Message):
    """Case 2: the client's commit certificate — 2f+1 matching replies
    (here: the replica names plus the agreed (seq, history))."""

    view: int
    seq: int
    history: str
    replicas: tuple


@dataclass(frozen=True)
class LocalCommit(Message):
    view: int
    seq: int
    replica: str


class ZyzzyvaReplica(Replica):
    """A Zyzzyva replica: execute speculatively, reply to the client."""

    protocol = "zyzzyva"

    def __init__(self, sim, network, name, peers, f, state_machine_factory=None):
        super().__init__(sim, network, name, peers, f, b=f,
                         state_machine_factory=state_machine_factory)
        self.view = 0
        self.next_seq = 0
        self.history = sha256_hex("genesis")
        self.max_cc_seq = -1  # highest sequence covered by a commit cert
        self.speculative_log = []  # (seq, operation)
        self._ordered = {}  # (client, timestamp) -> OrderReq (primary dedup)
        self._reply_cache = {}  # (client, timestamp) -> SpecReply

    def handle_zyzrequest(self, msg, src):
        if not self.is_primary:
            # Backups forward to the primary (liveness; no view change here).
            self.send(self.primary_name, msg)
            return
        key = (msg.client, msg.timestamp)
        order = self._ordered.get(key)
        if order is None:
            seq = self.next_seq
            self.next_seq += 1
            history = sha256_hex(self.history, msg.operation, seq)
            order = OrderReq(self.view, seq, history, msg)
            self._ordered[key] = order
            self.mark_phase("order")
            self.multicast(self.other_peers, order)
            self._speculative_execute(order)
        else:
            # Retransmission: resend the same ordered request and reply.
            self.multicast(self.other_peers, order)
            cached = self._reply_cache.get(key)
            if cached is not None:
                self.send(msg.client, cached)

    def handle_orderreq(self, msg, src):
        if src != self.primary_name or msg.view != self.view:
            return
        key = (msg.request.client, msg.request.timestamp)
        cached = self._reply_cache.get(key)
        if cached is not None:
            self.send(msg.request.client, cached)
            return
        expected = sha256_hex(self.history, msg.request.operation, msg.seq)
        if expected != msg.history:
            return  # inconsistent history: would trigger view change
        self._speculative_execute(msg)

    def _speculative_execute(self, order):
        self.history = order.history
        result = self.state_machine.apply(order.request.operation)
        self.speculative_log.append((order.seq, order.request.operation))
        reply = SpecReply(order.view, order.seq, order.history, self.name,
                          order.request.client, order.request.timestamp, result)
        self._reply_cache[(order.request.client, order.request.timestamp)] = reply
        self.send(order.request.client, reply)

    def handle_commitcert(self, msg, src):
        if len(set(msg.replicas)) >= self.quorums.q2:
            self.max_cc_seq = max(self.max_cc_seq, msg.seq)
            self.send(src, LocalCommit(msg.view, msg.seq, self.name))


class SlowReplica(ZyzzyvaReplica):
    """A replica that never answers — forcing the client down Case 2."""

    def _speculative_execute(self, order):
        # Executes but stays silent (crash-like behaviour towards clients).
        self.history = order.history
        self.state_machine.apply(order.request.operation)
        self.speculative_log.append((order.seq, order.request.operation))
        self._reply_cache[(order.request.client, order.request.timestamp)] = None

    def handle_orderreq(self, msg, src):
        if (msg.request.client, msg.request.timestamp) in self._reply_cache:
            return  # never re-executes, never replies
        super().handle_orderreq(msg, src)

    def handle_commitcert(self, msg, src):
        pass


class ZyzzyvaClient(Node):
    """The Zyzzyva client: completes case-1 fast or falls back to the
    commit-certificate path."""

    def __init__(self, sim, network, name, replicas, operations, f,
                 case2_timeout=4.0, retry_timeout=30.0):
        super().__init__(sim, network, name)
        self.replicas = list(replicas)
        self.n = len(self.replicas)
        self.quorums = CountingQuorum.tolerating(self.replicas, f, b=f)
        self.f = f
        self.operations = list(operations)
        self.case2_timeout = case2_timeout
        self.retry_timeout = retry_timeout
        self.results = []
        self.latencies = []
        self.case1_completions = 0
        self.case2_completions = 0
        self._next = 0
        self._replies = {}  # replica -> SpecReply
        self._local_commits = set()
        self._committing = None
        self._sent_at = None
        self._case2_timer = None

    def on_start(self):
        self._send_next()

    def _send_next(self):
        if self.done:
            return
        self._replies = {}
        self._local_commits = set()
        self._committing = None
        self._sent_at = self.sim.now
        self.send(self.replicas[0],
                  ZyzRequest(self.operations[self._next], float(self._next),
                             self.name))
        self._case2_timer = self.set_timer(self.case2_timeout, self._try_case2)

    def handle_specreply(self, msg, src):
        if self.done or msg.timestamp != float(self._next):
            return
        self._replies[src] = msg
        groups = self._matching_groups()
        # Case 1: all 3f+1 replicas agree — complete immediately.
        for names in groups.values():
            if len(names) >= self.n:
                self._complete(case=1)
                return

    def _matching_groups(self):
        groups = {}
        for name, reply in self._replies.items():
            groups.setdefault((reply.seq, reply.history), set()).add(name)
        return groups

    def _try_case2(self):
        if self.done or self._committing is not None:
            return
        groups = self._matching_groups()
        for (seq, history), names in groups.items():
            if len(names) >= self.quorums.q2:
                self._committing = (seq, history)
                self.network.metrics.mark_phase("zyzzyva", "commit",
                                                self.sim.now)
                cert = CommitCert(0, seq, history, tuple(sorted(names)))
                self.multicast(self.replicas, cert)
                return
        # Fewer than 2f+1 matching replies: retransmit later.
        self._case2_timer = self.set_timer(self.retry_timeout, self._resend)

    def _resend(self):
        if not self.done and self._committing is None:
            self.multicast(
                self.replicas,
                ZyzRequest(self.operations[self._next], float(self._next),
                           self.name),
            )
            self._case2_timer = self.set_timer(self.case2_timeout, self._try_case2)

    def handle_localcommit(self, msg, src):
        if self.done or self._committing is None:
            return
        if msg.seq != self._committing[0]:
            return
        self._local_commits.add(src)
        if len(self._local_commits) >= self.quorums.q2:
            self._complete(case=2)

    def _complete(self, case):
        if case == 1:
            self.case1_completions += 1
        else:
            self.case2_completions += 1
        reply = next(iter(self._replies.values()))
        self.results.append(reply.result)
        self.latencies.append(self.sim.now - self._sent_at)
        if self._case2_timer is not None:
            self._case2_timer.cancel()
        self._next += 1
        self._send_next()

    @property
    def done(self):
        return self._next >= len(self.operations)


# -- driver -----------------------------------------------------------------


class ZyzzyvaResult(RunResult):
    """What :func:`run_zyzzyva` returns."""

    def case_counts(self):
        ones = sum(c.case1_completions for c in self.clients)
        twos = sum(c.case2_completions for c in self.clients)
        return ones, twos

    def logs(self):
        return [r.speculative_log for r in self.replicas]


def run_zyzzyva(cluster, f=1, operations=3, slow_replicas=(), horizon=2000.0,
                n_clients=1):
    """Drive Zyzzyva; ``slow_replicas`` indices answer nothing, forcing
    the commit-certificate path."""
    names = ["r%d" % i for i in range(minimum_nodes(f, b=f))]
    replicas = []
    for i, name in enumerate(names):
        cls = SlowReplica if i in slow_replicas else ZyzzyvaReplica
        replicas.append(cluster.add_node(cls, name, names, f))
    return run_closed_loop(ZyzzyvaResult, cluster, replicas, ZyzzyvaClient,
                           names, operations, f, horizon, n_clients)
