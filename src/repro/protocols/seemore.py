"""SeeMoRe (Amiri et al., ICDE 2020): consensus across a hybrid cloud.

The setting from the slides: nodes in the **private cloud are trusted**
(crash-only, but scarce), nodes in the **public cloud are untrusted**
(Byzantine, but plentiful).  With at most c crash faults (private) and m
malicious faults (public), the network has **3m + 2c + 1** nodes, and
SeeMoRe picks one of three modes:

* **Mode 1 — trusted primary, centralized coordination**: a private-cloud
  primary proposes; all backups ack straight back to the primary.  Two
  phases, O(n) messages, quorum **2m + c + 1**.
* **Mode 2 — trusted primary, decentralized coordination**: the private
  primary proposes, but decision-making runs among **3m + 1 public
  proxies** talking to each other, relieving the private cloud of the
  second phase.  Two phases, O(n²), quorum **2m + 1**.
* **Mode 3 — untrusted primary, decentralized coordination**: even the
  primary sits in the public cloud, so a validation phase is added (the
  primary may equivocate).  Three phases, O(n²), quorum **2m + 1** —
  PBFT-shaped, but only among the proxies.

Experiment E13 measures phases / message counts / quorum sizes per mode.
"""

import enum
from dataclasses import dataclass
from operator import attrgetter

from ..core.client import ClientProtocol, ClosedLoopClient, RunResult
from ..core.node import Node
from ..core.quorums import CountingQuorum, minimum_nodes
from ..net.message import Message


class Mode(enum.Enum):
    """SeeMoRe's three deployment modes."""

    TRUSTED_CENTRALIZED = 1
    TRUSTED_DECENTRALIZED = 2
    UNTRUSTED_DECENTRALIZED = 3


@dataclass(frozen=True)
class SmRequest(Message):
    operation: object
    timestamp: float
    client: str


@dataclass(frozen=True)
class SmPropose(Message):
    seq: int
    operation: object
    timestamp: float
    client: str


@dataclass(frozen=True)
class SmAck(Message):
    """Mode 1: backup acknowledgement straight to the primary."""

    seq: int
    operation: object


@dataclass(frozen=True)
class SmValidate(Message):
    """Mode 3: proxies validate the untrusted primary's proposal."""

    seq: int
    operation: object


@dataclass(frozen=True)
class SmAccept(Message):
    """Modes 2/3: decentralized decision-making among proxies."""

    seq: int
    operation: object


@dataclass(frozen=True)
class SmCommit(Message):
    seq: int
    operation: object
    timestamp: float
    client: str


@dataclass(frozen=True)
class SmReply(Message):
    replica: str
    timestamp: float
    result: object


class SeeMoReReplica(Node):
    """A SeeMoRe node; behaviour depends on the mode and its placement.

    Parameters
    ----------
    private:
        Names of private-cloud (trusted, crash-only) nodes.
    public:
        Names of public-cloud (untrusted) nodes.
    proxies:
        The 3m+1 public nodes running decentralized decision-making
        (modes 2 and 3).
    """

    def __init__(self, sim, network, name, private, public, m, c, mode,
                 proxies=(), state_machine_factory=None):
        super().__init__(sim, network, name)
        self.private = list(private)
        self.public = list(public)
        self.peers = self.private + self.public
        self.n = len(self.peers)
        self.quorums = CountingQuorum.tolerating(self.peers, m + c, b=m)
        self.mode = Mode(mode)
        self.proxies = list(proxies)
        self.proxy_quorums = None
        if self.mode is not Mode.TRUSTED_CENTRALIZED:
            # Decentralized modes decide among the 3m+1 proxies alone.
            self.proxy_quorums = CountingQuorum.tolerating(
                self.proxies, m, b=m)
        if state_machine_factory is None:
            from .leader import ListStateMachine
            state_machine_factory = ListStateMachine
        self.state_machine = state_machine_factory()

        self.next_seq = 0
        self.executed = []  # (seq, operation)
        self._executed_seqs = set()
        self._acks = {}  # seq -> {name}
        self._validates = {}  # seq -> {name: operation}
        self._accepts = {}  # seq -> {name: operation}
        self._requests = {}  # seq -> (operation, timestamp, client)
        self._seen = set()  # (client, timestamp)

    # -- placement ----------------------------------------------------------

    @property
    def primary_name(self):
        if self.mode is Mode.UNTRUSTED_DECENTRALIZED:
            return self.public[0]
        return self.private[0]

    @property
    def is_primary(self):
        return self.name == self.primary_name

    @property
    def is_proxy(self):
        return self.name in self.proxies

    def _quorum(self):
        # Centralized: 2m+c+1 of all nodes; decentralized: 2m+1 proxies.
        if self.mode is Mode.TRUSTED_CENTRALIZED:
            return self.quorums.q2
        return self.proxy_quorums.q2

    # -- request entry ----------------------------------------------------------

    def handle_smrequest(self, msg, src):
        if not self.is_primary:
            self.send(self.primary_name, msg)
            return
        key = (msg.client, msg.timestamp)
        if key in self._seen:
            return
        self._seen.add(key)
        seq = self.next_seq
        self.next_seq += 1
        self._requests[seq] = (msg.operation, msg.timestamp, msg.client)
        propose = SmPropose(seq, msg.operation, msg.timestamp, msg.client)
        if self.network.metrics is not None:
            self.network.metrics.mark_phase("seemore-%d" % self.mode.value,
                                            "propose", self.sim.now)
        if self.mode is Mode.TRUSTED_CENTRALIZED:
            targets = [p for p in self.peers if p != self.name]
        elif self.mode is Mode.TRUSTED_DECENTRALIZED:
            targets = [p for p in self.proxies if p != self.name]
        else:
            targets = [p for p in self.peers if p != self.name]
        self.multicast(targets, propose)
        if self.mode is Mode.TRUSTED_CENTRALIZED:
            self._acks[seq] = {self.name}

    # -- mode 1: centralized ------------------------------------------------------

    def handle_smpropose(self, msg, src):
        if src != self.primary_name:
            return
        self._requests[msg.seq] = (msg.operation, msg.timestamp, msg.client)
        if self.mode is Mode.TRUSTED_CENTRALIZED:
            self.send(src, SmAck(msg.seq, msg.operation))
        elif self.mode is Mode.TRUSTED_DECENTRALIZED:
            if self.is_proxy:
                # Trusted primary cannot equivocate: accept directly.
                self._broadcast_accept(msg.seq, msg.operation)
        else:
            if self.is_proxy:
                # Untrusted primary: validate before accepting.
                if self.network.metrics is not None:
                    self.network.metrics.mark_phase("seemore-3", "validate",
                                                    self.sim.now)
                validate = SmValidate(msg.seq, msg.operation)
                self._record_validate(msg.seq, msg.operation, self.name)
                for proxy in self.proxies:
                    if proxy != self.name:
                        self.send(proxy, validate)

    def handle_smack(self, msg, src):
        if not (self.is_primary and self.mode is Mode.TRUSTED_CENTRALIZED):
            return
        acks = self._acks.setdefault(msg.seq, {self.name})
        acks.add(src)
        if len(acks) >= self._quorum() and msg.seq not in self._executed_seqs:
            operation, timestamp, client = self._requests[msg.seq]
            if self.network.metrics is not None:
                self.network.metrics.mark_phase("seemore-1", "decision",
                                                self.sim.now)
            commit = SmCommit(msg.seq, operation, timestamp, client)
            for peer in self.peers:
                if peer != self.name:
                    self.send(peer, commit)
            self._execute(msg.seq, operation, timestamp, client)

    # -- mode 3 validation ---------------------------------------------------------

    def handle_smvalidate(self, msg, src):
        if not self.is_proxy or self.mode is not Mode.UNTRUSTED_DECENTRALIZED:
            return
        self._record_validate(msg.seq, msg.operation, src)

    def _record_validate(self, seq, operation, sender):
        votes = self._validates.setdefault(seq, {})
        votes[sender] = operation
        matching = [s for s, op in votes.items() if op == operation]
        if len(matching) >= self._quorum() and seq not in self._accepts:
            self._broadcast_accept(seq, operation)

    # -- modes 2/3: decentralized decision ------------------------------------------

    def _broadcast_accept(self, seq, operation):
        if self.network.metrics is not None:
            self.network.metrics.mark_phase(
                "seemore-%d" % self.mode.value, "decision", self.sim.now
            )
        accept = SmAccept(seq, operation)
        self._record_accept(seq, operation, self.name)
        for proxy in self.proxies:
            if proxy != self.name:
                self.send(proxy, accept)

    def handle_smaccept(self, msg, src):
        if not self.is_proxy:
            return
        self._record_accept(msg.seq, msg.operation, src)

    def _record_accept(self, seq, operation, sender):
        votes = self._accepts.setdefault(seq, {})
        votes[sender] = operation
        matching = [s for s, op in votes.items() if op == operation]
        if len(matching) >= self._quorum() and seq not in self._executed_seqs:
            request = self._requests.get(seq)
            if request is None:
                return
            operation_, timestamp, client = request
            commit = SmCommit(seq, operation_, timestamp, client)
            for peer in self.peers:
                if peer not in self.proxies and peer != self.name:
                    self.send(peer, commit)
            self._execute(seq, operation_, timestamp, client)

    def handle_smcommit(self, msg, src):
        self._requests.setdefault(msg.seq, (msg.operation, msg.timestamp,
                                            msg.client))
        self._execute(msg.seq, msg.operation, msg.timestamp, msg.client)

    # -- execution -------------------------------------------------------------------

    def _execute(self, seq, operation, timestamp, client):
        if seq in self._executed_seqs:
            return
        self._executed_seqs.add(seq)
        result = self.state_machine.apply(operation)
        self.executed.append((seq, operation))
        self.send(client, SmReply(self.name, timestamp, result))


class SeeMoReClient(ClosedLoopClient):
    """Waits for m+1 matching replies (one correct public node, or any
    trusted private node's worth of agreement)."""

    def __init__(self, sim, network, name, entry, operations, m):
        super().__init__(sim, network, name, [entry], operations, m)

    handle_smreply = ClosedLoopClient.on_reply


#: How a client talks to SeeMoRe: one entry replica, m + 1 matching
#: replies, no retransmission.
CLIENT = SeeMoReClient.ROW = ClientProtocol(
    name="seemore",
    ident=lambda client, seq, operation: float(seq),
    request=lambda ident, operation, client=None, signer=None:
        SmRequest(operation, ident, client),
    reply=SmReply.mtype,
    key=attrgetter("timestamp"),
    need=lambda n, m: m + 1,
)


@dataclass
class SeeMoReResult(RunResult):
    mode: Mode


def run_seemore(cluster, mode=1, m=1, c=1, operations=3, horizon=2000.0):
    """Drive SeeMoRe in the given mode with 3m+2c+1 nodes."""
    n = minimum_nodes(m + c, b=m)
    n_proxies = minimum_nodes(m, b=m)
    n_private = 2 * c + 1 if mode != 3 else c + 1
    n_private = min(n_private, n - n_proxies)
    n_private = max(n_private, 1)
    private = ["priv%d" % i for i in range(n_private)]
    public = ["pub%d" % i for i in range(n - n_private)]
    proxies = public[:n_proxies]
    replicas = [
        cluster.add_node(SeeMoReReplica, name, private, public, m, c, mode,
                         proxies=proxies)
        for name in private + public
    ]
    entry = private[0] if mode != 3 else public[0]
    client = cluster.add_node(
        SeeMoReClient, "c0", entry,
        ["op-%d" % i for i in range(operations)], m,
    )
    return SeeMoReResult.drive(cluster, replicas, [client], horizon,
                               mode=Mode(mode))
