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
from ..core.quorums import CountingQuorum, minimum_nodes
from ..net.message import Message
from .replica import Replica, run_closed_loop


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


class SeeMoReReplica(Replica):
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
        super().__init__(sim, network, name, list(private) + list(public),
                         m + c, b=m,
                         state_machine_factory=state_machine_factory)
        self.private = list(private)
        self.public = list(public)
        self.mode = Mode(mode)
        self.protocol = "seemore-%d" % self.mode.value
        self.proxies = list(proxies)
        #: The other proxies: the decentralized modes' fan-out list.
        self.other_proxies = [p for p in self.proxies if p != name]
        self.proxy_quorums = None
        if self.mode is not Mode.TRUSTED_CENTRALIZED:
            # Decentralized modes decide among the 3m+1 proxies alone.
            self.proxy_quorums = CountingQuorum.tolerating(
                self.proxies, m, b=m)

        self.next_seq = 0
        self.executed = []  # (seq, operation), in sequence order
        self._acks = {}  # seq -> {name}
        self._validates = {}  # seq -> {name: operation}
        self._accepts = {}  # seq -> {name: operation}
        self._requests = {}  # seq -> (operation, timestamp, client)
        self._seen = set()  # (client, timestamp)

    # -- placement ----------------------------------------------------------

    @property
    def primary_name(self):
        # Placement, not rotation: SeeMoRe has no view change.
        if self.mode is Mode.UNTRUSTED_DECENTRALIZED:
            return self.public[0]
        return self.private[0]

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
        self.mark_phase("propose")
        if self.mode is Mode.TRUSTED_DECENTRALIZED:
            self.multicast(self.other_proxies, propose)
        else:
            self.multicast(self.other_peers, propose)
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
                self.mark_phase("validate")
                validate = SmValidate(msg.seq, msg.operation)
                self._record_validate(msg.seq, msg.operation, self.name)
                self.multicast(self.other_proxies, validate)

    def handle_smack(self, msg, src):
        if not (self.is_primary and self.mode is Mode.TRUSTED_CENTRALIZED):
            return
        acks = self._acks.setdefault(msg.seq, {self.name})
        acks.add(src)
        if len(acks) >= self._quorum() and not self._committed(msg.seq):
            operation, timestamp, client = self._requests[msg.seq]
            self.mark_phase("decision")
            commit = SmCommit(msg.seq, operation, timestamp, client)
            self.multicast(self.other_peers, commit)
            self._execute_in_order(msg.seq, operation, timestamp, client)

    # -- mode 3 validation ---------------------------------------------------------

    def handle_smvalidate(self, msg, src):
        if not self.is_proxy or self.mode is not Mode.UNTRUSTED_DECENTRALIZED:
            return
        self._record_validate(msg.seq, msg.operation, src)

    def _record_validate(self, seq, operation, sender):
        votes = self._validates.setdefault(seq, {})
        votes[sender] = operation
        matching = [s for s, op in votes.items() if op == operation]
        # Another proxy's ACCEPT may already be recorded; what matters is
        # whether this proxy has accepted.
        if len(matching) >= self._quorum() \
                and self.name not in self._accepts.get(seq, ()):
            self._broadcast_accept(seq, operation)

    # -- modes 2/3: decentralized decision ------------------------------------------

    def _broadcast_accept(self, seq, operation):
        self.mark_phase("decision")
        accept = SmAccept(seq, operation)
        self._record_accept(seq, operation, self.name)
        self.multicast(self.other_proxies, accept)

    def handle_smaccept(self, msg, src):
        if not self.is_proxy:
            return
        self._record_accept(msg.seq, msg.operation, src)

    def _record_accept(self, seq, operation, sender):
        votes = self._accepts.setdefault(seq, {})
        votes[sender] = operation
        matching = [s for s, op in votes.items() if op == operation]
        if len(matching) >= self._quorum() and not self._committed(seq):
            request = self._requests.get(seq)
            if request is None:
                return
            operation_, timestamp, client = request
            commit = SmCommit(seq, operation_, timestamp, client)
            self.multicast([p for p in self.other_peers
                            if p not in self.proxies], commit)
            self._execute_in_order(seq, operation_, timestamp, client)

    def handle_smcommit(self, msg, src):
        self._requests.setdefault(msg.seq, (msg.operation, msg.timestamp,
                                            msg.client))
        self._execute_in_order(msg.seq, msg.operation, msg.timestamp,
                               msg.client)

    # -- execution -------------------------------------------------------------------

    def _execute(self, seq, operation, timestamp, client):
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


def run_seemore(cluster, mode=1, m=1, c=1, operations=3, horizon=2000.0,
                n_clients=1):
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
    return run_closed_loop(SeeMoReResult, cluster, replicas, SeeMoReClient,
                           entry, operations, m, horizon, n_clients,
                           mode=Mode(mode))
