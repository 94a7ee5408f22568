"""CheapBFT (Kapitza et al., EuroSys 2012): resource-efficient BFT.

The tutorial's three sub-protocols:

1. **CheapTiny** — the default: only **f+1 active replicas** run the
   agreement (prepare/commit with USIG certificates); the other f
   replicas are *passive* and merely apply state updates shipped by the
   actives.  With zero redundancy among actives, CheapTiny tolerates no
   faults itself —
2. **CheapSwitch** — any suspicion (a client that cannot collect f+1
   matching replies PANICs) makes the replicas broadcast PANIC, agree on
   an abort history (here: attested USIG counters + executed prefixes)
   and switch to
3. **MinBFT** — the full 2f+1-replica protocol of
   :mod:`repro.protocols.minbft`, which handles the fault; the system
   could later switch back (not modelled — the experiment measures the
   forward switch).

The payoff measured in E12: CheapTiny's normal-case message count with
f+1 senders versus MinBFT's with 2f+1.
"""

from dataclasses import dataclass

from ..core.client import RunResult
from ..core.quorums import minimum_nodes
from ..net.message import Message
from .minbft import MinBftClient, MinBftReplica, MinRequest, MinReply
from .replica import run_closed_loop


@dataclass(frozen=True)
class TinyPrepare(Message):
    request: MinRequest
    ui: object


@dataclass(frozen=True)
class TinyCommit(Message):
    primary_ui: object
    request: MinRequest
    ui: object


@dataclass(frozen=True)
class StateUpdate(Message):
    """Shipped from actives to passives: the executed operation."""

    counter: int
    operation: object


@dataclass(frozen=True)
class Panic(Message):
    reason: str


@dataclass(frozen=True)
class SwitchInfo(Message):
    """CheapSwitch abort-history contribution: attested USIG counter and
    the sender's executed history (so laggards can catch up)."""

    usig_counter: int
    history: tuple  # ((("tiny", counter), operation), ...)


class CheapBftReplica(MinBftReplica):
    """A CheapBFT replica: CheapTiny while all is well, MinBFT after a
    PANIC.  CheapTiny and CheapSwitch mark their phases as
    ``cheapbft``; the MinBFT phases keep ``minbft``.

    Parameters
    ----------
    active:
        The f+1 active replica names (must be a prefix-compatible subset
        of ``peers``); the first is the CheapTiny primary.
    """

    def __init__(self, sim, network, name, peers, f, usig_authority,
                 active, state_machine_factory=None):
        super().__init__(sim, network, name, peers, f, usig_authority,
                         state_machine_factory=state_machine_factory)
        self.active = list(active)
        if len(self.active) != f + 1:
            raise ValueError("CheapTiny needs exactly f+1 active replicas")
        #: The fan-out lists: the other actives, and the passives.
        self.active_peers = [p for p in self.active if p != name]
        self.passive = [p for p in self.peers if p not in self.active]
        self.mode = "tiny"
        self.is_active = name in self.active
        self._tiny_votes = {}  # counter -> {replica}
        self._tiny_pending = {}  # counter -> TinyPrepare
        self._tiny_next = 1
        self._switch_info = {}
        self._panicked = False
        self.switched_at = None

    # -- CheapTiny ------------------------------------------------------------

    @property
    def tiny_primary(self):
        return self.active[0]

    def handle_minrequest(self, msg, src):
        if self.mode != "tiny":
            super().handle_minrequest(msg, src)
            return
        if self.name != self.tiny_primary:
            if self.is_active or True:
                self.send(self.tiny_primary, msg)
            return
        key = (msg.client, msg.timestamp)
        cached = self._reply_cache.get(key)
        if cached is not None:
            self.send(msg.client, cached)
            return
        if key in self._reply_cache:
            return
        self._reply_cache[key] = None
        ui = self.usig.create_ui("tiny-prepare", msg.operation, msg.client,
                                 msg.timestamp)
        self.mark_phase("tiny-prepare", "cheapbft")
        prepare = TinyPrepare(msg, ui)
        self.multicast(self.active_peers, prepare)
        self._tiny_accept_prepare(prepare, from_self=True)

    def handle_tinyprepare(self, msg, src):
        if self.mode != "tiny" or src != self.tiny_primary or not self.is_active:
            return
        values = ("tiny-prepare", msg.request.operation, msg.request.client,
                  msg.request.timestamp)
        self._usig_deliver(src, msg.ui, values,
                           lambda m, s: self._tiny_accept_prepare(m, from_self=False),
                           msg)

    def _tiny_accept_prepare(self, msg, from_self):
        counter = msg.ui.counter
        self._tiny_pending[counter] = msg
        self._tiny_vote(counter, self.tiny_primary)
        if from_self:
            return
        self.mark_phase("tiny-commit", "cheapbft")
        ui = self.usig.create_ui("tiny-commit", counter)
        commit = TinyCommit(msg.ui, msg.request, ui)
        self._tiny_vote(counter, self.name)
        self.multicast(self.active_peers, commit)

    def handle_tinycommit(self, msg, src):
        if self.mode != "tiny" or not self.is_active:
            return
        self._usig_deliver(src, msg.ui, ("tiny-commit", msg.primary_ui.counter),
                           self._tiny_accept_commit, msg)

    def _tiny_accept_commit(self, msg, src):
        counter = msg.primary_ui.counter
        if counter not in self._tiny_pending:
            if not self.usig.verify_ui(msg.primary_ui, "tiny-prepare",
                                       msg.request.operation,
                                       msg.request.client,
                                       msg.request.timestamp):
                return
            self._tiny_pending[counter] = TinyPrepare(msg.request, msg.primary_ui)
        self._tiny_vote(counter, src)

    def _tiny_vote(self, counter, sender):
        votes = self._tiny_votes.setdefault(counter, set())
        votes.add(sender)
        self._tiny_execute_ready()

    def _tiny_execute_ready(self):
        # CheapTiny needs *all* f+1 active replicas — no slack at all.
        while True:
            counter = self._tiny_next
            votes = self._tiny_votes.get(counter, set())
            prepare = self._tiny_pending.get(counter)
            if prepare is None or len(votes) < len(self.active):
                return
            self._tiny_next += 1
            result = self.state_machine.apply(prepare.request.operation)
            self.executed.append((("tiny", counter), prepare.request.operation))
            reply = MinReply(self.name, prepare.request.timestamp, result)
            key = (prepare.request.client, prepare.request.timestamp)
            self._reply_cache[key] = reply
            self.send(prepare.request.client, reply)
            if self.name == self.tiny_primary:
                self.multicast(self.passive,
                               StateUpdate(counter, prepare.request.operation))

    def handle_stateupdate(self, msg, src):
        if src != self.tiny_primary or self.is_active:
            return
        # Passive replica: apply updates strictly in order.
        self._tiny_pending[msg.counter] = msg.operation
        while self._tiny_next in self._tiny_pending:
            operation = self._tiny_pending.pop(self._tiny_next)
            self.state_machine.apply(operation)
            self.executed.append((("tiny", self._tiny_next), operation))
            self._tiny_next += 1

    # -- CheapSwitch ------------------------------------------------------------

    def handle_panic(self, msg, src):
        if self.mode != "tiny":
            return
        if not self._panicked:
            self._panicked = True
            self.mark_phase("panic", "cheapbft")
            self.multicast(self.other_peers, Panic(msg.reason))
            info = SwitchInfo(self.usig.counter, tuple(self.executed))
            self._record_switch_info(self.name, info)
            self.multicast(self.other_peers, info)

    def handle_switchinfo(self, msg, src):
        if self.mode != "tiny":
            return
        self.handle_panic(Panic("peer"), src)  # join the panic if new
        self._record_switch_info(src, msg)

    #: Settle time between reaching the f+1 threshold and switching, so
    #: every live replica's contribution arrives and all replicas compute
    #: the same contributor set (hence the same new primary).
    SWITCH_SETTLE = 5.0

    def _record_switch_info(self, sender, info):
        self._switch_info[sender] = info
        # Need f+1 contributions beyond any possible faulty set to pin the
        # abort history; with 2f+1 replicas and <= f faulty, f+1 suffices.
        if len(self._switch_info) == self.quorums.q1:
            self.set_timer(self.SWITCH_SETTLE, self._switch_to_minbft)

    def _switch_to_minbft(self):
        if self.mode != "tiny":
            return
        self.mode = "minbft"
        self.switched_at = self.sim.now
        self.mark_phase("switch", "cheapbft")
        # Fast-forward every checker past the counters consumed in the
        # tiny epoch (the attested abort history).
        for sender, info in self._switch_info.items():
            checker = self._checkers.get(sender)
            if checker is not None and info.usig_counter + 1 > checker.expected:
                checker.expected = info.usig_counter + 1
                self._usig_inbox[sender] = {}
        # Catch up: adopt the longest executed history among contributors
        # (crash-only actives in this model; real CheapBFT certifies the
        # abort history against f+1 matching segments).
        longest = max(
            (info.history for info in self._switch_info.values()),
            key=len,
            default=(),
        )
        if len(longest) > len(self.executed):
            for key, operation in longest[len(self.executed):]:
                self.state_machine.apply(operation)
                self.executed.append((key, operation))
                self._tiny_next = max(self._tiny_next, key[1] + 1)
        # Unfinished tiny-epoch requests must be re-orderable in MinBFT.
        for key in [k for k, v in self._reply_cache.items() if v is None]:
            del self._reply_cache[key]
        # The MinBFT epoch starts from the new primary's next counter.
        # Primary choice: the lowest-indexed replica that contributed.
        contributors = [p for p in self.peers if p in self._switch_info]
        new_primary = contributors[0]
        self.view = self.peers.index(new_primary)
        primary_info = self._switch_info.get(new_primary)
        self._next_to_execute = primary_info.usig_counter + 1

    # MinBFT-side execution must tag its entries with the epoch so the
    # cross-replica consistency check doesn't mix counter namespaces.
    def _execute_ready(self):
        while True:
            counter = self._next_to_execute
            votes = self._commit_votes.get(counter, set())
            prepare = self._pending.get(counter)
            if prepare is None or len(votes) < self.quorums.q2:
                return
            self._next_to_execute += 1
            result = self.state_machine.apply(prepare.request.operation)
            self.executed.append((("minbft", counter),
                                  prepare.request.operation))
            reply = MinReply(self.name, prepare.request.timestamp, result)
            key = (prepare.request.client, prepare.request.timestamp)
            self._reply_cache[key] = reply
            self.send(prepare.request.client, reply)


class CrashedActive(CheapBftReplica):
    """An active replica that dies mid-run (driver crashes it on cue)."""


class CheapBftClient(MinBftClient):
    """MinBFT client that PANICs when replies don't arrive in time."""

    def __init__(self, sim, network, name, replicas, operations, f,
                 panic_timeout=15.0, retry_timeout=30.0):
        super().__init__(sim, network, name, replicas, operations, f,
                         retry_timeout=retry_timeout)
        self.panic_timeout = panic_timeout
        self.panics_sent = 0
        self._panic_timer = None

    def _send_next(self):
        super()._send_next()
        if not self.done:
            if self._panic_timer is not None:
                self._panic_timer.cancel()
            self._panic_timer = self.set_timer(self.panic_timeout, self._panic,
                                               self._next)

    def _panic(self, expected_next):
        if self.done or self._next != expected_next:
            return  # the request completed meanwhile
        self.panics_sent += 1
        self.multicast(self.replicas, Panic("client-timeout"))
        # Resend the request so the post-switch protocol picks it up.
        self.multicast(self.replicas, self._request())
        self._panic_timer = self.set_timer(self.panic_timeout, self._panic,
                                           self._next)


class CheapBftResult(RunResult):
    """What :func:`run_cheapbft` returns."""

    def modes(self):
        return [r.mode for r in self.replicas]

    def logs(self):
        """Per-replica logs positioned by ``(epoch, counter)``: the
        CheapTiny epoch's entries come before the MinBFT epoch's."""
        epoch = {"tiny": 0, "minbft": 1}
        return [[((epoch[tag], counter), operation)
                 for (tag, counter), operation in replica.executed]
                for replica in self.replicas]


def run_cheapbft(cluster, f=1, operations=3, horizon=2000.0, n_clients=1):
    """Drive CheapBFT; crashing an active replica (``r0``..``r<f>``)
    forces the CheapSwitch → MinBFT path."""
    names = ["r%d" % i for i in range(minimum_nodes(f))]
    active = names[: f + 1]
    replicas = cluster.add_nodes(
        CheapBftReplica, names, names, f, cluster.usig_authority, active
    )
    return run_closed_loop(CheapBftResult, cluster, replicas, CheapBftClient,
                           names, operations, f, horizon, n_clients)
