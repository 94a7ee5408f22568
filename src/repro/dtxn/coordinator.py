"""The distributed-transaction coordinator: 2PC over Paxos groups.

One coordinator node drives each transaction through the tutorial's
Spanner stack:

1. **2PL acquire + read** — a replicated ``txn_lock`` command on every
   involved partition (parallel), returning current values;
2. **compute** — the transaction's update function runs on the reads;
3. **2PC prepare** — replicated ``txn_prepare`` staging the writes on
   each partition (once a partition's Paxos log holds the prepare, it
   survives any minority of replica crashes — 2PC's participant-side
   fragility is gone);
4. **2PC decision** — ``txn_commit`` everywhere (or ``txn_abort`` on any
   conflict/failure, releasing locks).

Conflicts use no-wait: the coordinator aborts, releases, backs off a
randomized delay, and retries the whole transaction — the same
randomized-retry medicine the tutorial prescribes for Paxos duels.

(Spanner also replicates the *coordinator's* commit decision in its own
Paxos group; here the decision is durable the moment prepares are
replicated on every participant, and the simulator's coordinator is a
client-side driver — the participant-side replication is the property
the tutorial's figure is about.)
"""

import enum
import itertools
from dataclasses import dataclass, field

from ..core.client import next_target
from ..core.node import Node
from ..protocols.multipaxos import ClientRequest


class TxnState(enum.Enum):
    """Lifecycle of one distributed transaction."""

    LOCKING = "locking"
    PREPARING = "preparing"
    COMMITTING = "committing"
    ABORTING = "aborting"
    DONE = "done"


@dataclass
class Transaction:
    """One multi-partition transaction.

    ``keys`` is the full read/write set; ``update`` maps
    ``{key: old_value} -> {key: new_value}`` (pure, may write any subset
    of the keys).  ``abort_if`` lets business logic veto (e.g. overdraft)
    after reading — a clean abort, not a conflict.
    """

    txid: str
    keys: tuple
    update: object
    abort_if: object = None
    state: TxnState = TxnState.LOCKING
    attempts: int = 0
    reads: dict = field(default_factory=dict)
    outcome: str = None  # "committed" | "aborted"
    result: dict = None
    finished_at: float = None
    #: optional ``callback(txn)`` fired once when the txn reaches DONE;
    #: lets open-loop load injectors account completions without polling.
    on_finish: object = None


class GroupRequester(Node):
    """Replicates commands on consensus groups, wherever each group's
    leader currently is: send to the member last known to lead, follow
    redirects, move on to the next member on silence.  Every request
    carries a caller-chosen id and a ``tag`` handed back with the result
    — the transaction coordinator and the shard-split orchestrator are
    both this plus a state machine over the results.

    Subclasses provide ``members_of(gid)`` (replica names in ring
    order), ``make_request(gid, command, request_id)`` (the request
    message in whatever protocol that group speaks) and
    ``on_result(tag, gid, command, result)`` (the first reply)."""

    RETRY_TIMEOUT = 15.0

    def __init__(self, sim, network, name):
        super().__init__(sim, network, name)
        self.leader_hint = {}  # gid -> member currently addressed
        self._pending = {}  # request_id -> (gid, command, tag)

    def _request(self, request_id, gid, command, tag):
        self._pending[request_id] = (gid, command, tag)
        target = self.leader_hint.setdefault(gid, self.members_of(gid)[0])
        self.send(target, self.make_request(gid, command, request_id))
        # Retry against another replica if the leader is slow/dead.
        self.set_timer(self.RETRY_TIMEOUT, self._retry, request_id)

    def _retry(self, request_id):
        entry = self._pending.get(request_id)
        if entry is None:
            return
        gid, command, _tag = entry
        self.leader_hint[gid] = next_target(self.members_of(gid),
                                            self.leader_hint[gid])
        self.send(self.leader_hint[gid],
                  self.make_request(gid, command, request_id))
        self.set_timer(self.RETRY_TIMEOUT, self._retry, request_id)

    def handle_redirect(self, msg, src):
        entry = self._pending.get(msg.request_id)
        if entry is None:
            return
        gid, command, _tag = entry
        if msg.leader_hint and msg.leader_hint in self.members_of(gid):
            self.leader_hint[gid] = msg.leader_hint
        self.send(self.leader_hint[gid],
                  self.make_request(gid, command, msg.request_id))

    def handle_clientreply(self, msg, src):
        entry = self._pending.pop(msg.request_id, None)
        if entry is None:
            return  # duplicate reply
        gid, command, tag = entry
        self.on_result(tag, gid, command, msg.result)


class TxnCoordinator(GroupRequester):
    """Client-side transaction driver over partition groups.

    Parameters
    ----------
    groups:
        Mapping group_id -> list of replica names of that Paxos group.
    key_of_group:
        Callable key -> group_id (the partitioning function).
    max_attempts:
        Retry budget per transaction before giving up with "aborted".
    participant_timeout:
        Stall deadline per 2PC round, in virtual time.  A round that has
        not gathered all its replies by then — a participant group
        wholly crashed or partitioned away — aborts the transaction
        deterministically (releasing locks on every still-reachable
        group) instead of hanging it.  ``None`` disables the deadline.
    """

    def __init__(self, sim, network, name, groups, key_of_group,
                 max_attempts=12, backoff=(2.0, 8.0),
                 participant_timeout=120.0):
        super().__init__(sim, network, name)
        self.groups = {gid: list(names) for gid, names in groups.items()}
        self.key_of_group = key_of_group
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.participant_timeout = participant_timeout
        # Eager, not on first request: a timeout abort addresses groups
        # this coordinator may never have sent a tracked request to.
        self.leader_hint.update(
            (gid, names[0]) for gid, names in self.groups.items())
        self._txns = {}
        self._request_seq = itertools.count()
        self._round = {}  # txid -> {"kind", "waiting": set, "replies": dict}
        self._round_timer = {}  # txid -> stall-deadline Timer
        self.conflicts_seen = 0
        self.commits = 0
        self.aborts = 0
        self.timeout_aborts = 0

    def members_of(self, gid):
        return self.groups[gid]

    def make_request(self, gid, command, request_id):
        """Multi-Paxos groups; subclasses override this (per group) to
        speak to others."""
        return ClientRequest(command, request_id)

    # -- public -----------------------------------------------------------------

    def submit(self, txn):
        """Start driving ``txn``; progress is visible on ``txn.state``."""
        self._txns[txn.txid] = txn
        self.trace_local("txn_begin", req=txn.txid, keys=len(txn.keys))
        self._begin_attempt(txn)
        return txn

    def groups_of(self, txn):
        by_group = {}
        for key in txn.keys:
            by_group.setdefault(self.key_of_group(key), []).append(key)
        return by_group

    # -- attempt driving ------------------------------------------------------------

    def _begin_attempt(self, txn):
        if txn.attempts >= self.max_attempts:
            self._finish(txn, "aborted")
            return
        txn.attempts += 1
        txn.state = TxnState.LOCKING
        txn.reads = {}
        self._start_round(txn, "txn_lock", {
            gid: ("txn_lock", txn.txid, tuple(keys))
            for gid, keys in self.groups_of(txn).items()
        })

    def _start_round(self, txn, kind, commands):
        # Requests of a superseded round must stop retrying: a stale
        # lock request landing after its round was aborted would take
        # locks nobody will ever release through this round.
        self._cancel_pending(txn.txid)
        self._round[txn.txid] = {
            "kind": kind,
            "waiting": set(commands),
            "replies": {},
        }
        self.trace_local("txn_round", req=txn.txid, kind=kind,
                         attempt=txn.attempts)
        self._arm_round_timer(txn)
        for gid, command in commands.items():
            request_id = "%s-%s-%d" % (txn.txid, kind,
                                       next(self._request_seq))
            self._request(request_id, gid, command, (txn.txid, kind))

    def _cancel_pending(self, txid):
        """Forget every outstanding request of ``txid`` (their retry
        timers die on the next firing)."""
        stale = [rid for rid, (_gid, _command, tag) in self._pending.items()
                 if tag[0] == txid]
        for rid in stale:
            del self._pending[rid]

    # -- stall deadline ----------------------------------------------------------

    def _arm_round_timer(self, txn):
        self._disarm_round_timer(txn.txid)
        if self.participant_timeout is not None:
            self._round_timer[txn.txid] = self.set_timer(
                self.participant_timeout, self._round_stalled, txn)

    def _disarm_round_timer(self, txid):
        timer = self._round_timer.pop(txid, None)
        if timer is not None:
            timer.cancel()

    def _round_stalled(self, txn):
        """The stall deadline fired with the round still open: some
        participant never answered through every replica we tried.
        2PC's answer is a *deterministic abort* — release locks on every
        group that can still hear us (fire-and-forget; the unreachable
        group holds no prepared writes we are obliged to keep) and
        finish the transaction as aborted."""
        round_ = self._round.get(txn.txid)
        if round_ is None or not round_["waiting"] \
                or txn.state is TxnState.DONE:
            return  # round closed (e.g. waiting out a retry backoff)
        self.timeout_aborts += 1
        self.trace_local("txn_timeout", req=txn.txid, kind=round_["kind"])
        self._cancel_pending(txn.txid)
        self._round.pop(txn.txid, None)
        txn.state = TxnState.ABORTING
        for gid in self.groups_of(txn):
            request_id = "%s-timeout-abort-%d" % (txn.txid,
                                                  next(self._request_seq))
            self.send(self.leader_hint[gid],
                      self.make_request(gid, ("txn_abort", txn.txid),
                                        request_id))
        self._finish(txn, "aborted")

    def on_result(self, tag, gid, command, result):
        txid, kind = tag
        round_ = self._round.get(txid)
        if round_ is None or round_["kind"] != kind:
            return  # stale round (e.g. reply after an abort began)
        round_["replies"][gid] = result
        round_["waiting"].discard(gid)
        if not round_["waiting"]:
            self.trace_local("txn_round_done", req=txid, kind=kind)
            self._round_complete(self._txns[txid], kind, round_["replies"])

    # -- round transitions -------------------------------------------------------------

    def _round_complete(self, txn, kind, replies):
        if kind == "txn_lock":
            conflicts = [r for r in replies.values() if r[0] == "conflict"]
            if conflicts:
                self.conflicts_seen += len(conflicts)
                self._abort_then_retry(txn, replies)
                return
            for reply in replies.values():
                txn.reads.update(reply[1])
            if txn.abort_if is not None and txn.abort_if(txn.reads):
                txn.state = TxnState.ABORTING
                self._start_round(txn, "txn_abort", {
                    gid: ("txn_abort", txn.txid)
                    for gid in self.groups_of(txn)
                })
                txn.outcome = "aborted-by-logic"
                return
            writes = txn.update(dict(txn.reads))
            txn.state = TxnState.PREPARING
            by_group = {}
            for key, value in writes.items():
                by_group.setdefault(self.key_of_group(key), {})[key] = value
            commands = {}
            for gid in self.groups_of(txn):
                group_writes = by_group.get(gid, {})
                commands[gid] = ("txn_prepare", txn.txid,
                                 tuple(sorted(group_writes.items())))
            self._start_round(txn, "txn_prepare", commands)
        elif kind == "txn_prepare":
            if all(reply == "prepared" for reply in replies.values()):
                txn.state = TxnState.COMMITTING
                self._start_round(txn, "txn_commit", {
                    gid: ("txn_commit", txn.txid)
                    for gid in self.groups_of(txn)
                })
            else:
                self._abort_then_retry(txn, replies)
        elif kind == "txn_commit":
            self._finish(txn, "committed")
        elif kind == "txn_abort":
            if txn.outcome == "aborted-by-logic":
                self._finish(txn, "aborted")
            else:
                delay = self.rng.uniform(*self.backoff)
                self.set_timer(delay, self._begin_attempt, txn)

    def _abort_then_retry(self, txn, replies):
        txn.state = TxnState.ABORTING
        # Release whatever we might hold on every involved group.
        self._start_round(txn, "txn_abort", {
            gid: ("txn_abort", txn.txid) for gid in self.groups_of(txn)
        })

    def _finish(self, txn, outcome):
        txn.outcome = outcome
        txn.state = TxnState.DONE
        txn.finished_at = self.sim.now
        txn.result = dict(txn.reads)
        self.trace_local("txn_finish", req=txn.txid, outcome=outcome)
        if outcome == "committed":
            self.commits += 1
        else:
            self.aborts += 1
        if txn.on_finish is not None:
            txn.on_finish(txn)
        self._round.pop(txn.txid, None)
        self._disarm_round_timer(txn.txid)
        self._cancel_pending(txn.txid)
