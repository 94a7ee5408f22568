"""The distributed-transaction coordinator: 2PC over consensus groups.

One coordinator node drives each transaction through the tutorial's
Spanner stack, over the shard groups of a live
:class:`~repro.shard.keyspace.ShardMap`:

1. **2PL acquire + read** — a replicated ``txn_lock`` command on every
   involved shard (parallel), returning current values;
2. **compute** — the transaction's update function runs on the reads;
3. **2PC prepare** — replicated ``txn_prepare`` staging the writes on
   each shard.  Each participant's vote is a log entry, i.e. a
   consensus value (Gray & Lamport), so it survives any minority of
   replica crashes — 2PC's participant-side fragility is gone;
4. **2PC commit** — once every participant has answered ``prepared``,
   ``txn_commit`` everywhere (or ``txn_abort`` on any conflict, veto or
   failure, releasing locks).

When the update and the veto are :class:`KeyLocal` (each key's write
and veto read only that key, as a transfer's do), every participant
can compute its own writes, so steps 1-3 are one ``txn_lock`` entry
per participant carrying the program: it locks, reads, vetoes or
stages, and answers ``("prepared", reads)`` as its vote.  Any other
update keeps the two rounds, since it needs every shard's reads.

The commit rule: once every participant's log holds its vote (its
``txn_prepare``, or its ``txn_lock`` that staged), the transaction
commits, and the ``txn_commit`` entries are the replicated decision
(aborts are presumed).  So the
client hears ``committed`` when the last vote is logged, as the commit
round starts; that round's completion only closes the transaction
(:meth:`TxnCoordinator.settled`).  Its locks hold until each
``txn_commit`` applies, so no reader sees values from before the
commit: a new attempt of this coordinator's on those keys waits until
the round closes, another reader pays one conflict back-off.
A coordinator that crashes after replying leaves those locks held, but
the outcome it reported is the one the votes fixed.  The coordinator
may abort only before the first ``txn_commit`` is sent: on a
conflict, on a veto, or when a round stalls past
:attr:`TxnCoordinator.ROUND_TIMEOUT`.  A commit round retries until
every participant answers, so the one case that blocks is a group
that stays down through its commit round — outside the f-per-group
model.

A transaction whose keys all route to one shard needs no commit
protocol: it is one ``txn_exec`` entry (lock check, read, veto, write),
one consensus round, and holds no lock across rounds.  A conflict or a
stale route backs off and retries with no abort round.  Like a commit
round it has no stall deadline: whether the entry was logged is
unknown, so the coordinator waits for the group.

Routing is recomputed at every round, so a split's cutover is picked up
without any invalidation protocol.  A key's route cannot change while
its locks are held (``shard_freeze`` drains lock holders first), which
is the invariant making per-round recomputation sufficient.

Conflicts use no-wait: the coordinator aborts, releases, backs off a
randomized delay, and retries the whole transaction — the same
randomized-retry medicine the tutorial prescribes for Paxos duels.
``("frozen", ...)`` and ``("moved", ...)`` lock answers from a shard
mid-split are treated the same way: a stale route is a retriable event,
not an error.
"""

import enum
import itertools
from dataclasses import dataclass, field

from ..core.client import next_target
from ..core.node import Node


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
    ``{key: old_value} -> {key: new_value}`` (may write any subset of
    the keys).  ``abort_if`` lets business logic veto (e.g. overdraft)
    after reading — a clean abort, not a conflict.  Both must be pure:
    a one-shard transaction runs them on every replica of its shard (a
    fleet split across processes pickles them).
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


class KeyLocal:
    """Marks an ``update`` or ``abort_if`` whose answer for each key
    reads only that key.  Called on the reads of some of the keys, an
    update returns exactly its writes to those keys, and a veto vetoes
    iff one of those keys vetoes.  So each participant of a cross-shard
    transaction runs it on its own reads, and the transaction needs no
    round that gathers every shard's reads first."""

    __slots__ = ()


class Program:
    """A transaction's ``update`` and ``abort_if``, as a ``txn_exec`` or
    a key-local ``txn_lock`` command carries them.  The ``repr`` is
    constant, so no object address reaches a trace."""

    __slots__ = ("update", "abort_if")

    def __init__(self, update, abort_if):
        self.update, self.abort_if = update, abort_if

    def __repr__(self):
        return "<program>"


class GroupRequester(Node):
    """Replicates commands on consensus groups, wherever each group's
    leader currently is: send to the member last known to lead, follow
    redirects, move on to the next member on silence.  Every request
    carries a caller-chosen id and a ``tag`` handed back with the result
    — the transaction coordinator and the shard-split orchestrator are
    both this plus a state machine over the results.

    ``groups`` maps a group id to a group with ``members`` (replica
    names in ring order) and ``request(command, request_id)`` (the
    request message in whatever protocol that group speaks).  It is
    read live, so a group added later (a split's new shard) is
    addressable at once.  Subclasses provide ``on_result(tag, gid,
    command, result)`` (the first reply)."""

    RETRY_TIMEOUT = 15.0

    def __init__(self, sim, network, name, groups):
        super().__init__(sim, network, name)
        self.groups = groups
        self.leader_hint = {}  # gid -> member currently addressed
        self._pending = {}  # request_id -> (gid, command, tag)

    def members_of(self, gid):
        return self.groups[gid].members

    def make_request(self, gid, command, request_id):
        return self.groups[gid].request(command, request_id)

    def _target(self, gid):
        """The member addressed for ``gid``: its first member until a
        redirect or a silence moves the hint."""
        return self.leader_hint.setdefault(gid, self.members_of(gid)[0])

    def _request(self, request_id, gid, command, tag):
        self._pending[request_id] = (gid, command, tag)
        self.send(self._target(gid), self.make_request(gid, command,
                                                       request_id))
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
        # Only a leader replies: address it next, whichever member a
        # retry has moved the hint to since.
        self.leader_hint[gid] = src
        self.on_result(tag, gid, command, msg.result)

    # Raft replies/redirects carry the same fields as Multi-Paxos ones;
    # dispatch is by mtype, so the aliases make mixed fleets transparent.
    handle_raftclientreply = handle_clientreply
    handle_raftredirect = handle_redirect


class TxnCoordinator(GroupRequester):
    """Client-side 2PC driver over the shard groups of a fleet.

    Parameters
    ----------
    shard_map:
        The live routing table; consulted afresh every round.
    groups:
        Mapping shard id -> group (see :class:`GroupRequester`): a
        :class:`~repro.shard.group.ShardGroup`, or a stand-in for a
        group hosted in another worker process.
    """

    #: Retry budget per transaction before giving up with "aborted".
    MAX_ATTEMPTS = 12
    #: Range of the uniform randomized delay before a retry.
    BACKOFF = (2.0, 8.0)
    #: Stall deadline per round, in virtual time.  A lock, prepare or
    #: abort round that has not gathered all its replies by then — a
    #: participant group wholly crashed or partitioned away — aborts
    #: the transaction deterministically instead of hanging it.
    ROUND_TIMEOUT = 120.0
    #: Rounds the coordinator cannot undo once sent: they carry no
    #: stall deadline and retry until every participant answers.
    DECIDED_ROUNDS = frozenset({"txn_commit", "txn_exec"})

    def __init__(self, sim, network, name, shard_map, groups):
        super().__init__(sim, network, name, groups)
        self.shard_map = shard_map
        self._txns = {}
        self._request_seq = itertools.count()
        # txid -> {"kind", "waiting": set, "replies": dict, "vetoed"}
        self._round = {}
        self._round_timer = {}  # txid -> stall-deadline Timer
        self._committing = {}  # key -> txid of the open commit round on it
        self._held = {}  # that txid -> transactions waiting for it to close
        self.conflicts_seen = 0
        self.commits = 0
        self.aborts = 0
        self.timeout_aborts = 0
        self.fast_commits = 0
        self.reroutes = 0

    def stats(self):
        """The coordinator's outcome counters, as a plain dict."""
        return {
            "commits": self.commits,
            "aborts": self.aborts,
            "fast_commits": self.fast_commits,
            "timeout_aborts": self.timeout_aborts,
            "conflicts": self.conflicts_seen,
            "reroutes": self.reroutes,
        }

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
            by_group.setdefault(self.shard_map.shard_of(key), []).append(key)
        return by_group

    # -- attempt driving ------------------------------------------------------------

    def _begin_attempt(self, txn):
        if txn.attempts >= self.MAX_ATTEMPTS:
            self._finish(txn, "aborted")
            return
        for key in txn.keys:
            if key in self._committing:  # wait for that commit round
                self._held.setdefault(self._committing[key], []).append(txn)
                return
        txn.attempts += 1
        txn.reads = {}
        by_group = self.groups_of(txn)
        if len(by_group) == 1:
            ((gid, keys),) = by_group.items()
            txn.state = TxnState.COMMITTING
            self._start_round(txn, "txn_exec", {gid: (
                "txn_exec", txn.txid, txn.attempts, tuple(keys),
                Program(txn.update, txn.abort_if))})
            return
        staged = ()
        if isinstance(txn.update, KeyLocal) \
                and isinstance(txn.abort_if, (KeyLocal, type(None))):
            staged = (txn.attempts, Program(txn.update, txn.abort_if))
        txn.state = TxnState.LOCKING
        self._start_round(txn, "txn_lock", {
            gid: ("txn_lock", txn.txid, tuple(keys)) + staged
            for gid, keys in by_group.items()
        })

    def _start_round(self, txn, kind, commands, vetoed=False):
        # Requests of a superseded round must stop retrying: a stale
        # lock request landing after its round was aborted would take
        # locks nobody will ever release through this round.
        self._cancel_pending(txn.txid)
        self._round[txn.txid] = {
            "kind": kind,
            "waiting": set(commands),
            "replies": {},
            "vetoed": vetoed,
        }
        self.trace_local("txn_round", req=txn.txid, kind=kind,
                         attempt=txn.attempts)
        self._disarm_round_timer(txn.txid)
        if kind not in self.DECIDED_ROUNDS:
            self._round_timer[txn.txid] = self.set_timer(
                self.ROUND_TIMEOUT, self._round_stalled, txn)
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

    def _disarm_round_timer(self, txid):
        timer = self._round_timer.pop(txid, None)
        if timer is not None:
            timer.cancel()

    def _round_stalled(self, txn):
        """The stall deadline fired with a lock, prepare or abort round
        still open: some participant never answered through every
        replica we tried.  No commit was sent, so 2PC's answer is a
        *deterministic abort*.  The silent group may hold locks or
        staged writes, so each ``txn_abort`` retries, past the
        transaction's end, until its group acknowledges."""
        round_ = self._round.get(txn.txid)
        if round_ is None or not round_["waiting"] \
                or txn.state is TxnState.DONE:
            return  # round closed (e.g. waiting out a retry backoff)
        self.timeout_aborts += 1
        self.trace_local("txn_timeout", req=txn.txid, kind=round_["kind"])
        self._finish(txn, "aborted")
        for gid in self.groups_of(txn):
            request_id = "%s-timeout-abort-%d" % (txn.txid,
                                                  next(self._request_seq))
            self._request(request_id, gid, ("txn_abort", txn.txid),
                          (txn.txid, "timeout-abort"))

    def on_result(self, tag, gid, command, result):
        txid, kind = tag
        round_ = self._round.get(txid)
        if round_ is None or round_["kind"] != kind:
            return  # stale round (e.g. reply after an abort began)
        round_["replies"][gid] = result
        round_["waiting"].discard(gid)
        if not round_["waiting"]:
            self.trace_local("txn_round_done", req=txid, kind=kind)
            self._round_complete(self._txns[txid], round_)

    # -- round transitions -------------------------------------------------------------

    def _round_complete(self, txn, round_):
        kind = round_["kind"]
        replies = round_["replies"].values()
        if kind == "txn_lock":
            self._locks_answered(txn, replies)
        elif kind == "txn_exec":
            (reply,) = replies
            if reply[0] == "applied":
                self.fast_commits += 1
            if reply[0] in ("applied", "vetoed"):
                txn.reads = dict(reply[1])
                self._finish(txn, "committed" if reply[0] == "applied"
                             else "aborted")
            else:  # refused, nothing taken: back off, then try again
                self._count_refusals(replies)
                self._back_off(txn)
        elif kind == "txn_prepare":
            if all(reply == "prepared" for reply in replies):
                self._commit(txn)
            else:
                self._abort(txn)
        elif kind == "txn_commit":
            self._close(txn)
        elif round_["vetoed"]:  # txn_abort after the transaction's veto
            self._finish(txn, "aborted")
        else:  # txn_abort after a conflict: back off, then try again
            self._back_off(txn)

    def _back_off(self, txn):
        delay = self.rng.uniform(*self.BACKOFF)
        self.set_timer(delay, self._begin_attempt, txn)

    def _count_refusals(self, replies):
        kinds = [reply[0] for reply in replies]
        self.conflicts_seen += kinds.count("conflict")
        self.reroutes += kinds.count("frozen") + kinds.count("moved")

    def _locks_answered(self, txn, replies):
        kinds = {reply[0] for reply in replies}
        if not kinds <= {"ok", "prepared", "vetoed"}:
            self._count_refusals(replies)
            self._abort(txn)
            return
        for reply in replies:
            txn.reads.update(reply[1])
        if kinds == {"prepared"}:  # every key-local vote staged
            self._commit(txn)
            return
        if "vetoed" in kinds or (
                txn.abort_if is not None and txn.abort_if(txn.reads)):
            self._abort(txn, vetoed=True)
            return
        writes = txn.update(dict(txn.reads))
        by_group = {}
        for key, value in writes.items():
            by_group.setdefault(self.shard_map.shard_of(key), {})[key] = value
        txn.state = TxnState.PREPARING
        self._start_round(txn, "txn_prepare", {
            gid: ("txn_prepare", txn.txid,
                  tuple(sorted(by_group.get(gid, {}).items())))
            for gid in self.groups_of(txn)})

    def _commit(self, txn):
        """Every vote is in a participant's log: ``txn`` is committed,
        so report it now; the commit entries record it and release its
        locks behind the reply."""
        self._start_round(txn, "txn_commit", {
            gid: ("txn_commit", txn.txid) for gid in self.groups_of(txn)})
        for key in txn.keys:
            self._committing[key] = txn.txid
        self._report(txn, "committed")

    def _abort(self, txn, vetoed=False):
        """Release whatever ``txn`` might hold on every involved group.
        The abort round's completion retries the transaction, or — when
        its own ``abort_if`` vetoed it — finishes it aborted."""
        txn.state = TxnState.ABORTING
        self._start_round(txn, "txn_abort", {
            gid: ("txn_abort", txn.txid) for gid in self.groups_of(txn)
        }, vetoed=vetoed)

    def _finish(self, txn, outcome):
        self._report(txn, outcome)
        self._close(txn)

    def _report(self, txn, outcome):
        """Tell the client: ``txn`` is DONE with ``outcome``."""
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

    def _close(self, txn):
        """Forget ``txn``'s round, stall deadline and requests, and start
        the attempts its commit round held back."""
        self._round.pop(txn.txid, None)
        self._disarm_round_timer(txn.txid)
        self._cancel_pending(txn.txid)
        for key in txn.keys:
            if self._committing.get(key) == txn.txid:
                del self._committing[key]
        for waiting in self._held.pop(txn.txid, ()):
            self._begin_attempt(waiting)

    def settled(self, txn):
        """True once ``txn`` is reported and no round or request of it
        is still open: every group it touched has acknowledged its last
        round."""
        return txn.outcome is not None and txn.txid not in self._round \
            and all(tag[0] != txn.txid
                    for _gid, _command, tag in self._pending.values())
