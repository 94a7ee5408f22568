"""The per-shard replicated state machine.

The tutorial's Google Spanner slide layers "Transactions: 2PL + 2PC"
over Paxos-replicated storage partitions.  This state machine is what
each shard group replicates: a KV store plus a lock table plus staged
(prepared-but-uncommitted) transaction writes.  Because locking,
preparing, committing and aborting are *log commands*, every replica of
the shard reaches identical lock/stage state — the "make the
participant fault-tolerant via abstract replication" move the tutorial
draws over abstract 2PC.

Locking discipline: strict two-phase locking with **no-wait** conflict
handling — a lock request that conflicts fails immediately (the
coordinator aborts and retries).  No-wait keeps the state machine
deterministic and makes deadlock impossible by construction.

Beyond 2PC's lock/prepare/commit/abort, the log carries:

* ``txn_exec`` — a whole single-shard transaction in **one** log entry
  (lock check, read, veto, update, write): one participant needs no
  commit protocol, so it commits in one consensus round, lock-free.
* a ``txn_lock`` carrying a key-local program — a cross-shard
  participant's lock, read and prepare in **one** log entry: it stages
  the writes its own reads determine, and the entry is its vote.
* ``shard_freeze`` / ``shard_install`` / ``shard_purge`` — the live
  split protocol's three replicated steps: drain-and-snapshot a key
  range, bulk-load it on the destination group, drop it at the source
  leaving a tombstone so stale routing is *told* it is stale.

Each ``txn_prepare`` entry (or staging ``txn_lock``) is a participant's
vote as a consensus value (Gray & Lamport's *Consensus on Transaction
Commit*), so the ``txn_commit`` entries are the replicated decision and
no separate decision record exists; aborts are presumed and never
recorded.

Everything here is a log command, so every replica of a shard reaches
identical lock tables, staged writes, frozen ranges and tombstones —
the migration itself is crash-tolerant the same way transactions are.
"""


def _in_range(key, lo, hi):
    """Membership in half-open ``[lo, hi)``; ``None`` = open end."""
    return (lo is None or key >= lo) and (hi is None or key < hi)


class ShardKVStateMachine:
    """Deterministic shard state machine for 2PL + 2PC, one-entry
    single-shard transactions, and range migration.

    Commands (all tuples):

    * ``("txn_lock", txid, keys)`` → ``("ok", {key: value})`` with all
      locks granted and current values read, or
      ``("conflict", holder_txid)`` with *no* locks taken.  Frozen
      (``("frozen", range)``) and moved (``("moved", range)``) keys are
      refused too — coordinators treat both like conflicts and re-route
      on retry, which is what makes a split invisible to the workload
      beyond a latency blip.
    * ``("txn_lock", txid, keys, attempt, program)`` with a key-local
      program → a refusal as above (nothing taken), ``("vetoed",
      reads)`` (takes nothing), or ``("prepared", reads)`` with the
      locks taken and ``program.update(reads)`` staged.  A later copy
      of one ``(txid, attempt)`` answers the first copy's result,
      taking nothing.
    * ``("txn_prepare", txid, writes)`` → ``"prepared"`` after staging,
      or ``"no-locks"`` if the transaction doesn't hold its locks.
    * ``("txn_exec", txid, attempt, keys, program)`` → a refusal as for
      ``txn_lock`` (nothing taken), ``("vetoed", reads)`` (writes
      nothing), or ``("applied", reads)`` after writing
      ``program.update(reads)``.  A later copy of one
      ``(txid, attempt)`` answers the first copy's result, applying
      nothing.
    * ``("txn_commit", txid)`` → ``"committed"`` (applies staged writes,
      releases locks).
    * ``("txn_abort", txid)`` → ``"aborted"`` (drops stage, releases).
    * ``("get", key)`` → value (non-transactional read).
    * ``("put", key, value)`` → previous value (non-transactional write;
      refused with ``"locked"`` if the key is locked).
    * ``("shard_freeze", lo, hi)`` → ``("frozen", items)`` snapshotting
      ``[lo, hi)`` and refusing new locks there, or ``("busy", holder)``
      while any live transaction still holds a lock in the range (the
      *drain*: the rebalancer retries until holders finish).
    * ``("shard_install", items)`` → ``"installed"`` (bulk load).
    * ``("shard_purge", lo, hi)`` → ``"purged"`` (drops the frozen range
      and tombstones it: later locks there answer ``("moved", ...)``).
    """

    def __init__(self):
        self.data = {}
        self.locks = {}  # key -> txid
        self.staged = {}  # txid -> {key: value}
        self.frozen = []  # list of (lo, hi) ranges being migrated out
        self.moved = []  # list of (lo, hi) tombstones (migrated away)
        self.executed = {}  # (txid, attempt) -> its first copy's answer
        self.ops_applied = 0
        self.commits = 0
        self.aborts = 0
        self.conflicts = 0
        self.fast_applies = 0

    def apply(self, command):
        op = command[0]
        handler = getattr(self, "_op_%s" % op, None)
        if handler is None:
            raise ValueError("unknown operation %r" % (op,))
        self.ops_applied += 1
        return handler(*command[1:])

    # -- transactional ---------------------------------------------------------

    def _op_txn_lock(self, txid, keys, attempt=None, program=None):
        if program is not None:
            return self._once(txid, attempt, keys, program, stage=True)
        blocked = self._refusal(txid, keys)
        if blocked is not None:
            return blocked
        for key in keys:
            self.locks[key] = txid
        return ("ok", {key: self.data.get(key) for key in keys})

    def _op_txn_exec(self, txid, attempt, keys, program):
        return self._once(txid, attempt, keys, program, stage=False)

    def _once(self, txid, attempt, keys, program, stage):
        result = self.executed.get((txid, attempt))
        if result is None:
            result = self.executed[(txid, attempt)] = \
                self._refusal(txid, keys) \
                or self._run(txid, keys, program, stage)
        return result

    def _run(self, txid, keys, program, stage):
        """Read ``keys``, then veto, stage (holding the locks) or write
        ``program``'s update of the reads."""
        reads = {key: self.data.get(key) for key in keys}
        if program.abort_if is not None and program.abort_if(reads):
            return ("vetoed", reads)
        writes = program.update(dict(reads))
        if stage:
            self.locks.update(dict.fromkeys(keys, txid))
            self.staged[txid] = writes
            return ("prepared", reads)
        self.data.update(writes)
        self.commits += 1
        self.fast_applies += 1
        return ("applied", reads)

    def _refusal(self, txid, keys):
        """``txid``'s frozen/moved/conflict answer for ``keys``, or None."""
        blocked = self._blocked_range(keys)
        if blocked is not None:
            return blocked
        for key in keys:
            holder = self.locks.get(key)
            if holder is not None and holder != txid:
                self.conflicts += 1
                return ("conflict", holder)

    def _holds_locks(self, txid, writes):
        return all(self.locks.get(key) == txid for key in writes)

    def _op_txn_prepare(self, txid, writes):
        writes = dict(writes)
        if not self._holds_locks(txid, writes):
            return "no-locks"
        self.staged[txid] = writes
        return "prepared"

    def _op_txn_commit(self, txid):
        self.data.update(self.staged.pop(txid, {}))
        self._release(txid)
        self.commits += 1
        return "committed"

    def _op_txn_abort(self, txid):
        self.staged.pop(txid, None)
        self._release(txid)
        self.aborts += 1
        return "aborted"

    def _release(self, txid):
        for key in [k for k, holder in self.locks.items() if holder == txid]:
            del self.locks[key]

    # -- plain access ------------------------------------------------------------

    def _op_get(self, key):
        return self.data.get(key)

    def _op_put(self, key, value):
        if key in self.locks:
            return "locked"
        previous = self.data.get(key)
        self.data[key] = value
        return previous

    def snapshot(self):
        return dict(self.data)

    # -- migration ----------------------------------------------------------

    def _op_shard_freeze(self, lo, hi):
        holders = sorted({txid for key, txid in self.locks.items()
                          if _in_range(key, lo, hi)})
        if holders:
            return ("busy", holders[0])
        self.frozen.append((lo, hi))
        items = tuple(sorted((key, value) for key, value in self.data.items()
                             if _in_range(key, lo, hi)))
        return ("frozen", items)

    def _op_shard_install(self, items):
        for key, value in items:
            self.data[key] = value
        return "installed"

    def _op_shard_purge(self, lo, hi):
        for key in [k for k in self.data if _in_range(k, lo, hi)]:
            del self.data[key]
        if (lo, hi) in self.frozen:
            self.frozen.remove((lo, hi))
        self.moved.append((lo, hi))
        return "purged"

    def _blocked_range(self, keys):
        for key in keys:
            for lo, hi in self.moved:
                if _in_range(key, lo, hi):
                    return ("moved", (lo, hi))
            for lo, hi in self.frozen:
                if _in_range(key, lo, hi):
                    return ("frozen", (lo, hi))
        return None
