"""Tests for distributed transactions: 2PL + 2PC over consensus groups,
driven through the sharded store."""

import pytest

from repro.core import Cluster, Node
from repro.dtxn import TxnState
from repro.dtxn.coordinator import GroupRequester, Program, TxnCoordinator
from repro.faults import FaultPlan
from repro.protocols.multipaxos import ClientReply, ClientRequest, LogCommand
from repro.shard import ShardedCluster, ShardKVStateMachine
from repro.shard.layout import Shortfall, transfer_update


class TestTxnStateMachine:
    def setup_method(self):
        self.sm = ShardKVStateMachine()

    def test_lock_read_prepare_commit_cycle(self):
        self.sm.apply(("put", "a", 10))
        status, reads = self.sm.apply(("txn_lock", "t1", ("a",)))
        assert status == "ok" and reads == {"a": 10}
        assert self.sm.apply(("txn_prepare", "t1", (("a", 99),))) == "prepared"
        assert self.sm.apply(("txn_commit", "t1")) == "committed"
        assert self.sm.apply(("get", "a")) == 99
        assert self.sm.locks == {}

    def test_conflicting_lock_denied_atomically(self):
        self.sm.apply(("txn_lock", "t1", ("a",)))
        status, holder = self.sm.apply(("txn_lock", "t2", ("a", "b")))
        assert status == "conflict" and holder == "t1"
        # No partial locks: b must not be held by t2.
        assert "b" not in self.sm.locks

    def test_abort_releases_and_discards(self):
        self.sm.apply(("put", "a", 1))
        self.sm.apply(("txn_lock", "t1", ("a",)))
        self.sm.apply(("txn_prepare", "t1", (("a", 2),)))
        assert self.sm.apply(("txn_abort", "t1")) == "aborted"
        assert self.sm.apply(("get", "a")) == 1
        assert self.sm.locks == {}

    def test_prepare_without_locks_refused(self):
        assert self.sm.apply(("txn_prepare", "t1", (("a", 2),))) == "no-locks"

    def test_plain_put_refused_on_locked_key(self):
        self.sm.apply(("txn_lock", "t1", ("a",)))
        assert self.sm.apply(("put", "a", 5)) == "locked"

    def test_relock_by_same_txn_is_fine(self):
        self.sm.apply(("txn_lock", "t1", ("a",)))
        status, _reads = self.sm.apply(("txn_lock", "t1", ("a", "b")))
        assert status == "ok"

    def test_exec_applies_update_and_keeps_no_lock(self):
        self.sm.apply(("put", "a", 10))
        assert self.sm.apply(_exec("t1", 1, ("a", "b"), _bump)) \
            == ("applied", {"a": 10, "b": None})
        assert self.sm.data == {"a": 11, "b": 1} and self.sm.locks == {}

    def test_exec_conflict_takes_nothing(self):
        self.sm.apply(("put", "a", 10))
        self.sm.apply(("txn_lock", "t1", ("b",)))
        assert self.sm.apply(_exec("t2", 1, ("a", "b"), _bump)) \
            == ("conflict", "t1")
        assert self.sm.data == {"a": 10} and self.sm.locks == {"b": "t1"}

    def test_exec_veto_writes_nothing(self):
        self.sm.apply(("put", "a", 10))
        veto = Program(_bump, lambda reads: reads["a"] < 50)
        assert self.sm.apply(("txn_exec", "t1", 1, ("a",), veto)) \
            == ("vetoed", {"a": 10})
        assert self.sm.data == {"a": 10} and self.sm.locks == {}

    def test_exec_on_a_frozen_or_moved_range_is_refused(self):
        self.sm.apply(("put", "k1", 10))
        assert self.sm.apply(("shard_freeze", "k0", "k5"))[0] == "frozen"
        assert self.sm.apply(_exec("t1", 1, ("k1",), _bump)) \
            == ("frozen", ("k0", "k5"))
        self.sm.apply(("shard_purge", "k0", "k5"))
        assert self.sm.apply(_exec("t1", 2, ("k1",), _bump)) \
            == ("moved", ("k0", "k5"))
        assert self.sm.data == {} and self.sm.locks == {}

    def test_exec_copy_of_one_request_answers_the_first_result(self):
        # The leader log can hold one request at two indices; only the
        # first copy may apply, and a copy of a refused attempt stays
        # refused after the lock is gone.
        self.sm.apply(("put", "a", 10))
        self.sm.apply(("txn_lock", "t0", ("a",)))
        refused = self.sm.apply(_exec("t1", 1, ("a",), _bump))
        self.sm.apply(("txn_abort", "t0"))
        assert self.sm.apply(_exec("t1", 1, ("a",), _bump)) == refused
        applied = self.sm.apply(_exec("t1", 2, ("a",), _bump))
        assert self.sm.apply(_exec("t1", 2, ("a",), _bump)) == applied \
            == ("applied", {"a": 10})
        assert self.sm.data == {"a": 11}

    def test_key_local_lock_stages_the_update_of_its_own_reads(self):
        self.sm.apply(("put", "a", 10))
        assert self.sm.apply(_stage("t1", 1, ("a",))) \
            == ("prepared", {"a": 10})
        assert self.sm.locks == {"a": "t1"}
        assert self.sm.staged == {"t1": {"a": 7}}
        assert self.sm.apply(("txn_commit", "t1")) == "committed"
        assert self.sm.data == {"a": 7} and self.sm.locks == {}

    def test_key_local_lock_refusal_or_veto_takes_nothing(self):
        self.sm.apply(("put", "a", 10))
        self.sm.apply(("txn_lock", "t0", ("a",)))
        assert self.sm.apply(_stage("t1", 1, ("a",))) == ("conflict", "t0")
        self.sm.apply(("txn_abort", "t0"))
        assert self.sm.apply(_stage("t1", 2, ("a",), Shortfall("a", 50))) \
            == ("vetoed", {"a": 10})
        assert self.sm.locks == {} and self.sm.staged == {}

    @pytest.mark.parametrize("then", [None, "txn_commit", "txn_abort"])
    def test_key_local_lock_copy_answers_the_first_and_takes_nothing(
            self, then):
        # A second copy of one first-round request in the log, applied
        # while the transaction holds its locks, after its commit or
        # after its abort.
        self.sm.apply(("put", "a", 10))
        first = self.sm.apply(_stage("t1", 1, ("a",)))
        if then is not None:
            self.sm.apply((then, "t1"))
        state = (dict(self.sm.data), dict(self.sm.locks),
                 dict(self.sm.staged))
        assert self.sm.apply(_stage("t1", 1, ("a",))) == first \
            == ("prepared", {"a": 10})
        assert (self.sm.data, self.sm.locks, self.sm.staged) == state
        assert self.sm.executed == {("t1", 1): first}


class TestShardedTransactions:
    def test_single_key_roundtrip(self):
        db = ShardedCluster(n_shards=2, seed=1)
        assert db.put("x", 42) == "committed"
        assert db.get("x") == 42

    def test_cross_partition_transfer(self):
        db = ShardedCluster(n_shards=3, seed=2)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 100)
        db.put(b, 10)
        assert db.transfer(a, b, 40) == "committed"
        assert db.get(a) == 60 and db.get(b) == 50
        assert db.total_of([a, b]) == 110

    def test_overdraft_aborts_cleanly(self):
        db = ShardedCluster(n_shards=2, seed=3)
        db.put("poor", 5)
        db.put("rich", 100)
        assert db.transfer("poor", "rich", 50) == "aborted"
        assert db.get("poor") == 5 and db.get("rich") == 100
        # Locks were released: further work proceeds.
        assert db.transfer("rich", "poor", 50) == "committed"

    def test_concurrent_conflicting_transactions_serialize(self):
        db = ShardedCluster(n_shards=3, seed=2)
        a, b, c = _keys_in_distinct_shards(db, 3)
        for key in (a, b, c):
            db.put(key, 100)

        def move(src, dst, amount):
            def update(reads):
                return {src: reads[src] - amount, dst: reads[dst] + amount}
            return db.submit((src, dst), update)

        t1, t2 = move(a, b, 20), move(b, c, 30)
        db.cluster.run_until(lambda: t1.outcome and t2.outcome, until=4000.0)
        assert t1.outcome == "committed" and t2.outcome == "committed"
        # Serializable result: both effects applied exactly once.
        assert db.get(a) == 80 and db.get(b) == 90 and db.get(c) == 130
        assert db.total_of([a, b, c]) == 300

    def test_no_wait_records_conflicts(self):
        db = ShardedCluster(n_shards=1, seed=5)
        db.put("k", 1)
        t1 = db.submit(("k",), lambda r: {"k": r["k"] + 1})
        t2 = db.submit(("k",), lambda r: {"k": r["k"] + 10})
        db.cluster.run_until(lambda: t1.outcome and t2.outcome, until=4000.0)
        assert t1.outcome == "committed" and t2.outcome == "committed"
        assert db.get("k") == 12  # both increments, serialized

    def test_survives_minority_replica_crashes(self):
        db = ShardedCluster(n_shards=2, replicas=3, seed=7)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 50)
        db.put(b, 50)
        plan = FaultPlan(db.cluster).apply(
            [(db.now, "crash", sid + "/follower") for sid in db.shard_groups])
        assert db.transfer(a, b, 25) == "committed"
        assert len(plan.events) == 2  # each group had a follower to crash
        assert db.total_of([a, b]) == 100
        db.settle()
        assert db.check_consistency()

    def test_survives_group_leader_crash(self):
        db = ShardedCluster(n_shards=2, replicas=3, seed=8)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 30)
        db.put(b, 30)
        FaultPlan(db.cluster).apply(
            [(db.now, "crash", db.shard_of(a) + "/leader")])
        assert db.transfer(a, b, 10) == "committed"
        assert db.get(a) == 20 and db.get(b) == 40

    def test_unreachable_participant_aborts_not_hangs(self):
        # A wholly crashed participant group must produce a
        # deterministic timeout-abort, never a hung txn.
        db = ShardedCluster(n_shards=2, replicas=3, seed=11)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 50)
        db.put(b, 50)
        FaultPlan(db.cluster).apply([(db.now, "crash", db.shard_of(b) + "/*")])
        txn = db.submit((a, b), lambda r: {a: r[a] - 5, b: (r[b] or 0) + 5})
        db.cluster.run_until(lambda: txn.outcome is not None, until=2000.0)
        assert txn.outcome == "aborted"
        assert txn.state is TxnState.DONE
        assert db.coordinator.timeout_aborts >= 1
        # Locks on the surviving group were released: it still serves.
        assert db.run_transaction(
            (a,), lambda r: {a: r[a] + 1}).outcome == "committed"

    def test_timeout_abort_is_deterministic(self):
        def doomed_finish_time(seed):
            db = ShardedCluster(n_shards=2, replicas=3, seed=seed)
            a, b = _keys_in_distinct_shards(db, 2)
            db.put(a, 50)
            FaultPlan(db.cluster).apply(
                [(db.now, "crash", db.shard_of(b) + "/*")])
            txn = db.submit((a, b), lambda r: {b: 1})
            db.cluster.run_until(lambda: txn.outcome is not None,
                                 until=2000.0)
            assert txn.outcome == "aborted"
            return txn.finished_at

        assert doomed_finish_time(13) == doomed_finish_time(13)

    def test_prepared_writes_survive_in_group_log(self):
        # The point of 2PC-over-Paxos: each participant's prepare (its
        # vote) and commit (the decision) are *replicated* log entries
        # in its own committed log; nothing else records the decision.
        # (A one-shard write takes the fast path and never prepares,
        # so this needs two shards.)
        # A general update needs every shard's reads first, so it runs
        # the lock round and then the prepare round.
        db = ShardedCluster(n_shards=2, replicas=3, seed=9)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 1)
        txn = db.run_transaction(
            (a, b), lambda r: {a: r[a] - 1, b: (r[b] or 0) + 1})
        assert txn.outcome == "committed"
        db.settle()
        for key, put_ops in ((a, {"txn_exec"}), (b, set())):
            group = db.shard_groups[db.shard_of(key)]
            ops = {value.command[0] if isinstance(value, LogCommand)
                   else value[0]
                   for log in group.committed_logs() for _idx, value in log}
            assert ops == {"txn_lock", "txn_prepare", "txn_commit"} | put_ops

    def test_vetoed_transaction_reports_only_its_final_outcome(self):
        # ``abort_if`` vetoes after the reads; the outcome must not show
        # before the abort round has released the locks.
        db = ShardedCluster(n_shards=2, replicas=3, seed=3)
        a, b = _keys_in_one_shard(db)
        db.put(a, 5)
        txn = db.submit((a, b), lambda r: {a: r[a] - 50, b: 50},
                        abort_if=lambda r: r[a] < 50)
        db.cluster.run_until(lambda: txn.outcome is not None, until=2000.0)
        assert txn.outcome == "aborted"
        assert txn.state is TxnState.DONE
        assert txn.attempts == 1  # a veto is final, not retried
        leader = db.shard_groups[db.shard_of(a)].leader()
        assert leader.state_machine.locks == {}


@pytest.mark.parametrize("seed", range(10))
def test_cross_shard_commit_replies_when_the_last_vote_is_logged(seed):
    """The client hears ``committed`` as the prepare round completes;
    the commit round runs behind the reply, and its locks keep a racing
    reader from seeing the balances from before the commit."""
    db = ShardedCluster(n_shards=2, replicas=3,
                        cluster=Cluster(seed=seed, trace=True))
    a, b = _keys_in_distinct_shards(db, 2)
    for key in (a, b):
        db.put(key, 50)
    txn = db.run_transaction((a, b), _move(a, b, 5))
    assert txn.outcome == "committed"
    prepared = [event.time
                for event in db.cluster.trace.locals("txn_round_done")
                if event.get("req") == txn.txid
                and event.get("kind") == "txn_prepare"]
    assert prepared == [txn.finished_at]
    assert db.now == txn.finished_at
    read = db.run_transaction((a, b), lambda r: {})
    assert read.result == {a: 45, b: 55}
    db.cluster.run_until(lambda: db.coordinator.settled(txn),
                         until=db.now + 2000.0)
    assert db.coordinator.settled(txn)
    for group in db.shard_groups.values():
        for machine in group.machines():
            assert txn.txid not in machine.locks.values()
            assert txn.txid not in machine.staged


@pytest.mark.parametrize("seed", range(10))
def test_key_local_transfer_replies_after_one_round(seed):
    """A transfer's update and overdraft guard are key-local, so each
    participant locks, reads and stages in one ``txn_lock`` entry, its
    vote: the client hears ``committed`` as that round completes, and
    no participant log holds a ``txn_prepare``."""
    db = ShardedCluster(n_shards=2, replicas=3,
                        cluster=Cluster(seed=seed, trace=True))
    a, b = _keys_in_distinct_shards(db, 2)
    for key in (a, b):
        db.put(key, 50)
    txn = db.run_transaction((a, b), transfer_update(a, b, 5),
                             abort_if=Shortfall(a, 5))
    assert txn.outcome == "committed" and txn.result == {a: 50, b: 50}
    trace = db.cluster.trace
    done = [(event.get("kind"), event.time)
            for event in trace.locals("txn_round_done")
            if event.get("req") == txn.txid]
    assert done[-1] == ("txn_lock", txn.finished_at)
    db.cluster.run_until(lambda: db.coordinator.settled(txn),
                         until=db.now + 2000.0)
    assert [event.get("kind") for event in trace.locals("txn_round")
            if event.get("req") == txn.txid] == ["txn_lock", "txn_commit"]
    db.settle()
    for key in (a, b):
        group = db.shard_groups[db.shard_of(key)]
        ops = {value.command[0] if isinstance(value, LogCommand)
               else value[0]
               for log in group.committed_logs() for _idx, value in log}
        assert ops == {"txn_exec", "txn_lock", "txn_commit"}
    _assert_balances(db, {a: 45, b: 55})


def test_key_local_veto_aborts_on_every_participant():
    """The group holding the debited key vetoes in its first-round
    entry, taking nothing; the other group has staged, so the abort
    round runs on both, and the veto is final."""
    db = ShardedCluster(n_shards=2, replicas=3, seed=4)
    a, b = _keys_in_distinct_shards(db, 2)
    for key in (a, b):
        db.put(key, 50)
    assert db.transfer(a, b, 500) == "aborted"
    assert db.coordinator.conflicts_seen == 0
    db.settle()
    _assert_balances(db, {a: 50, b: 50})


def test_an_attempt_on_a_committing_key_waits_for_the_commit_round():
    """A chained client's next transaction on a key whose commit round
    is still open starts when that round closes, instead of conflicting
    with the locks the commit entries are about to release."""
    db = ShardedCluster(n_shards=2, replicas=3, seed=0)
    a, b = _keys_in_distinct_shards(db, 2)
    for key in (a, b):
        db.put(key, 50)
    first = db.run_transaction((a, b), _move(a, b, 5))
    assert not db.coordinator.settled(first)
    after = db.submit((b,), lambda r: {b: r[b] + 1})
    assert after.attempts == 0  # held, no round sent
    db.cluster.run_until(lambda: after.outcome is not None,
                         until=db.now + 2000.0)
    assert db.coordinator.settled(first)
    assert after.outcome == "committed" and after.attempts == 1
    assert db.coordinator.conflicts_seen == 0
    assert after.result == {b: 55}


#: How long a fault holds a participant group down or away: past the
#: stall deadline, so the coordinator's timeout path runs.
HOLD = TxnCoordinator.ROUND_TIMEOUT + 10.0


class TestDecidedRoundsNeverAbort:
    """Once the outcome is commit, the coordinator waits out a silent
    participant instead of reporting an abort it can no longer make
    true; an abort it does make retries until every group has it."""

    def _pair(self, db):
        # k000000 routes to s1 at seed 0; its partner is s0's first key.
        b = db.key(0)
        a = next(db.key(i) for i in range(1, db.key_space)
                 if db.shard_of(db.key(i)) != db.shard_of(b))
        assert (db.shard_of(a), db.shard_of(b)) == ("s0", "s1")
        for key in (a, b):
            db.put(key, 50)
        return a, b

    def test_commit_round_outlasts_a_participant_restart(self):
        db = ShardedCluster(n_shards=2, replicas=3, seed=0)
        a, b = self._pair(db)
        _when_round_starts(db, "txn_commit",
                           lambda: _down_and_back(db, "s1", "crash"))
        txn = db.submit((a, b), _move(a, b, 5))
        db.cluster.run_until(lambda: db.coordinator.settled(txn),
                             until=db.now + 2000.0)
        assert txn.outcome == "committed"
        assert db.coordinator.timeout_aborts == 0
        db.settle()
        _assert_balances(db, {a: 45, b: 55})

    def test_apply_round_outlasts_a_partitioned_coordinator(self):
        db = ShardedCluster(n_shards=2, replicas=3, seed=0)
        a, b = _keys_in_one_shard(db)
        for key in (a, b):
            db.put(key, 50)
        others = [node.name for node in db.cluster.nodes
                  if node is not db.coordinator]
        partitions = db.cluster.network.partitions

        txn = db.submit((a, b), _move(a, b, 5))

        cut = []

        def cut_off_coordinator(txid, *_command):
            if txid == txn.txid and not partitions.active:
                cut.append(db.now)
                partitions.split([db.coordinator.name], others)
                db.cluster.sim.schedule(HOLD, partitions.heal)

        # Cut the coordinator off as the exec entry commits, so the
        # group applies the writes but its reply is lost.
        for machine in db.shard_groups[db.shard_of(a)].machines():
            machine._op_txn_exec = _then(machine._op_txn_exec,
                                         cut_off_coordinator)
        db.cluster.run_until(lambda: txn.outcome is not None,
                             until=db.now + 2000.0)
        assert cut, "the exec entry never applied"
        assert txn.outcome == "committed"
        assert db.coordinator.timeout_aborts == 0
        db.settle()
        _assert_balances(db, {a: 45, b: 55})

    def test_timeout_abort_reaches_a_group_that_restarts(self):
        db = ShardedCluster(n_shards=2, replicas=3, seed=0)
        a, b = self._pair(db)
        _when_round_starts(db, "txn_prepare",
                           lambda: _down_and_back(db, "s1", "crash"))
        txn = db.submit((a, b), _move(a, b, 5))
        db.cluster.run_until(lambda: txn.outcome is not None,
                             until=db.now + 2000.0)
        assert txn.outcome == "aborted"
        assert db.coordinator.timeout_aborts == 1
        db.settle(HOLD)
        _assert_balances(db, {a: 50, b: 50})
        # The key the restarted group locked for tx0 is free again.
        after = db.run_transaction((b,), lambda r: {b: r[b] + 1})
        assert after.outcome == "committed" and after.attempts == 1


#: Round kinds a transfer of each shape passes through; a "veto" is a
#: cross-shard transfer its overdraft guard refuses.  "cross" and
#: "veto" run general updates (lock, then prepare); the "local" shapes
#: run a key-local transfer and guard (lock, read and stage in one).
SWEEP_ROUNDS = {
    "single": ("txn_exec",),
    "cross": ("txn_lock", "txn_prepare", "txn_commit"),
    "veto": ("txn_lock", "txn_abort"),
    "local-cross": ("txn_lock", "txn_commit"),
    "local-veto": ("txn_lock", "txn_abort"),
}


@pytest.mark.parametrize("seed", range(10))
def test_atomicity_under_participant_faults(seed):
    """At the start of every round kind, take one participant group
    down (crash, then restart) or away (partition, then heal) for
    longer than the stall deadline.  After settling, the balance total
    is conserved, no replica holds staged writes or locks, and the
    transaction reports ``committed`` exactly when its writes show."""
    for shape, kinds in SWEEP_ROUNDS.items():
        for kind in kinds:
            for fault in ("crash", "partition"):
                _check_faulted_transfer(seed, shape, kind, fault)


def _check_faulted_transfer(seed, shape, kind, fault):
    db = ShardedCluster(n_shards=2, replicas=3, seed=seed)
    if shape == "single":
        a, b = _keys_in_one_shard(db)
    else:
        a, b = _keys_in_distinct_shards(db, 2)
    for key in (a, b):
        db.put(key, 50)
    victim = db.shard_of((a, b)[seed % 2])
    fired = _when_round_starts(
        db, kind, lambda: _down_and_back(db, victim, fault))
    amount = 500 if shape.endswith("veto") else 5
    if shape.startswith("local"):
        txn = db.submit((a, b), transfer_update(a, b, amount),
                        abort_if=Shortfall(a, amount))
    else:
        txn = db.submit((a, b), _move(a, b, amount),
                        abort_if=lambda r: r[a] < amount)
    db.cluster.run_until(lambda: db.coordinator.settled(txn),
                         until=db.now + 2000.0)
    case = (seed, shape, kind, fault, txn.outcome)
    assert fired, case
    db.settle(HOLD)
    balances = _replica_balances(db, (a, b))
    assert sum(balances.values()) == 100, case
    committed = balances == {a: 50 - amount, b: 50 + amount}
    assert committed or balances == {a: 50, b: 50}, case
    assert (txn.outcome == "committed") == committed, case
    for group in db.shard_groups.values():
        for machine in group.machines():
            assert not machine.locks and not machine.staged, case
    assert db.check_consistency(), case


def _bump(reads):
    return {key: (value or 0) + 1 for key, value in reads.items()}


def _exec(txid, attempt, keys, update):
    return ("txn_exec", txid, attempt, keys, Program(update, None))


def _stage(txid, attempt, keys, abort_if=None):
    """A key-local first-round command moving 3 from ``a`` to ``b``."""
    return ("txn_lock", txid, keys, attempt,
            Program(transfer_update("a", "b", 3), abort_if))


def _move(src, dst, amount):
    return lambda r: {src: r[src] - amount, dst: r[dst] + amount}


def _then(operation, after):
    """``operation`` wrapped to call ``after`` with the same arguments
    once it has run."""
    def wrapped(*args):
        result = operation(*args)
        after(*args)
        return result
    return wrapped


def _when_round_starts(db, kind, action):
    """Run ``action()`` once, as the coordinator starts its first
    ``kind`` round and before that round's requests leave.  Returns a
    list that holds the start time once it has fired."""
    coord = db.coordinator
    start_round = coord._start_round
    fired = []

    def hooked(txn, round_kind, commands, vetoed=False):
        if round_kind == kind:
            del coord._start_round
            fired.append(db.now)
            action()
        return start_round(txn, round_kind, commands, vetoed=vetoed)

    coord._start_round = hooked
    return fired


def _down_and_back(db, sid, fault):
    """Crash every replica of ``sid`` or partition the group away from
    the rest of the fleet, and undo it :data:`HOLD` later.  Not a fault
    row: a row at ``now`` would fire after the round's requests left."""
    group = db.shard_groups[sid]
    sim = db.cluster.sim
    if fault == "crash":
        for replica in group.replicas:
            replica.crash()
        sim.schedule(HOLD, lambda: [replica.restart()
                                    for replica in group.replicas])
        return
    members = set(group.members)
    partitions = db.cluster.network.partitions
    partitions.split(members, [node.name for node in db.cluster.nodes
                               if node.name not in members])
    sim.schedule(HOLD, partitions.heal)


def _replica_balances(db, keys):
    """Each key's value, read off every replica of its group, which
    must all agree."""
    balances = {}
    for key in keys:
        values = {machine.data.get(key)
                  for machine in db.shard_groups[db.shard_of(key)].machines()}
        assert len(values) == 1, (key, values)
        balances[key] = values.pop()
    return balances


def _assert_balances(db, expected):
    assert _replica_balances(db, expected) == expected
    for group in db.shard_groups.values():
        for machine in group.machines():
            assert not machine.locks and not machine.staged


class _Group:
    members = ("g/r0", "g/r1", "g/r2")

    @staticmethod
    def request(command, request_id):
        return ClientRequest(command, request_id)


class _Requester(GroupRequester):
    def __init__(self, sim, network, name):
        super().__init__(sim, network, name, {"g": _Group})
        self.results = []

    def on_result(self, tag, gid, command, result):
        self.results.append((tag, result))


def test_a_reply_names_its_sender_the_leader(cluster):
    """A slow leader answers after a retry has moved the hint on: the
    next request goes to the member that replied."""
    cluster.add_nodes(Node, _Group.members)
    requester = cluster.add_node(_Requester, "coord")
    requester._request("t1", "g", "op", "tag")
    assert requester.leader_hint["g"] == "g/r0"
    requester._retry("t1")
    assert requester.leader_hint["g"] == "g/r1"
    requester.deliver(ClientReply("t1", "done"), "g/r2")
    assert requester.results == [("tag", "done")]
    assert requester.leader_hint["g"] == "g/r2"


def _keys_in_distinct_shards(db, count):
    seen = {}
    for i in range(200):
        key = "acct%d" % i
        seen.setdefault(db.shard_of(key), key)
        if len(seen) >= count:
            break
    return [seen[sid] for sid in sorted(seen)]


def _keys_in_one_shard(db):
    first = "acct0"
    for i in range(1, 200):
        key = "acct%d" % i
        if db.shard_of(key) == db.shard_of(first):
            return first, key
    raise AssertionError("no two keys share a shard")
