"""Tests for distributed transactions: 2PL + 2PC over consensus groups,
driven through the sharded store."""

from repro.core import Node
from repro.dtxn import TxnState
from repro.dtxn.coordinator import GroupRequester
from repro.protocols.multipaxos import ClientReply, ClientRequest, LogCommand
from repro.shard import ShardedCluster, ShardKVStateMachine


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
        for sid in db.shard_groups:
            assert db.crash_follower(sid) is not None
        assert db.transfer(a, b, 25) == "committed"
        assert db.total_of([a, b]) == 100
        db.settle()
        assert db.check_consistency()

    def test_survives_group_leader_crash(self):
        db = ShardedCluster(n_shards=2, replicas=3, seed=8)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 30)
        db.put(b, 30)
        db.crash_leader(db.shard_of(a))
        assert db.transfer(a, b, 10) == "committed"
        assert db.get(a) == 20 and db.get(b) == 40

    def test_unreachable_participant_aborts_not_hangs(self):
        # A wholly crashed participant group must produce a
        # deterministic timeout-abort, never a hung txn.
        db = ShardedCluster(n_shards=2, replicas=3, seed=11)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 50)
        db.put(b, 50)
        db.crash_shard(db.shard_of(b))
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
            db.crash_shard(db.shard_of(b))
            txn = db.submit((a, b), lambda r: {b: 1})
            db.cluster.run_until(lambda: txn.outcome is not None,
                                 until=2000.0)
            assert txn.outcome == "aborted"
            return txn.finished_at

        assert doomed_finish_time(13) == doomed_finish_time(13)

    def test_prepared_writes_survive_in_group_log(self):
        # The point of 2PC-over-Paxos: a prepare — and the commit
        # decision — are *replicated* log entries, visible in the
        # deciding shard's committed log.  (A one-shard write takes the
        # fast path and never prepares, so this needs two shards.)
        db = ShardedCluster(n_shards=2, replicas=3, seed=9)
        a, b = _keys_in_distinct_shards(db, 2)
        db.put(a, 1)
        assert db.transfer(a, b, 1) == "committed"
        db.settle()
        decider = db.shard_groups[min(db.shard_of(a), db.shard_of(b))]
        ops = {value.command[0] if isinstance(value, LogCommand)
               else value[0]
               for log in decider.committed_logs() for _idx, value in log}
        assert {"txn_lock", "txn_prepare", "txn_decide", "txn_commit"} <= ops

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
