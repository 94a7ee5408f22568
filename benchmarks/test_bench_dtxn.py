"""E18 (extension) — the Google Spanner figure: transactions (2PL+2PC)
over Paxos-replicated partitions.

Measured: per-transaction message cost as the number of partitions a
transaction touches grows (2PC's fan-out times each group's replication
cost), abort/retry behaviour under contention, and that minority
replica failures inside groups are invisible to the transaction layer.
"""

from repro.analysis import render_table
from repro.core.cluster import Cluster
from repro.faults import FaultPlan
from repro.shard import ShardedCluster
from repro.shard.layout import Deltas


def _keys_per_shard(db, count):
    seen = {}
    index = 0
    while len(seen) < count:
        key = "k%d" % index
        seen.setdefault(db.shard_of(key), key)
        index += 1
    return [seen[sid] for sid in sorted(seen)][:count]


def fanout_row(partitions_touched, key_local=False):
    """Increment one key on each of ``partitions_touched`` shards, with
    a general program (the lock round gathers every read first) or the
    same increments as a key-local one (each shard stages its own)."""
    db = ShardedCluster(n_shards=3, replicas=3,
                        cluster=Cluster(seed=4, trace=True))
    keys = _keys_per_shard(db, partitions_touched)
    for key in keys:
        db.put(key, 100)
    metrics = db.cluster.metrics
    before, heartbeats = metrics.messages_total, metrics.by_type["heartbeat"]
    if key_local:
        update = Deltas(tuple((key, 1) for key in keys))
    else:
        def update(reads):
            return {key: reads[key] + 1 for key in keys}
    txn = db.run_transaction(tuple(keys), update)
    # The reply comes before the commit round completes: count the
    # transaction's messages until its last round has closed.
    settled = db.coordinator.settled
    db.cluster.run_until(lambda: settled(txn), until=db.now + db.op_timeout)
    assert settled(txn)
    cost = metrics.messages_total - before
    heartbeats = metrics.by_type["heartbeat"] - heartbeats
    trace = db.cluster.trace
    rounds = [event for event in trace.locals("txn_round")
              if event.get("req") == txn.txid]
    before_reply = [event for event in trace.locals("txn_round_done")
                    if event.get("req") == txn.txid
                    and event.time <= txn.finished_at]
    return {
        "partitions touched": partitions_touched,
        "update": "key-local" if key_local else "general",
        "outcome": txn.outcome,
        "messages / txn": cost,
        "heartbeat": heartbeats,
        "protocol": cost - heartbeats,
        "Gray-Lamport 3N-1": (3 * partitions_touched - 1
                              if partitions_touched > 1 else "-"),
        "consensus rounds": len(rounds),
        "rounds before reply": len(before_reply),
    }


def contention_row():
    # Each increment also touches a key on the other shard: a one-shard
    # transaction is one log entry and never holds a lock to contend
    # for, so contention is 2PC's.
    db = ShardedCluster(n_shards=2, replicas=3, seed=5)
    db.put("hot", 0)
    others = [key for key in ("k%d" % i for i in range(100))
              if db.shard_of(key) != db.shard_of("hot")][:5]
    txns = [db.submit(("hot", other),
                      lambda reads: {"hot": reads["hot"] + 1})
            for other in others]
    db.cluster.run_until(lambda: all(t.outcome for t in txns), until=6000.0)
    return {
        "concurrent txns on one key": len(txns),
        "committed": sum(t.outcome == "committed" for t in txns),
        "lock conflicts": db.coordinator.conflicts_seen,
        "final value": db.get("hot"),
    }


def fault_row():
    db = ShardedCluster(n_shards=2, replicas=3, seed=6)
    a, b = _keys_per_shard(db, 2)
    db.put(a, 100)
    db.put(b, 100)
    FaultPlan(db.cluster).apply(
        [(db.now, "crash", sid + "/follower") for sid in db.shard_groups])
    outcome = db.transfer(a, b, 50)
    db.settle()
    return {
        "scenario": "1 replica crashed per group",
        "transfer": outcome,
        "total conserved": db.total_of([a, b]) == 200,
        "groups consistent": db.check_consistency(),
    }


def test_distributed_transactions(benchmark, report, bench_snapshot):
    def run_all():
        return ([fanout_row(k) for k in (1, 2, 3)]
                + [fanout_row(k, key_local=True) for k in (2, 3)],
                contention_row(), fault_row())

    fanout, contention, fault = benchmark.pedantic(run_all, rounds=1,
                                                   iterations=1)
    text = render_table(fanout, title="E18 — 2PC fan-out over Paxos groups")
    text += ("\nprotocol = messages / txn minus the leaders' Heartbeats: 6 per "
             "group consensus round\n(request, 2 accepts, 2 acks, reply), "
             "over 1 round for one shard (one txn_exec\nentry), 3N for "
             "N shards with a general update (N lock, N prepare, N commit;\n"
             "the commit entries are the replicated decision) and 2N with "
             "a key-local one (each\nlock entry also stages its shard's "
             "writes: it is the vote).  Counted until the last\nround "
             "closes; a cross-shard client hears the outcome when the last "
             "vote is logged:\nafter 2 rounds, or 1 when key-local.  "
             "Gray & Lamport's 3N-1 counts one message per\n2PC hop between "
             "unreplicated processes; one shard runs no commit protocol.")
    text += "\n\n" + render_table([contention], title="contention (no-wait + retry)")
    text += "\n\n" + render_table([fault], title="replica failure inside groups")
    report("E18_dtxn", text)
    bench_snapshot("E18_dtxn", protocol="dtxn",
                   messages_1_partition=fanout[0]["messages / txn"],
                   messages_2_partitions=fanout[1]["messages / txn"],
                   messages_3_partitions=fanout[2]["messages / txn"],
                   messages_2_partitions_key_local=fanout[3]["messages / txn"],
                   messages_3_partitions_key_local=fanout[4]["messages / txn"],
                   contention_committed=contention["committed"],
                   fault_transfer=fault["transfer"])

    # Cost grows with the number of groups in the transaction.
    assert fanout[0]["messages / txn"] < fanout[1]["messages / txn"] \
        < fanout[2]["messages / txn"]
    assert all(row["outcome"] == "committed" for row in fanout)
    # Every protocol message is a consensus round's: 6 per round.
    assert [row["protocol"] for row in fanout] \
        == [6 * 1, 6 * 6, 6 * 9, 6 * 4, 6 * 6]
    # One shard: one exec entry.  More: lock, prepare, commit, or lock
    # (staging) and commit when key-local.
    assert [row["consensus rounds"] for row in fanout] == [1, 3, 3, 2, 2]
    # One shard replies with its entry; 2PC when the last vote is logged.
    assert [row["rounds before reply"] for row in fanout] \
        == [1, 2, 2, 1, 1]
    # Contention serializes: every increment lands exactly once.
    assert contention["committed"] == 5
    assert contention["final value"] == 5
    assert contention["lock conflicts"] >= 1
    # Replication hides minority crashes from the transaction layer.
    assert fault["transfer"] == "committed"
    assert fault["total conserved"] and fault["groups consistent"]
