"""E25 (extension) — sharded fleet scaling: shards x replicas.

The paper's modern deployments are fleets of consensus groups, not one
group.  This experiment scales a :class:`~repro.shard.ShardedCluster`
from a toy pair of shards toward hundreds of simulated nodes and
records what the architecture buys and costs:

* commit density (committed transactions per unit of *simulated* time,
  ``committed_per_vtime`` — dimensionless, tied to this delay model,
  not a wall-clock TPS) as shards multiply — the fleet parallelises
  across groups, so density should not *degrade* as the node count
  explodes;
* the single-shard fast path's share of commits (one consensus round)
  versus 2PC-over-consensus (a transfer is key-local: lock-and-stage,
  then commit);
* the wall-clock events/sec the simulator sustains hosting the fleet —
  the harness-health number for this subsystem.

Wall-clock rates are machine-dependent: they are shown in
``benchmarks/results/``, never asserted, and kept out of
``BENCH_consensus.json``, which holds the deterministic columns only.
The structural assertions are that every workload transaction completes
(no hangs) and per-shard replicas stay consistent.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (three small
configurations, one timing round).
"""

import os
import time

from repro.analysis import render_table
from repro.shard import ShardedCluster

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SEED = 7

#: (shards, replicas, txns) — quick stops at 8x3 (the ISSUE floor),
#: full climbs to 48x5 = 240 replicated nodes.
CONFIGS = (
    [(2, 3, 24), (4, 3, 32), (8, 3, 48)] if QUICK else
    [(2, 3, 48), (4, 3, 64), (8, 3, 96), (16, 3, 96), (16, 5, 96),
     (32, 5, 128), (48, 5, 128)]
)

CROSS_RATIO = 0.3


def measure(shards, replicas, txns):
    sharded = ShardedCluster(n_shards=shards, replicas=replicas,
                             seed=SEED, key_space=1024)
    metrics = sharded.cluster.metrics
    messages, heartbeats = metrics.messages_total, metrics.by_type["heartbeat"]
    start = time.perf_counter()
    workload = sharded.run_workload(txns=txns, cross_ratio=CROSS_RATIO,
                                    batch=16)
    wall = time.perf_counter() - start
    heartbeats = metrics.by_type["heartbeat"] - heartbeats
    protocol = metrics.messages_total - messages - heartbeats
    assert workload["committed"] + workload["aborted"] == txns
    assert workload["committed"] > 0
    sharded.settle()
    assert sharded.check_consistency()
    events = sharded.cluster.sim.events_processed
    return {
        "fleet": "%dx%d" % (shards, replicas),
        "nodes": shards * replicas,
        "txns": txns,
        "committed": workload["committed"],
        "cross-shard": workload["cross_shard"],
        "fast-path": workload["fast_commits"],
        "commits/vtime": round(workload["committed_per_vtime"], 2),
        "protocol/commit": round(protocol / workload["committed"], 1),
        "heartbeat/commit": round(heartbeats / workload["committed"], 1),
        "wall ms": round(wall * 1e3, 1),
        "events/s": int(events / wall) if wall > 0 else 0,
    }


def test_shard_scaling(benchmark, report, bench_snapshot):
    def run_all():
        return [measure(*config) for config in CONFIGS]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The fleet must not collapse as it grows: commit density at the
    # largest configuration stays within 4x of the smallest (it is
    # workload-bound, not node-count-bound).
    assert rows[-1]["commits/vtime"] > rows[0]["commits/vtime"] / 4

    text = render_table(
        rows, title="E25 — sharded fleet scaling (shards x replicas)")
    text += ("\nseed %d, cross-shard ratio %.1f; fast-path = single-shard "
             "commits (1 consensus round),\nothers pay "
             "2PC-over-consensus (a transfer's lock entries stage its "
             "writes, then commit:\n2 rounds, 1 before the reply). "
             "commits/vtime is\ncommitted transactions per unit of "
             "simulated time (in-shard hops are 0.5-1.5\nunits) — a "
             "dimensionless density for comparing configurations, not a "
             "wall-clock\nTPS.  Wall rates are machine-dependent and "
             "recorded, not asserted.\nprotocol/commit and "
             "heartbeat/commit split the messages the workload sent per "
             "commit\ninto replication and 2PC traffic, and the leaders' "
             "idle-liveness Heartbeats." % (SEED, CROSS_RATIO))
    report("E25_sharding", text)

    snapshot = {}
    for row in rows:
        key = "fleet_%s" % row["fleet"].replace("x", "_")
        snapshot["%s_committed_per_vtime" % key] = row["commits/vtime"]
        snapshot["%s_fast_path" % key] = row["fast-path"]
    bench_snapshot("E25_sharding", **snapshot)
