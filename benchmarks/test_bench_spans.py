"""E27 — span-derivation overhead: what ``repro spans`` waits for.

The span layer (``src/repro/obs/``) is pure post-processing: nothing
runs on the hot path, so a traced run that never asks for spans pays
exactly the tracer's ring-buffer appends and nothing more.  This
experiment prices the other half — everything between the end of the
run and the span report, from a *cold* trace (nothing inflated, no
clock column yet), relative to the traced run itself:

* **run ms** — wall-clock of the traced workload alone;
* **derive ms** — wall-clock of ``SpanBuilder(trace).build()`` plus
  ``spans_report``, reading the tracer's ring in place: one scan of the
  raw rows, a TraceEvent built only for the request-carrying anchors;
* **overhead x** — ``(run + derive) / run``; the asserted headline,
  with nothing left outside the ratio.  It must stay under 2.5x, so a
  derivation pass that goes back to inflating every row fails;
* **export ms** — wall-clock of inflating *every* row and serialising
  it (``to_jsonl``), from an equally cold trace of a second same-seed
  run: what ``repro trace --jsonl``, the one reader that does need all
  the objects, pays instead.

Wall-clock times are machine-dependent and shown in
``benchmarks/results/`` only; the assertion is on the *ratio*, which
largely cancels machine speed.  ``BENCH_consensus.json`` gets the
deterministic trace sizes, nothing timed.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode.
"""

import os
import time

from repro.analysis import render_table
from repro.core import Cluster
from repro.obs import SpanBuilder, spans_report
from repro.shard import ShardedCluster
from repro.trace import to_jsonl

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Timing repetitions per configuration; best round wins.
ROUNDS = 1 if QUICK else 3

SEED = 7


def _drive_multipaxos(cluster):
    from repro.protocols.multipaxos import run_multipaxos
    return run_multipaxos(cluster, n_replicas=3, n_clients=2,
                          commands_per_client=10 if QUICK else 50)


def _drive_shards(cluster):
    sharded = ShardedCluster(n_shards=2, replicas=3, cluster=cluster)
    keys = [sharded.key(i) for i in range(8 if QUICK else 24)]
    for key in keys:
        sharded.put(key, 1)
    for a, b in zip(keys, keys[1:]):
        sharded.transfer(a, b, 1)
    sharded.settle()


CONFIGS = [
    ("multi-paxos", _drive_multipaxos),
    ("shards", _drive_shards),
]


def measure(driver):
    """Best-of-ROUNDS traced run + cold span derivation; the export of a
    second, equally cold same-seed trace is timed beside it."""
    best = None
    for _ in range(ROUNDS):
        cluster = Cluster(seed=SEED, trace=True)
        start = time.perf_counter()
        driver(cluster)
        run_wall = time.perf_counter() - start
        start = time.perf_counter()
        spans = SpanBuilder(cluster.trace).build()
        report_doc = spans_report(spans, protocol="bench", seed=SEED)
        derive_wall = time.perf_counter() - start
        assert report_doc["summary"]["completed"] > 0
        twin = Cluster(seed=SEED, trace=True)
        driver(twin)
        start = time.perf_counter()
        exported = to_jsonl(twin.trace)
        export_wall = time.perf_counter() - start
        assert exported.count("\n") == len(cluster.trace)
        sample = {
            "events": len(cluster.trace),
            "spans": len(spans),
            "run": run_wall,
            "derive": derive_wall,
            "export": export_wall,
        }
        if best is None or sample["run"] + sample["derive"] \
                < best["run"] + best["derive"]:
            best = sample
    return best


def test_span_derivation_overhead(benchmark, report, bench_snapshot):
    def run_all():
        rows = []
        for protocol, driver in CONFIGS:
            sample = measure(driver)
            overhead = (sample["run"] + sample["derive"]) / sample["run"]
            rows.append({
                "protocol": protocol,
                "events": sample["events"],
                "spans": sample["spans"],
                "run ms": round(sample["run"] * 1e3, 1),
                "derive ms": round(sample["derive"] * 1e3, 1),
                "overhead x": round(overhead, 2),
                "export ms": round(sample["export"] * 1e3, 1),
            })
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    text = render_table(
        rows, title="E27 — span-derivation overhead (cold trace, post-run)")
    text += ("\nbest-of-%d wall-clock per configuration, seed %d.  "
             "derive = SpanBuilder.build() +\nspans_report from a cold "
             "trace, reading the tracer's ring in place; overhead x =\n"
             "(run + derive) / run is everything a reader of ``repro "
             "spans`` (or ``check``)\nwaits for beyond the run.  export "
             "= inflating every row + to_jsonl: only\n``repro trace "
             "--jsonl`` and the flow renderer pay it.  A run that asks "
             "for\nneither pays the tracer's ring-buffer appends and "
             "nothing else."
             % (ROUNDS, SEED))
    report("E27_span_overhead", text)

    bench_snapshot("E27_span_overhead", **{
        "%s_trace_events" % row["protocol"].replace("-", ""): row["events"]
        for row in rows})

    for row in rows:
        assert row["events"] > 0 and row["spans"] > 0
        # Derivation is one sweep over the trace plus per-span chains —
        # it must stay cheaper than the simulation that produced it.
        assert row["overhead x"] < 2.5, row
