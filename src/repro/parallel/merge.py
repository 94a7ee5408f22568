"""Deterministic merge of per-worker outputs into single-run artifacts.

A parallel run must be *indistinguishable on disk* from the one-worker
run: ``repro trace/stats/check`` read the merged artifacts with the
same schemas, and the golden suite byte-compares them across worker
counts.  Three merges make that true:

* **trace** — per-worker rows are sorted into one global order
  ``(time, node, per-node recording order)`` (node-less phase rows
  order by their own content), message ids are renumbered in merged
  send order, cross-worker send/deliver pairs are re-united through
  their link identity, and Lamport clocks are recomputed with the
  tracer's exact rules.  Every input to this is placement-independent,
  so the merged trace is too.
* **telemetry** — fleet runs record only counters (the one
  interleaving-dependent histogram lane is suppressed by
  ``ParallelCollector``), and counter sums are order-free.  A fresh
  registry is rebuilt from every worker's series; the CLI renders it
  through the stock ``run_report``.
* **conformance** — monitor batteries are group-scoped, so each
  verdict is computed entirely on the worker hosting its group; the
  merge just reassembles the report through the stock builder with the
  fleet-wide headline numbers.
"""

from collections import Counter

from ..monitor.conformance import _build_report
from ..scenarios import fleet_summary
from ..telemetry.registry import MetricsRegistry
from ..trace.events import (DELIVER, DROP, PHASE, REQUEST, SEND,
                            TraceEvent)
from ..trace.trace import Trace

__all__ = [
    "merge_trace", "merge_registry", "merged_summary", "merged_stats",
    "build_check_report", "merged_workload",
    "merged_consistency",
]


# -- trace -------------------------------------------------------------------

def _row_key(row):
    # row = (kind, time, node, peer, mtype, detail, ref, local_idx)
    node = row[2]
    if node:
        # One node records on exactly one worker, so within (time, node)
        # the worker-local recording index is a total causal order.
        return (row[1], node, row[7])
    # Node-less rows (phase marks) order by content; identical rows tie
    # arbitrarily — they are interchangeable.
    return (row[1], node, (row[4], row[5]))


def merge_trace(run):
    """One :class:`Trace` from every worker's rows, byte-stable across
    worker counts."""
    rows = []
    for res in run.results:
        rows.extend(res.get("trace", ()))
    rows.sort(key=_row_key)
    clocks = {}
    send_clock = {}
    ref_ids = {}
    next_id = 0
    events = []
    append = events.append
    for seq, row in enumerate(rows):
        kind, time, node, peer, mtype, detail, ref, _idx = row
        if ref is None:
            msg_id = -1
        elif kind == SEND:
            msg_id = ref_ids[ref] = next_id
            next_id += 1
        else:
            msg_id = ref_ids[ref]
        if kind == SEND:
            lamport = clocks.get(node, 0) + 1
            clocks[node] = lamport
            send_clock[msg_id] = lamport
        elif kind == DELIVER:
            lamport = max(clocks.get(node, 0),
                          send_clock.pop(msg_id, 0)) + 1
            clocks[node] = lamport
        elif kind == PHASE or kind == REQUEST:
            lamport = 0
        else:  # TIMER, LOCAL, DROP
            lamport = clocks.get(node, 0) + 1
            clocks[node] = lamport
        append(TraceEvent(seq, time, kind, node, lamport, peer, mtype,
                          msg_id, detail))
    return Trace(events)


# -- telemetry ---------------------------------------------------------------

def merge_registry(run):
    """A fresh registry holding every worker's counters, summed.

    Fleet runs emit only counters (see :class:`ParallelCollector`), and
    counter addition commutes — so the merged registry is independent
    of worker count and iteration order (``series()`` sorts on read).
    """
    registry = MetricsRegistry()
    for res in run.results:
        for name, labels, value in res.get("series", ()):
            registry.counter(name, **dict(labels)).value += value
    return registry


def merged_summary(run):
    """The fleet-wide collector snapshot (same shape as
    ``MetricsCollector.snapshot``)."""
    by_type = Counter()
    bytes_total = 0
    messages_total = 0
    requests = 0
    unmatched = 0
    for res in run.results:
        summary = res["summary"]
        by_type.update(summary["by_type"])
        bytes_total += summary["bytes_total"]
        messages_total += summary["messages_total"]
        requests += summary["requests"]
        unmatched += summary["unmatched_requests"]
    return {
        "by_type": {mtype: by_type[mtype] for mtype in sorted(by_type)},
        "bytes_total": bytes_total,
        "mean_latency": None,
        "messages_total": messages_total,
        "requests": requests,
        "unmatched_requests": unmatched,
    }


# -- workload / stats --------------------------------------------------------

def merged_workload(run):
    """The driver's per-segment summaries (recorded on worker 0)."""
    for res in run.results:
        if "workload" in res:
            return res["workload"]
    return []


def merged_consistency(run):
    """``{gid: replicas-agree}`` across the whole fleet."""
    consistency = {}
    for res in run.results:
        consistency.update(res["consistency"])
    return {gid: consistency[gid] for gid in sorted(consistency)}


def merged_stats(run):
    """Fleet summary in the ``ShardedCluster.stats()`` shape."""
    spec = run.spec
    per_shard = {}
    coordinator = None
    for res in run.results:
        per_shard.update(res["per_shard"])
        if "coordinator" in res:
            coordinator = res["coordinator"]
    stats = {
        "shards": spec.n_shards,
        "replicas": spec.replicas,
        "partitioning": spec.partitioning,
        "epoch": 0,
        **coordinator,
        "splits_done": 0,
        "per_shard": {gid: per_shard[gid] for gid in sorted(per_shard)},
    }
    return stats


# -- conformance -------------------------------------------------------------

def build_check_report(run):
    """The standard conformance report for a parallel run.

    Monitor verdicts were computed per group on the hosting workers
    (batteries are group-scoped, so no monitor ever needed another
    worker's events); this reassembles them through the stock report
    builder with fleet-wide headline numbers.
    """
    spec = run.spec
    measured = {
        "nodes": spec.n_shards * spec.replicas,
        "f": (spec.replicas - 1) // 2,
        "messages_total": merged_summary(run)["messages_total"],
        "events": sum(len(res.get("trace", ())) for res in run.results),
        "virtual_time": run.virtual_time,
    }
    summary = fleet_summary(merged_workload(run),
                            all(merged_consistency(run).values()))
    return _build_report(
        "shards", spec.seed, None, summary, measured,
        [data for res in run.results for data in res.get("monitors", ())])
