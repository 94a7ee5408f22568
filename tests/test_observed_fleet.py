"""Observing a sharded fleet changes nothing it does and pins nothing
per row.

A 2x3 :class:`~repro.shard.ShardedCluster` (2PC over per-shard
Multi-Paxos, the fleet monitor batteries scoped per group) runs the
same seeded workload unobserved, traced and monitored on an unbounded
ring, and monitored on the load engine's bounded ring: the run, its
anomalies and its trace must not depend on who watches.  The footprint
test counts what the tracer's recording keeps alive for the garbage
collector — a count, not a timing.
"""

import gc

from repro.core import Cluster
from repro.load.engine import _TRACE_CAPACITY
from repro.monitor import LivenessWatchdog
from repro.shard import ShardedCluster
from repro.trace import SEND, to_jsonl

TXNS = 120


def fleet_run(**observers):
    """Drive the seed-0 2x3 fleet; ``observers`` are ``Cluster``
    options (none: the unobserved run)."""
    cluster = Cluster(0, **observers) if observers else None
    fleet = ShardedCluster(2, 3, seed=0, cluster=cluster)
    summary = fleet.run_workload(txns=TXNS, cross_ratio=0.3, batch=8)
    fleet.settle()
    return fleet, summary


def outcome(fleet, summary):
    return summary, fleet.stats(), fleet.cluster.metrics.messages_total


def decisions(fleet):
    """Decisions each group's liveness watchdog counted, by group."""
    return sorted((monitor.group, monitor.decisions)
                  for monitor in fleet.monitors.monitors
                  if isinstance(monitor, LivenessWatchdog))


def test_observers_do_not_perturb_the_fleet():
    bare = fleet_run()
    unbounded = fleet_run(trace=True, monitors=True)
    bounded = fleet_run(monitors=True, trace_capacity=_TRACE_CAPACITY)
    traced = fleet_run(trace=True)
    assert bare[1]["committed"] > 0 and bare[1]["cross_shard"] > 0
    assert outcome(*bare) == outcome(*unbounded) == outcome(*bounded)

    # The bounded ring evicted most of the run, yet its monitors saw
    # every row the unbounded ring's did and found the same anomalies.
    assert len(bounded[0].cluster.trace) == _TRACE_CAPACITY \
        < len(unbounded[0].cluster.trace)
    found = unbounded[0].monitors.finish()
    assert found == bounded[0].monitors.finish()
    counted = decisions(unbounded[0])
    assert len(counted) == 2 and all(count > 0 for _group, count in counted)
    assert counted == decisions(bounded[0])

    assert to_jsonl(unbounded[0].cluster.trace) \
        == to_jsonl(traced[0].cluster.trace)


def _tracked_reachable(roots):
    """GC-tracked objects reachable from ``roots`` through builtin
    containers only: every other object is counted, not entered."""
    containers = (list, tuple, dict, set, frozenset)
    seen = set()
    tracked = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        if isinstance(obj, containers) or obj.__class__.__name__ == "deque":
            stack.extend(gc.get_referents(obj))
    return tracked


def _settle():
    """Collect until nothing more is untracked: the collector untracks a
    tuple once its items are (one nesting level per pass), and a dict of
    such values only in a full collection."""
    count = None
    while count != len(gc.get_objects()):
        count = len(gc.get_objects())
        gc.collect()


def test_the_ring_pins_no_tracked_object_beyond_its_messages():
    fleet, _summary = fleet_run(trace=True, monitors=True)
    tracer = fleet.cluster.tracer
    messages = {id(row[6]) for row in tracer.trace.rows()
                if row[0] == SEND}
    _settle()
    retained = _tracked_reachable(vars(tracer).values())
    assert len(tracer.trace) > 3 * len(messages) > 0
    assert retained <= len(messages) + 100, (retained, len(messages))
