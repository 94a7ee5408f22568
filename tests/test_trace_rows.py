"""The tracer's ring is the query format.

``trace.events`` on a live trace is a view that inflates a TraceEvent
per row *read*; spans, reports, causal context and parallel shipping
scan :meth:`Trace.rows` and inflate only what they keep (spans:
nothing).  These tests pin (a) that the lazy path derives byte-for-byte
what the old eager path (kept here as the oracle:
``Trace(list(live.events))``) derives, (b) that the laziness is
structural — counted in TraceEvents built, not in milliseconds — and
(c) that the view is a faithful sequence.
"""

import pathlib

import pytest

import repro.trace.tracer as tracer_module
from repro.core import Cluster
from repro.monitor.base import render_context
from repro.obs import SpanBuilder, spans_report
from repro.protocols.raft import run_raft
from repro.scenarios import SCENARIOS
from repro.telemetry import report_to_json
from repro.trace import TIMER, Trace, TraceEvent, to_jsonl

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def demo_cluster(protocol, seed, **observers):
    cluster = Cluster(seed=seed, trace=True, **observers)
    SCENARIOS[protocol].demo(cluster)
    return cluster


def spans_json(trace, **kwargs):
    return report_to_json(spans_report(SpanBuilder(trace).build(), **kwargs))


@pytest.fixture
def built(monkeypatch):
    """Counts every TraceEvent the tracer module constructs."""
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return TraceEvent(*args, **kwargs)
    monkeypatch.setattr(tracer_module, "TraceEvent", counting)
    return count


def heartbeat_cluster(min_rows=10_000):
    """A raft group left idling: heartbeats and timers, few requests."""
    cluster = Cluster(seed=3, trace=True)
    run_raft(cluster, n_nodes=5, commands_per_client=2)
    cluster.run(until=cluster.now + 2000.0)
    assert len(cluster.trace) >= min_rows
    return cluster


# -- (a) oracle equivalence ---------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("protocol", sorted(SCENARIOS))
def test_lazy_spans_equal_the_eager_oracle(protocol, seed):
    live = demo_cluster(protocol, seed).trace
    eager = Trace(list(live.events))
    assert spans_json(live, protocol=protocol, seed=seed, slo=5.0) \
        == spans_json(eager, protocol=protocol, seed=seed, slo=5.0)
    assert to_jsonl(live) == to_jsonl(eager)


@pytest.mark.parametrize("golden", sorted(
    path.name for path in GOLDEN_DIR.glob("*_seed0.trace.jsonl")
    if not path.name.startswith("shards_par")))
def test_jsonl_of_the_view_is_the_committed_golden(golden):
    protocol = golden[:-len("_seed0.trace.jsonl")]
    live = demo_cluster(protocol, 0).trace
    assert to_jsonl(live).encode("utf-8") \
        == (GOLDEN_DIR / golden).read_bytes()


# -- (b) laziness is structural ----------------------------------------------

def test_len_bool_and_last_event_build_at_most_one_event(built):
    cluster = heartbeat_cluster()
    events = cluster.trace.events
    assert len(events) == len(cluster.trace) >= 10_000
    assert bool(events)
    assert built[0] == 0
    last = cluster.tracer.last_event()
    assert last.seq == len(events) - 1 and last.lamport > 0
    assert built[0] == 1


def test_span_builder_builds_no_event_for_heartbeats_or_timers(built):
    cluster = heartbeat_cluster()
    rows = cluster.trace.rows()
    spans = SpanBuilder(cluster.trace).build()
    anchors = {span.table.seq[a] for span in spans for a in span.anchors}
    assert spans and built[0] == 0 and 0 < len(anchors) < len(rows) // 10
    idle = {seq for seq, row in enumerate(rows)
            if row[0] == TIMER or row[4] in ("appendentries", "appendreply")}
    assert len(idle) > len(rows) * 9 // 10 and not idle & anchors


def test_render_context_builds_at_most_its_window(built):
    cluster = heartbeat_cluster()
    node = cluster.network.node_names[1]
    lines = render_context(cluster.trace, node, len(cluster.trace) - 1,
                           window=5)
    assert len(lines) == 5 and all(node in line for line in lines)
    assert built[0] <= 5


# -- (c) the view is a faithful sequence --------------------------------------

def test_view_indexes_slices_and_compares_like_the_list_it_replaced():
    live = demo_cluster("multi-paxos", 7).trace
    view = live.events
    eager = list(view)
    n = len(eager)
    assert n == len(view) and view == eager and eager == view
    assert not view == eager[:-1]
    assert view[0] == eager[0] and view[-1] == eager[-1]
    assert view[n // 2] == eager[n // 2] and view[-n] == eager[0]
    assert view[3:9] == eager[3:9] and view[-5:] == eager[-5:]
    assert view[::-7] == eager[::-7]
    assert list(reversed(view)) == eager[::-1]
    assert eager[4] in view and view.index(eager[4]) == 4
    assert [e.seq for e in view] == list(range(n))
    with pytest.raises(IndexError):
        view[n]
    with pytest.raises(IndexError):
        view[-n - 1]
    with pytest.raises(TypeError):
        live.append(eager[0])
    assert live.base_seq == 0 and Trace(eager[5:]).base_seq == 5
    assert [row[:6] for row in Trace(eager).rows()] \
        == [row[:6] for row in live.rows()]


def test_events_are_immutable_hashable_and_keyword_constructible():
    event = TraceEvent(seq=1, time=0.5, kind="local", node="n0",
                       detail=(("req", "c0-0"),))
    assert event == TraceEvent(1, 0.5, "local", "n0", 0, "", "", -1,
                               (("req", "c0-0"),))
    assert event.get("req") == "c0-0" and event.get("nope", 3) == 3
    assert len({event, event}) == 1
    with pytest.raises(AttributeError):
        event.seq = 2


def test_bounded_ring_view_after_eviction_replays_clocks_from_its_window():
    full = demo_cluster("pbft", 0).trace
    ring = demo_cluster("pbft", 0, trace_capacity=60).trace
    events = ring.events
    assert len(events) == 60 < len(full)
    assert events[0].seq == ring.base_seq == len(full) - 60 > 0
    assert [e[:4] + e[5:] for e in events] \
        == [e[:4] + e[5:] for e in full.events[-60:]]
    # Clocks restart at the window: the first row of a node ticks to 1,
    # where the unbounded trace has counted the evicted prefix too.
    first = next(event for event in events if event.node)
    assert first.lamport == 1 < full.events[first.seq].lamport
    assert events[-1] == list(events)[-1] == events[59]
