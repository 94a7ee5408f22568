"""Tests for the observability hot path rebuilt around subscriptions:
ring-buffer capture with lazy materialization, typed sink dispatch on
the tracer, batched collector flushes and monitor finish idempotency."""

from repro.core import Cluster
from repro.metrics.collector import MetricsCollector
from repro.monitor import MonitorHub
from repro.monitor.library import AgreementMonitor, LivenessWatchdog
from repro.protocols.paxos import run_basic_paxos
from repro.protocols.pbft import run_pbft
from repro.trace import DELIVER, LOCAL, SEND, to_jsonl


def traced_pbft(seed=0, **kwargs):
    cluster = Cluster(seed=seed, trace=True, **kwargs)
    run_pbft(cluster, f=1, n_clients=1, operations_per_client=2)
    return cluster


class TestRingBuffer:
    def test_unbounded_by_default_keeps_everything(self):
        cluster = traced_pbft()
        trace = cluster.trace
        assert len(trace) == trace.events[-1].seq + 1
        assert trace.events[0].seq == 0

    def test_bounded_ring_keeps_only_the_newest_window(self):
        capacity = 50
        full = traced_pbft()
        ring = traced_pbft(trace_capacity=capacity)
        events = ring.trace.events
        assert len(events) == capacity
        assert len(full.trace) > capacity  # the run really overflowed
        # The window is the *tail* of the full trace: same seqs, same
        # kinds, in order.
        tail = full.trace.events[-capacity:]
        assert [e.seq for e in events] == [e.seq for e in tail]
        assert [e.kind for e in events] == [e.kind for e in tail]
        assert [e.node for e in events] == [e.node for e in tail]

    def test_ring_below_capacity_is_identical_to_unbounded(self):
        full = traced_pbft()
        roomy = traced_pbft(trace_capacity=10 ** 6)
        assert to_jsonl(full.trace) == to_jsonl(roomy.trace)


class TestLazyMaterialization:
    def test_mid_run_query_then_extend_equals_one_shot(self):
        """Incremental materialization (query, keep running, query
        again) must produce exactly the clocks a single end-of-run
        materialization computes."""
        one_shot = traced_pbft(seed=5)
        incremental = Cluster(seed=5, trace=True)
        # Force a materialization mid-run by peeking at the trace from
        # a scheduled callback, then let the run continue.
        incremental.sim.schedule(4.0, lambda: incremental.trace.events)
        run_pbft(incremental, f=1, n_clients=1, operations_per_client=2)
        assert to_jsonl(one_shot.trace) == to_jsonl(incremental.trace)

    def test_streamed_events_defer_clocks(self):
        """Subscription sinks get the rows the ring records, which carry
        no clock — clocks are a lazy, query-time product, never computed
        on the hot path."""
        cluster = Cluster(seed=0, trace=True)
        streamed = []
        cluster.tracer.subscribe(streamed.append)
        run_basic_paxos(cluster, n_acceptors=3, proposals=("X",))
        assert streamed
        rows = cluster.trace.rows()
        assert len(streamed) == len(rows)
        assert all(row == ring and row[6] is ring[6]
                   for row, ring in zip(streamed, rows))
        assert all(len(row) == 7 for row in streamed)
        # The materialized trace has real clocks for the same events.
        assert any(event.lamport > 0 for event in cluster.trace.events)

    def test_bounded_window_clocks_match_unbounded_tail_order(self):
        """Window rebuild uses fresh clocks: lamport stays monotone per
        node inside the window even after eviction."""
        ring = traced_pbft(trace_capacity=60)
        last = {}
        for event in ring.trace.events:
            if event.kind in (SEND, DELIVER):
                assert event.lamport > last.get(event.node, 0)
                last[event.node] = event.lamport


class TestSubscriptionDispatch:
    def run_with_sinks(self):
        cluster = Cluster(seed=0, trace=True)
        tracer = cluster.tracer
        log = {"all": [], "local": [], "deliver": []}
        tracer.subscribe(log["all"].append)
        tracer.subscribe(log["local"].append, kinds=(LOCAL,),
                         mtypes=("decide",))
        tracer.subscribe(log["deliver"].append, kinds=(DELIVER,))
        run_basic_paxos(cluster, n_acceptors=3, proposals=("X",))
        return cluster, log

    def test_typed_subscription_sees_only_its_kinds(self):
        cluster, log = self.run_with_sinks()
        assert log["local"]
        assert all(row[0] is LOCAL and row[4] == "decide"
                   for row in log["local"])
        kinds_seen = {row[0] for row in log["all"]}
        assert SEND in kinds_seen and DELIVER in kinds_seen

    def test_catchall_sink_sees_every_row(self):
        cluster, log = self.run_with_sinks()
        assert len(log["all"]) == len(cluster.trace)
        assert all(row == ring and row[6] is ring[6]
                   for row, ring in zip(log["all"], cluster.trace.rows()))

    def test_deliver_rows_carry_the_live_message(self):
        from repro.net.message import Message
        cluster, log = self.run_with_sinks()
        assert log["deliver"]
        for kind, _time, _node, _peer, mtype, _msg_id, payload in \
                log["deliver"]:
            assert kind is DELIVER
            assert isinstance(payload, Message)
            assert payload.mtype == mtype

    def test_subscriptions_do_not_perturb_the_trace(self):
        plain = Cluster(seed=0, trace=True)
        run_basic_paxos(plain, n_acceptors=3, proposals=("X",))
        observed, _ = self.run_with_sinks()
        assert to_jsonl(plain.trace) == to_jsonl(observed.trace)


class TestBatchedCollector:
    def test_slot_counts_fold_into_aggregates(self):
        collector = MetricsCollector()
        slot = collector.slot_for("a", "b", "ping")
        slot[0] += 3
        slot[1] += 120
        assert collector.messages_total == 3
        assert collector.bytes_total == 120
        assert collector.by_type["ping"] == 3
        assert collector.by_link[("a", "b")] == 3

    def test_mid_run_reads_are_exact_at_any_boundary(self):
        """Every read folds pending slots first, so a monitor reading
        messages_total mid-run never sees a stale batched value."""
        collector = MetricsCollector()
        slot = collector.slot_for("a", "b", "ping")
        for count in range(1, 6):
            slot[0] += 1
            slot[1] += 10
            assert collector.messages_total == count
            assert collector.bytes_total == 10 * count

    def test_reset_zeroes_live_slot_references(self):
        """The network holds direct slot references; reset must zero
        them in place, not replace them, or post-reset sends vanish."""
        collector = MetricsCollector()
        slot = collector.slot_for("a", "b", "ping")
        slot[0] += 2
        slot[1] += 20
        assert collector.messages_total == 2
        collector.reset()
        assert collector.messages_total == 0
        slot[0] += 1  # the network's cached reference, still live
        slot[1] += 10
        assert collector.messages_total == 1
        assert collector.bytes_total == 10

    def test_network_counts_stay_internally_consistent(self):
        """After a real run through the batched network lane, every
        aggregate view must describe the same message population."""
        cluster = Cluster(seed=0)
        run_pbft(cluster, f=1, n_clients=1, operations_per_client=2)
        metrics = cluster.metrics
        assert metrics.messages_total > 0
        assert metrics.messages_total == sum(metrics.by_type.values())
        assert metrics.messages_total == sum(metrics.by_sender.values())
        assert metrics.messages_total == sum(metrics.by_link.values())
        # Flushed slots hold no residue.
        assert all(slot == [0, 0] for slot in metrics._slots.values())


class TestFinishSemantics:
    def test_finish_is_idempotent_per_monitor(self):
        cluster = Cluster(seed=0, trace=True)
        hub = MonitorHub(cluster.tracer)
        hub.add(LivenessWatchdog(("decide",)))
        hub.finish()
        first = len(hub.anomalies)
        hub.finish()
        hub.finish()
        assert len(hub.anomalies) == first == 1

    def test_monitor_added_after_finish_still_finishes(self):
        """The double-record bug: a hub-level guard silently skipped
        monitors added after an earlier finish, losing their end-of-run
        anomalies.  The guard is per-monitor now."""
        cluster = Cluster(seed=0, trace=True)
        hub = MonitorHub(cluster.tracer)
        hub.add(AgreementMonitor(("decide",)))
        hub.finish()
        late = hub.add(LivenessWatchdog(("decide",)))
        hub.finish()
        assert len(late.anomalies) == 1  # "no decision at all" emitted
        assert "no decision" in late.anomalies[0].message

    def test_mid_view_end_still_emits_watchdog_anomaly(self):
        """A run that ends before any decision (mid-view) must surface
        the liveness anomaly even across repeated finish calls."""
        cluster = Cluster(seed=0, monitors=True)
        cluster.attach_monitors("pbft", n=4, f=1)
        # No protocol driven: the run "ends" with zero decisions.
        anomalies = cluster.monitors.finish()
        again = cluster.monitors.finish()
        watchdog = [a for a in anomalies if a.monitor == "liveness-watchdog"]
        assert len(watchdog) == 1
        assert list(again) == list(anomalies)  # no double-record

