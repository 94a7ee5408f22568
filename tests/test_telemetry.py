"""Tests for the telemetry subsystem: instruments, the labeled registry,
exposition/report/render outputs, substrate instrumentation, and the
zero-cost / zero-perturbation contract."""

import json
import pathlib

import pytest

from repro.core import Cluster
from repro.faults import FaultPlan
from repro.metrics import MetricsCollector
from repro.net import SynchronousModel, protocol_of
from repro.protocols.paxos import FixedBackoff, run_basic_paxos
from repro.telemetry import (
    BENCH_FILENAME,
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    render_summary,
    report_to_json,
    run_report,
    to_prometheus,
    update_bench_snapshot,
)


class TestInstruments:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8

    def test_histogram_buckets_and_summary(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.counts == [1, 1, 1, 1]  # last is the +Inf bucket
        digest = hist.summary()
        assert digest["count"] == 4
        assert digest["min"] == 0.5 and digest["max"] == 100.0
        assert digest["sum"] == 105.0

    def test_histogram_quantile_interpolates(self):
        hist = Histogram(buckets=(10.0,))
        for _ in range(10):
            hist.observe(5.0)
        # Uniform interpolation inside [0, 10]: the median estimate is 5.
        assert hist.quantile(0.5) == 5.0
        assert hist.quantile(0.0) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_histogram_empty_quantile_is_none(self):
        assert Histogram().quantile(0.5) is None

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestRegistry:
    def test_same_series_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("m", proto="paxos", mtype="prepare")
        b = registry.counter("m", mtype="prepare", proto="paxos")
        assert a is b
        a.inc()
        assert registry.value("m", proto="paxos", mtype="prepare") == 1

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("m", proto="paxos").inc()
        registry.counter("m", proto="raft").inc(2)
        assert len(registry) == 2
        assert registry.total("m") == 3
        assert registry.names() == ["m"]

    def test_series_sorted_deterministically(self):
        registry = MetricsRegistry()
        registry.counter("z", x="2").inc()
        registry.counter("a").inc()
        registry.counter("z", x="1").inc()
        names = [(name, labels) for name, labels, _ in registry.series()]
        assert names == [("a", ()), ("z", (("x", "1"),)),
                        ("z", (("x", "2"),))]

    def test_missing_series_reads_zero(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        assert registry.value("nope") == 0
        assert registry.total("nope") == 0

    def test_null_registry_absorbs_everything(self):
        null = NullRegistry()
        null.counter("m", a="b").inc(5)
        null.gauge("g").set(3)
        null.histogram("h").observe(1.0)
        assert len(null) == 0
        assert null.series() == []
        assert null.total("m") == 0
        # The shared singletons: one instrument serves every call site.
        assert null.counter("x") is NULL_REGISTRY.counter("y")

    def test_handle_resolves_interned_instrument(self):
        registry = MetricsRegistry()
        counter = registry.handle("counter", "m", proto="paxos")
        assert counter is registry.counter("m", proto="paxos")
        gauge = registry.handle("gauge", "depth", node="a")
        assert gauge is registry.gauge("depth", node="a")
        histogram = registry.handle("histogram", "lat", proto="paxos")
        assert histogram is registry.histogram("lat", proto="paxos")
        # The contract hot paths rely on: the handle stays valid, so
        # increments through it land on the registry's series.
        counter.inc(3)
        assert registry.value("m", proto="paxos") == 3

    def test_handle_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown instrument kind"):
            MetricsRegistry().handle("timer", "m")
        with pytest.raises(ValueError, match="unknown instrument kind"):
            NullRegistry().handle("timer", "m")

    def test_null_handle_returns_shared_noops(self):
        null = NullRegistry()
        assert null.handle("counter", "m") is NULL_REGISTRY.counter("x")
        assert null.handle("gauge", "g") is NULL_REGISTRY.gauge("x")
        assert null.handle("histogram", "h") is NULL_REGISTRY.histogram("x")

    def test_null_counter_value_writes_are_absorbed(self):
        # Hot paths bump cached handles' ``value`` slot directly; the
        # null twins must absorb those writes, not raise.
        counter = NULL_REGISTRY.counter("m")
        counter.value += 5
        assert counter.value == 0
        gauge = NULL_REGISTRY.gauge("g")
        gauge.value = 3
        assert gauge.value == 0


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("msgs_total", proto="paxos").inc(3)
        registry.histogram("lat", buckets=(1.0, 2.0), proto="paxos"
                           ).observe(1.5)
        text = to_prometheus(registry)
        assert "# TYPE msgs_total counter" in text
        assert 'msgs_total{proto="paxos"} 3' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1",proto="paxos"} 0' in text
        assert 'lat_bucket{le="2",proto="paxos"} 1' in text
        assert 'lat_bucket{le="+Inf",proto="paxos"} 1' in text
        assert 'lat_sum{proto="paxos"} 1.5' in text
        assert 'lat_count{proto="paxos"} 1' in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("m", link='a"b').inc()
        assert 'link="a\\"b"' in to_prometheus(registry)


class TestRunReport:
    def test_report_round_trips_as_json(self):
        registry = MetricsRegistry()
        registry.counter("m", proto="paxos").inc(2)
        report = run_report(registry, protocol="paxos", seed=7,
                            virtual_time=12.5)
        parsed = json.loads(report_to_json(report))
        assert parsed["schema"] == "repro.telemetry.run_report/1"
        assert parsed["protocol"] == "paxos" and parsed["seed"] == 7
        assert parsed["series"][0]["name"] == "m"
        assert parsed["series"][0]["value"] == 2

    def test_collector_snapshot_embedded(self):
        collector = MetricsCollector()
        collector.start_request("paxos:r", 1.0)
        collector.finish_request("paxos:r", 3.0)
        report = run_report(MetricsRegistry(), collector=collector)
        assert report["summary"]["requests"] == 1
        assert report["summary"]["mean_latency"] == 2.0

    def test_same_state_serialises_byte_identically(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b").inc()
            registry.counter("a", x="1").inc(3)
            registry.histogram("h").observe(0.25)
            return report_to_json(run_report(registry, protocol="p", seed=0))

        assert build() == build()


class TestRender:
    def test_summary_shows_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("net_messages_total", mtype="prepare").inc(5)
        registry.histogram("request_latency", proto="paxos").observe(3.0)
        text = render_summary(registry, title="demo")
        assert "demo" in text
        assert "net_messages_total" in text
        assert "mtype=prepare" in text
        assert "request_latency" in text
        assert "count=1" in text


class TestBenchSnapshot:
    def test_merge_and_stable_ordering(self, tmp_path):
        path = tmp_path / "BENCH.json"
        update_bench_snapshot(path, "E2_paxos", {"messages": 10})
        update_bench_snapshot(path, "E1_table", {"protocols": 8})
        update_bench_snapshot(path, "E2_paxos", {"messages": 12})
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.telemetry.bench_snapshot/1"
        assert data["benches"]["E2_paxos"]["messages"] == 12
        assert data["benches"]["E1_table"]["protocols"] == 8
        # Re-writing identical content produces identical bytes.
        first = path.read_bytes()
        update_bench_snapshot(path, "E2_paxos", {"messages": 12})
        assert path.read_bytes() == first

    @pytest.mark.parametrize("text", [
        '{\n<<<<<<< HEAD\n  "benches": {"E2_paxos": {"messages": 12}}\n'
        '=======\n  "benches": {"E2_paxos": {"messages": 13}}\n'
        '>>>>>>> other\n}\n',
        '{"benches": [], "schema": "repro.telemetry.bench_snapshot/1"}\n',
    ], ids=["conflict-marker", "benches-not-a-dict"])
    def test_unreadable_snapshot_raises_and_keeps_its_bytes(self, tmp_path,
                                                            text):
        path = tmp_path / "BENCH.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="BENCH.json"):
            update_bench_snapshot(path, "E1_table", {"protocols": 8})
        assert path.read_text() == text

    def test_committed_snapshot_holds_paper_shapes_only(self):
        """Wall-clock rows would make the committed snapshot differ on
        every run, and CI's ``git diff --exit-code`` gate would trip."""
        path = pathlib.Path(__file__).parents[1] / BENCH_FILENAME
        benches = json.loads(path.read_text())["benches"]
        for harness in ("E23_throughput", "E24_monitor_overhead",
                        "E26_parallel_scaling"):
            assert harness not in benches

        def keys(node):
            for key, value in node.items():
                yield key
                if isinstance(value, dict):
                    yield from keys(value)

        for experiment, entry in benches.items():
            for key in keys(entry):
                assert not key.endswith(("_per_sec", "_ms", "_overhead_x")), \
                    (experiment, key)
                assert not key.startswith("speedup"), (experiment, key)
                assert key != "quick", experiment


def _run_paxos(telemetry):
    cluster = Cluster(seed=3, delivery=SynchronousModel(1.0),
                      telemetry=telemetry)
    result = run_basic_paxos(cluster, n_acceptors=5, proposals=("X",),
                             retry=FixedBackoff(100.0))
    return cluster, result


class TestSubstrateInstrumentation:
    def test_network_counters_match_collector(self):
        cluster, _result = _run_paxos(telemetry=True)
        registry = cluster.telemetry
        assert registry.total("net_messages_total") == \
            cluster.metrics.messages_total
        assert registry.total("net_bytes_total") == cluster.metrics.bytes_total
        assert registry.total("node_sent_total") == \
            cluster.metrics.messages_total

    def test_series_carry_protocol_mtype_link_labels(self):
        cluster, _result = _run_paxos(telemetry=True)
        found = [labels for name, labels, _ in cluster.telemetry.series()
                 if name == "net_messages_total"]
        assert found
        for labels in found:
            keys = dict(labels)
            assert keys["protocol"] == "paxos"
            assert "->" in keys["link"]
            assert keys["mtype"]

    def test_simulator_counters(self):
        cluster, _result = _run_paxos(telemetry=True)
        registry = cluster.telemetry
        assert registry.total("sim_events_dispatched_total") > 0
        assert registry.total("sim_timers_fired_total") >= 0

    def test_phase_and_request_histograms(self):
        cluster, _result = _run_paxos(telemetry=True)
        registry = cluster.telemetry
        prepare = registry.get("phase_latency", protocol="paxos",
                               phase="prepare")
        assert prepare is not None and prepare.count > 0
        latency = registry.get("request_latency", protocol="paxos")
        assert latency is not None and latency.count > 0
        assert latency.min > 0

    def test_fault_injections_counted(self):
        cluster = Cluster(seed=0, telemetry=True)
        from repro.core import Node
        cluster.add_node(Node, "n0")
        plan = FaultPlan(cluster)
        plan.crash_at(5.0, "n0")
        plan.restart_at(10.0, "n0")
        cluster.sim.run(until=20.0)
        assert cluster.telemetry.value("fault_injections_total",
                                       kind="crash") == 1
        assert cluster.telemetry.value("fault_injections_total",
                                       kind="restart") == 1

    def test_leader_target_resolves_when_the_row_fires(self):
        from repro.core import Node

        class Claimant(Node):
            is_leader = False

        class Primary(Node):
            is_primary = False

        cluster = Cluster(seed=0, telemetry=True)
        stale, first, second = cluster.add_nodes(Claimant, ["n0", "n1", "n2"])
        primary = cluster.add_node(Primary, "n3")
        stale.is_leader = True
        stale.crash()  # a crashed node that still says "leader" is skipped
        second.is_leader = True
        cluster.sim.schedule_at(5.0, setattr, second, "is_leader", False)
        cluster.sim.schedule_at(5.0, setattr, first, "is_leader", True)
        primary.is_primary = True
        plan = FaultPlan(cluster).apply(((10.0, "crash", "leader"),
                                         (12.0, "crash", "leader")))
        cluster.sim.run(until=20.0)
        # Whoever leads at t=10, not at scheduling time; then the class
        # with only ``is_primary`` is asked by that predicate.
        assert plan.events == [(10.0, "crash", "n1"), (12.0, "crash", "n3")]
        assert first.crashed and primary.crashed and not second.crashed
        assert cluster.telemetry.value("fault_injections_total",
                                       kind="crash") == 2

    def test_leader_row_without_a_live_leader_does_nothing(self):
        from repro.core import Node
        cluster = Cluster(seed=0, telemetry=True)
        nodes = cluster.add_nodes(Node, ["n0", "n1"])
        plan = FaultPlan(cluster).apply(((1.0, "crash", "leader"),))
        cluster.sim.run(until=5.0)
        assert plan.events == []
        assert not any(node.crashed for node in nodes)
        assert cluster.telemetry.total("fault_injections_total") == 0

    def test_unknown_target_raises_when_the_row_fires(self):
        from repro.core import Node
        cluster = Cluster(seed=0, telemetry=True)
        cluster.add_node(Node, "n0")
        plan = FaultPlan(cluster)
        plan.crash_at(1.0, "n9")  # scheduling does not look the name up
        with pytest.raises(KeyError):
            cluster.sim.run(until=5.0)
        assert plan.events == []

    def test_protocol_of_is_leaf_module(self):
        cluster, _ = _run_paxos(telemetry=False)
        from repro.core.ballot import Ballot
        from repro.protocols.paxos import Prepare
        assert protocol_of(Prepare(ballot=Ballot(1, "p"))) == "paxos"
        assert cluster is not None


class TestZeroCostContract:
    def test_telemetry_off_by_default(self):
        cluster = Cluster(seed=0)
        assert cluster.telemetry is None
        assert cluster.sim.telemetry is None

    def test_same_seed_behaviour_identical_with_and_without(self):
        on_cluster, on_result = _run_paxos(telemetry=True)
        off_cluster, off_result = _run_paxos(telemetry=False)
        assert on_result.value == off_result.value
        assert on_result.decided_at == off_result.decided_at
        assert on_cluster.metrics.messages_total == \
            off_cluster.metrics.messages_total
        assert on_cluster.sim.now == off_cluster.sim.now

    def test_collector_without_registry_skips_series(self):
        collector = MetricsCollector()
        collector.mark_phase("p", "prepare", 0.0)
        collector.start_request("p:r", 0.0)
        collector.finish_request("p:r", 1.0)
        assert collector.registry is None  # nothing blew up, nothing fed


class TestUnmatchedRequests:
    def test_unmatched_finish_does_not_fabricate_latency(self):
        collector = MetricsCollector()
        collector.finish_request("ghost", 5.0)
        assert collector.latencies() == []
        assert collector.mean_latency() is None
        assert collector.unmatched_requests() == 1
        record = collector.finished_requests[0]
        assert record.unmatched and record.latency == 0.0

    def test_matched_finish_still_counts(self):
        collector = MetricsCollector()
        collector.start_request("p:a", 1.0)
        collector.finish_request("p:a", 4.0)
        collector.finish_request("ghost", 9.0)
        assert collector.latencies() == [3.0]
        assert collector.mean_latency() == 3.0
        assert collector.unmatched_requests() == 1

    def test_unmatched_feeds_dedicated_counter(self):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry=registry)
        collector.finish_request("pbft:ghost", 2.0)
        assert registry.value("requests_unmatched_total",
                              protocol="pbft") == 1
        assert registry.get("request_latency", protocol="pbft") is None

    def test_snapshot_reports_unmatched_and_sorted_keys(self):
        collector = MetricsCollector()
        collector.finish_request("ghost", 1.0)
        snap = collector.snapshot()
        assert snap["unmatched_requests"] == 1
        assert snap["requests"] == 1
        assert snap["mean_latency"] is None
        assert list(snap) == sorted(snap)
        assert list(snap["by_type"]) == sorted(snap["by_type"])

    def test_request_open_lifecycle(self):
        collector = MetricsCollector()
        assert not collector.request_open("p:x")
        collector.start_request("p:x", 0.0)
        assert collector.request_open("p:x")
        collector.finish_request("p:x", 1.0)
        assert not collector.request_open("p:x")
