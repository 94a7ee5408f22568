"""Tests for metrics accounting, complexity fitting, fault injection and
the analysis layer."""

import pytest

from repro.analysis import PAPER_TABLE, claim_for, render_table
from repro.faults import FaultPlan
from repro.metrics import MetricsCollector, classify_order, fit_order
from repro.net import Message


class TestComplexityFitting:
    def test_linear(self):
        samples = [(n, 10 * n) for n in (4, 7, 10, 13)]
        assert abs(fit_order(samples) - 1.0) < 0.01
        assert classify_order(fit_order(samples)) == "O(N)"

    def test_quadratic(self):
        samples = [(n, 3 * n * n) for n in (4, 7, 10, 13)]
        assert classify_order(fit_order(samples)) == "O(N^2)"

    def test_cubic(self):
        samples = [(n, n ** 3) for n in (4, 7, 10)]
        assert classify_order(fit_order(samples)) == "O(N^3)"

    def test_noisy_linear_still_classified(self):
        samples = [(4, 45), (7, 66), (10, 108), (13, 120)]
        assert classify_order(fit_order(samples)) == "O(N)"

    def test_out_of_band_exponent_labelled_explicitly(self):
        assert classify_order(5.0) == "O(N^5.0)"

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            fit_order([(4, 10), (4, 12)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_order([(4, 0), (8, 10)])

    def test_classify_boundary_inclusive(self):
        # tolerance=0.5 is inclusive: exactly halfway still buckets low.
        assert classify_order(1.5) == "O(N)"
        assert classify_order(2.5) == "O(N^2)"
        assert classify_order(3.5) == "O(N^3)"
        assert classify_order(0.5) == "O(N)"

    def test_classify_just_past_boundary_is_formatted(self):
        assert classify_order(3.51) == "O(N^3.5)"
        assert classify_order(0.49) == "O(N^0.5)"

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            fit_order([(4, -3), (8, 10)])
        with pytest.raises(ValueError):
            fit_order([(-4, 3), (8, 10)])

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            fit_order([(0, 3), (8, 10)])

    def test_perfect_quadratic_fit_is_exact(self):
        samples = [(n, 7 * n * n) for n in (3, 5, 9, 17, 33)]
        assert abs(fit_order(samples) - 2.0) < 1e-9


class TestMetricsCollector:
    def test_request_latency_tracking(self):
        metrics = MetricsCollector()
        metrics.start_request("r1", 1.0)
        metrics.finish_request("r1", 4.0, phases=2)
        assert metrics.latencies() == [3.0]
        assert metrics.mean_latency() == 3.0

    def test_phase_marks_deduplicated_in_order(self):
        metrics = MetricsCollector()
        metrics.mark_phase("p", "prepare", 1.0)
        metrics.mark_phase("p", "accept", 2.0)
        metrics.mark_phase("p", "prepare", 3.0)
        metrics.mark_phase("q", "other", 4.0)
        assert metrics.phases_for("p") == ["prepare", "accept"]

    def test_snapshot_and_reset(self):
        metrics = MetricsCollector()
        metrics.mark_phase("p", "x", 0.0)
        snap = metrics.snapshot()
        assert snap["messages_total"] == 0
        metrics.reset()
        assert metrics.phase_marks == []


class TestFaultPlan:
    def test_scheduled_crash_and_restart(self, cluster):
        from repro.core import Node
        node = cluster.add_node(Node, "n0")
        plan = FaultPlan(cluster)
        plan.crash_at(5.0, "n0")
        plan.restart_at(10.0, "n0")
        cluster.sim.run(until=7.0)
        assert node.crashed
        cluster.sim.run(until=12.0)
        assert not node.crashed
        kinds = [kind for _t, kind, _d in plan.events]
        assert kinds == ["crash", "restart"]

    def test_partition_and_heal(self, cluster):
        plan = FaultPlan(cluster)
        plan.partition_at(1.0, ["a"], ["b"])
        plan.heal_at(5.0)
        cluster.sim.run(until=2.0)
        assert not cluster.network.partitions.connected("a", "b")
        cluster.sim.run(until=6.0)
        assert cluster.network.partitions.connected("a", "b")

    def test_windowed_message_drop(self, cluster):
        from dataclasses import dataclass
        from repro.core import Node

        @dataclass(frozen=True)
        class Beep(Message):
            k: int

        class Sink(Node):
            def __init__(self, sim, network, name):
                super().__init__(sim, network, name)
                self.got = []

            def handle_beep(self, msg, src):
                self.got.append(msg.k)

        a = cluster.add_node(Sink, "a")
        b = cluster.add_node(Sink, "b")
        FaultPlan(cluster).apply([(5.0, "drop", "a", None, None, 10.0)])
        cluster.sim.schedule(1.0, lambda: a.send("b", Beep(1)))
        cluster.sim.schedule(7.0, lambda: a.send("b", Beep(2)))
        cluster.sim.schedule(12.0, lambda: a.send("b", Beep(3)))
        cluster.run()
        assert b.got == [1, 3]

    def test_drop_rows_cut_a_node_off(self, cluster):
        from repro.core import Node
        cluster.add_node(Node, "x")
        cluster.add_node(Node, "y")
        FaultPlan(cluster).apply([(0.0, "drop", "x"), (0.0, "drop", None, "x")])
        cluster.run()
        assert cluster.network.send("x", "y", _DummyMsg()) is False
        assert cluster.network.send("y", "x", _DummyMsg()) is False


from dataclasses import dataclass as _dc  # noqa: E402


@_dc(frozen=True)
class _DummyMsg(Message):
    pass


class TestAnalysis:
    def test_paper_table_covers_headline_protocols(self):
        names = {claim.protocol for claim in PAPER_TABLE}
        assert {"paxos", "pbft", "hotstuff", "zyzzyva", "minbft",
                "pow"} <= names

    def test_claim_lookup(self):
        claim = claim_for("pbft")
        assert claim.nodes == "3f+1" and claim.complexity == "O(N^2)"
        with pytest.raises(KeyError):
            claim_for("nonexistent")

    def test_render_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": None}]
        text = render_table(rows, title="T")
        assert "T" in text and "22" in text and "-" in text

    def test_render_empty(self):
        assert render_table([]) == "(no rows)"

    def test_comparison_table_nonempty(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        _title, header, _rule, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[0] == "protocol" and "complexity" in header
        assert len(rows) == len(PAPER_TABLE) >= 15
