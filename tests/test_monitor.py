"""Tests for the streaming conformance monitors.

Unit-level: each library monitor against hand-built event streams
(violations trip, clean streams don't).  Integration-level: the hub's
kind-indexed dispatch, the null twins, ``Cluster(monitors=True)``
wiring, the non-perturbation guarantee (same seed, same trace, monitors
or not), and ``run_check`` end to end — clean runs pass, an
equivocating primary is caught and named with causal context.
"""

import json
import pathlib
import re

import pytest

from repro.analysis.claims import PAPER_TABLE, claim_for
from repro.core import Cluster
from repro.monitor import (
    CONFORMANCE,
    NULL_HUB,
    AgreementMonitor,
    ComplexityEnvelopeMonitor,
    EquivocationMonitor,
    LeaderUniquenessMonitor,
    LivenessWatchdog,
    MonitorHub,
    MONITOR_SPECS,
    MonitorSpec,
    PhaseConformanceMonitor,
    QuorumCertificateMonitor,
    SAFETY,
    build_monitors,
    check_protocols,
    render_report,
    report_to_json,
    run_check,
    spec_for,
)
from repro.monitor.base import render_context
from repro.scenarios import SCENARIOS
from repro.trace import (DELIVER, LOCAL, PHASE, Trace, TraceEvent,
                         canonical_detail)


def ev(number, kind, node, mtype, peer="", **detail):
    """A synthetic trace event for feeding monitors directly."""
    return TraceEvent(seq=number, time=float(number), kind=kind, node=node,
                      peer=peer, mtype=mtype,
                      detail=canonical_detail(detail))


class FakeCollector:
    def __init__(self):
        self.messages_total = 0


class FakeHub:
    """Just enough hub for a monitor used outside a real run."""

    trace = None
    tracer = None

    def __init__(self, collector=None):
        self.collector = collector


def attach(monitor, collector=None):
    monitor.attach(FakeHub(collector))
    return monitor


class TestAgreementMonitor:
    def test_clean_stream_no_anomaly(self):
        m = attach(AgreementMonitor(("decide",), slot_key="seq"))
        m.observe(ev(0, LOCAL, "a", "decide", seq=1, value="x"))
        m.observe(ev(1, LOCAL, "b", "decide", seq=1, value="x"))
        m.observe(ev(2, LOCAL, "a", "decide", seq=2, value="y"))
        assert m.anomalies == []
        assert m.decisions == 2

    def test_conflicting_values_trip(self):
        m = attach(AgreementMonitor(("decide",), slot_key="seq"))
        m.observe(ev(0, LOCAL, "a", "decide", seq=1, value="x"))
        m.observe(ev(1, LOCAL, "b", "decide", seq=1, value="y"))
        assert len(m.anomalies) == 1
        anomaly = m.anomalies[0]
        assert anomaly.category == SAFETY
        assert anomaly.node == "b"
        assert "already decided" in anomaly.message

    def test_single_decree_mode(self):
        m = attach(AgreementMonitor(("decide", "learn")))
        m.observe(ev(0, LOCAL, "a", "decide", value="x"))
        m.observe(ev(1, LOCAL, "b", "learn", value="z"))
        assert len(m.anomalies) == 1
        assert "the decree" in m.anomalies[0].message


class TestLeaderUniquenessMonitor:
    def test_one_leader_per_epoch_ok(self):
        m = attach(LeaderUniquenessMonitor("term"))
        m.observe(ev(0, LOCAL, "a", "lead", term=1))
        m.observe(ev(1, LOCAL, "a", "lead", term=1))  # re-assertion is fine
        m.observe(ev(2, LOCAL, "b", "lead", term=2))
        assert m.anomalies == []

    def test_split_brain_trips(self):
        m = attach(LeaderUniquenessMonitor("term"))
        m.observe(ev(0, LOCAL, "a", "lead", term=3))
        m.observe(ev(1, LOCAL, "b", "lead", term=3))
        assert len(m.anomalies) == 1
        assert "already held by a" in m.anomalies[0].message


class TestQuorumCertificateMonitor:
    def make(self):
        return attach(QuorumCertificateMonitor(
            "decide", "ack", need=2, link_keys=("ballot",)))

    def test_decide_after_quorum_ok(self):
        m = self.make()
        m.observe(ev(0, DELIVER, "a", "ack", peer="p1", ballot=1))
        m.observe(ev(1, DELIVER, "a", "ack", peer="p2", ballot=1))
        m.observe(ev(2, LOCAL, "a", "decide", ballot=1))
        assert m.anomalies == []

    def test_decide_without_quorum_trips(self):
        m = self.make()
        m.observe(ev(0, DELIVER, "a", "ack", peer="p1", ballot=1))
        m.observe(ev(1, LOCAL, "a", "decide", ballot=1))
        assert len(m.anomalies) == 1
        assert "1/2" in m.anomalies[0].message

    def test_acks_for_other_ballot_do_not_count(self):
        m = self.make()
        m.observe(ev(0, DELIVER, "a", "ack", peer="p1", ballot=7))
        m.observe(ev(1, DELIVER, "a", "ack", peer="p2", ballot=7))
        m.observe(ev(2, LOCAL, "a", "decide", ballot=8))
        assert len(m.anomalies) == 1


class TestEquivocationMonitor:
    def make(self):
        return attach(EquivocationMonitor(
            ("preprepare",), epoch_keys=("view",), slot_key="seq"))

    def test_consistent_proposals_ok(self):
        m = self.make()
        m.observe(ev(0, DELIVER, "a", "preprepare", peer="p",
                     view=0, seq=1, digest="d1"))
        m.observe(ev(1, DELIVER, "b", "preprepare", peer="p",
                     view=0, seq=1, digest="d1"))
        assert m.anomalies == []

    def test_two_values_one_slot_trips(self):
        m = self.make()
        m.observe(ev(0, DELIVER, "a", "preprepare", peer="p",
                     view=0, seq=1, digest="d1"))
        m.observe(ev(1, DELIVER, "b", "preprepare", peer="p",
                     view=0, seq=1, digest="d2"))
        assert len(m.anomalies) == 1
        assert m.anomalies[0].node == "p"

    def test_one_value_two_slots_trips(self):
        m = self.make()
        m.observe(ev(0, DELIVER, "a", "preprepare", peer="p",
                     view=0, seq=1, digest="d1"))
        m.observe(ev(1, DELIVER, "b", "preprepare", peer="p",
                     view=0, seq=2, digest="d1"))
        assert len(m.anomalies) == 1

    def test_null_sentinel_ignored(self):
        # PBFT re-proposes the null request at many slots while filling
        # view-change gaps; that must never read as equivocation.
        m = self.make()
        m.observe(ev(0, DELIVER, "a", "preprepare", peer="p",
                     view=1, seq=1, digest="null"))
        m.observe(ev(1, DELIVER, "a", "preprepare", peer="p",
                     view=1, seq=2, digest="null"))
        assert m.anomalies == []

    def test_slotless_mode_keys_on_epoch(self):
        m = attach(EquivocationMonitor(
            ("tmproposal",), epoch_keys=("height", "round"), slot_key=None))
        m.observe(ev(0, DELIVER, "a", "tmproposal", peer="p",
                     height=1, round=0, digest="b1"))
        m.observe(ev(1, DELIVER, "b", "tmproposal", peer="p",
                     height=1, round=0, digest="b2"))
        m.observe(ev(2, DELIVER, "a", "tmproposal", peer="p",
                     height=2, round=0, digest="b3"))
        assert len(m.anomalies) == 1


class TestPhaseConformanceMonitor:
    def make(self, **kwargs):
        return attach(PhaseConformanceMonitor(
            ("pbft",), ("pre-prepare", "prepare", "commit"),
            exceptional=("view-change",), **kwargs))

    def test_claimed_alphabet_ok(self):
        m = self.make()
        for phase in ("pre-prepare", "prepare", "commit", "view-change"):
            m.observe(ev(0, PHASE, "", phase, protocol="pbft"))
        m.finish()
        assert m.anomalies == []
        assert m.observed_phases() == ["pre-prepare", "prepare", "commit"]

    def test_unknown_phase_trips(self):
        m = self.make()
        m.observe(ev(0, PHASE, "", "speculate", protocol="pbft"))
        assert len(m.anomalies) == 1
        assert m.anomalies[0].category == CONFORMANCE

    def test_missing_expected_phase_reported_at_finish(self):
        m = self.make()
        m.observe(ev(0, PHASE, "", "pre-prepare", protocol="pbft"))
        m.finish()
        assert len(m.anomalies) == 1
        assert "never entered" in m.anomalies[0].message

    def test_other_protocols_phases_ignored(self):
        m = self.make()
        m.observe(ev(0, PHASE, "", "election", protocol="raft"))
        m.finish()
        assert m.anomalies == []


class TestComplexityEnvelopeMonitor:
    def make(self, collector, **kwargs):
        monitor = ComplexityEnvelopeMonitor(
            ("decide",), n=4, exponent=1, factor=16.0, slot_key="seq",
            **kwargs)
        return attach(monitor, collector)

    def test_within_envelope_ok(self):
        collector = FakeCollector()
        m = self.make(collector)
        for seq in range(1, 4):
            collector.messages_total += 20  # 20 msgs/decision < 64
            m.observe(ev(seq, LOCAL, "a", "decide", seq=seq))
        m.finish()
        assert m.anomalies == []
        assert m.mean_cost() == 20.0

    def test_blowup_trips(self):
        collector = FakeCollector()
        m = self.make(collector)
        collector.messages_total = 500
        m.observe(ev(0, LOCAL, "a", "decide", seq=1))
        m.finish()
        assert len(m.anomalies) == 1
        assert "envelope" in m.anomalies[0].message
        assert m.bound == 64.0

    def test_exceptional_phase_taints_window(self):
        collector = FakeCollector()
        m = self.make(collector, exceptional_phases=("view-change",),
                      phase_protocols=("pbft",))
        collector.messages_total = 500  # view-change storm...
        m.observe(ev(0, PHASE, "", "view-change", protocol="pbft"))
        m.observe(ev(1, LOCAL, "a", "decide", seq=1))  # ...window skipped
        collector.messages_total += 20
        m.observe(ev(2, LOCAL, "a", "decide", seq=2))
        m.finish()
        assert m.anomalies == []
        assert m.samples == [20]


class TestLivenessWatchdog:
    def test_trips_at_horizon_and_rearms(self):
        m = attach(LivenessWatchdog(("decide",), horizon_events=3))
        for seq in range(6):
            m.observe(ev(seq, DELIVER, "a", "noise", peer="b"))
        assert len(m.anomalies) == 2  # once per horizon, not per event

    def test_decision_resets_the_clock(self):
        m = attach(LivenessWatchdog(("decide",), horizon_events=3))
        for seq in range(2):
            m.observe(ev(seq, DELIVER, "a", "noise", peer="b"))
        m.observe(ev(2, LOCAL, "a", "decide"))
        for seq in range(3, 5):
            m.observe(ev(seq, DELIVER, "a", "noise", peer="b"))
        m.finish()
        assert m.anomalies == []

    def test_no_decision_at_all_reported_at_finish(self):
        m = attach(LivenessWatchdog(("decide",), horizon_events=1000))
        m.observe(ev(0, DELIVER, "a", "noise", peer="b"))
        m.finish()
        assert len(m.anomalies) == 1
        assert "no decision at all" in m.anomalies[0].message


class TestHubAndNullTwins:
    def test_kind_indexed_dispatch(self):
        cluster = Cluster(seed=0, trace=True)
        hub = MonitorHub(cluster.tracer, cluster.metrics)
        local_only = hub.add(AgreementMonitor(("decide",)))
        watchdog = hub.add(LivenessWatchdog(("decide",), horizon_events=10))
        seen = []
        local_only.observe = seen.append  # spy
        hub.observe(ev(0, DELIVER, "a", "ack", peer="b"))
        assert seen == []  # LOCAL-only monitor never saw the deliver
        hub.observe(ev(1, LOCAL, "a", "decide", value="x"))
        assert len(seen) == 1
        assert watchdog.decisions == 1  # catchall saw both

    def test_finish_is_idempotent(self):
        cluster = Cluster(seed=0, trace=True)
        hub = MonitorHub(cluster.tracer)
        hub.add(LivenessWatchdog(("decide",)))
        hub.finish()
        first = len(hub.anomalies)
        hub.finish()
        assert len(hub.anomalies) == first == 1

    def test_null_hub_is_inert(self):
        assert NULL_HUB.ok
        assert NULL_HUB.anomalies == ()
        NULL_HUB.observe(ev(0, LOCAL, "a", "decide"))
        assert NULL_HUB.finish() == ()
        assert NULL_HUB.extend([]) is NULL_HUB

    def test_render_context_filters_by_node(self):
        # A plain Trace: a live one is written by its tracer's hooks only.
        trace = Trace([ev(0, DELIVER, "a", "ack", peer="b"),
                       ev(1, LOCAL, "c", "decide"),
                       ev(2, LOCAL, "a", "decide")])
        lines = render_context(trace, "a", 2, window=5)
        assert len(lines) == 2  # c's milestone filtered out
        assert "deliver" in lines[0] and "<-b" in lines[0]


class TestSpecs:
    def test_spec_table_covers_paper_table(self):
        assert set(MONITOR_SPECS) == {c.protocol for c in PAPER_TABLE}

    def test_build_monitors_pbft(self):
        battery = build_monitors(spec_for("pbft"), n=4, f=1)
        names = {m.name for m in battery}
        assert {"agreement", "leader-uniqueness", "quorum-certificate",
                "equivocation", "phase-conformance", "complexity-envelope",
                "liveness-watchdog"} <= names

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            spec_for("nopeos")

    def test_one_box_feeds_envelope_and_conformance_golden(self):
        """The O(N)/O(N^2) column is written once, in ``PAPER_TABLE``:
        every envelope monitor's exponent is that column's power, and
        the claim a conformance report embeds is the table row."""
        assert "complexity_exponent" not in MonitorSpec.__dataclass_fields__
        enveloped = set()
        for name, scenario in SCENARIOS.items():
            if scenario.fleet_claim is not None:
                continue
            claim = scenario.claim()
            assert claim is claim_for(name)
            for monitor in build_monitors(MONITOR_SPECS[name],
                                          scenario.n, scenario.f):
                if isinstance(monitor, ComplexityEnvelopeMonitor):
                    power = re.fullmatch(r"O\(N(?:\^(\d))?\)",
                                         claim.complexity).group(1)
                    assert monitor.exponent == int(power or 1), name
                    enveloped.add(name)
        assert {"paxos", "pbft", "hotstuff", "ben-or"} <= enveloped
        golden = json.loads((pathlib.Path(__file__).parent / "golden"
                             / "pbft_seed0.conformance.json").read_text())
        pbft = vars(claim_for("pbft"))
        assert golden["claim"] == {key: pbft[key] for key in golden["claim"]}


class TestClusterWiring:
    def test_monitors_flag_builds_hub(self):
        cluster = Cluster(seed=0, monitors=True)
        assert isinstance(cluster.monitors, MonitorHub)
        assert cluster.tracer is not None

    def test_monitors_off_is_null_hub(self):
        cluster = Cluster(seed=0)
        assert cluster.monitors is NULL_HUB
        assert cluster.tracer is None  # no tracer, no per-event overhead

    def test_attach_monitors_requires_flag(self):
        cluster = Cluster(seed=0, trace=True)
        with pytest.raises(ValueError):
            cluster.attach_monitors("pbft", n=4, f=1)

    def test_monitors_do_not_perturb_the_run(self):
        """The non-perturbation guarantee: a monitored run records the
        exact same trace as a trace-only run with the same seed."""
        from repro.protocols.pbft import run_pbft
        from repro.trace import to_jsonl

        plain = Cluster(seed=3, trace=True)
        run_pbft(plain, f=1, n_clients=1, operations_per_client=2)

        monitored = Cluster(seed=3, monitors=True)
        monitored.attach_monitors("pbft", n=4, f=1)
        run_pbft(monitored, f=1, n_clients=1, operations_per_client=2)
        monitored.monitors.finish()

        assert to_jsonl(plain.trace) == to_jsonl(monitored.trace)
        assert monitored.monitors.ok


class TestRunCheck:
    def test_clean_pbft_passes_and_matches_claim(self):
        report = run_check("pbft", seed=0)
        assert report["ok"] is True
        assert report["anomalies"] == []
        assert report["claim"]["failure_model"] == \
            claim_for("pbft").failure_model
        assert report["measured"]["decisions"] >= 1
        assert report["measured"]["phases"] == \
            ["pre-prepare", "prepare", "commit"]
        statuses = {m["monitor"]: m["status"] for m in report["monitors"]}
        assert set(statuses.values()) == {"ok"}

    def test_equivocating_primary_is_caught(self):
        report = run_check("pbft", seed=0, faults="equivocate")
        assert report["ok"] is False
        tripped = [a for a in report["anomalies"]
                   if a["monitor"] == "equivocation"]
        assert tripped, "equivocation monitor did not trip"
        anomaly = tripped[0]
        assert anomaly["node"] == "r0"  # the Byzantine primary, by name
        assert anomaly["context"], "anomaly lacks causal context"

    def test_unknown_protocol_and_fault_rejected(self):
        with pytest.raises(KeyError):
            run_check("nopeos")
        with pytest.raises(ValueError):
            run_check("pbft", faults="meteor-strike")

    def test_report_is_deterministic(self):
        one = report_to_json(run_check("raft", seed=1))
        two = report_to_json(run_check("raft", seed=1))
        assert one == two

    def test_render_report_names_the_verdict(self):
        report = run_check("paxos", seed=0)
        text = render_report(report)
        assert "verdict" in text and "PASS" in text
        assert "conformance: paxos" in text

    def test_every_table_protocol_is_checkable(self):
        assert set(check_protocols()) == {c.protocol for c in PAPER_TABLE}
