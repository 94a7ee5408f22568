"""Tests for the streaming conformance monitors.

Unit-level: each library monitor against hand-built event streams
recorded through a real tracer and hub, the path every run takes
(violations trip, clean streams don't).  Integration-level: the hub's
kind-indexed dispatch, the null hub, ``Cluster(monitors=True)``
wiring, the non-perturbation guarantee (same seed, same trace, monitors
or not), and ``run_check`` end to end — clean runs pass, an
equivocating primary is caught and named with causal context.
"""

import functools
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
    CertSpec,
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
    """A synthetic trace event for a hand-built :class:`Trace`."""
    return TraceEvent(seq=number, time=float(number), kind=kind, node=node,
                      peer=peer, mtype=mtype,
                      detail=canonical_detail(detail))


def emit(tracer, kind, node, mtype, peer="", **detail):
    """Record one synthetic event through ``tracer``'s hooks, so every
    sink gets the ring row a live run hands it."""
    if kind == LOCAL:
        tracer.on_local(node, mtype, detail)
    elif kind == PHASE:
        tracer.on_phase(detail["protocol"], mtype)
    else:
        # A class of its own per message: the tracer plans the detail
        # fields of a message class from the first instance it sees.
        message = type("Synthetic", (), {"mtype": mtype})()
        vars(message).update(detail)
        tracer.on_deliver(peer, node, message, -1)


class FakeCollector:
    def __init__(self):
        self.messages_total = 0


def attach(monitor, collector=None):
    """Register ``monitor`` on a real hub over a real tracer; returns
    ``feed(kind, node, mtype, peer="", **detail)`` recording one event."""
    tracer = Cluster(seed=0, trace=True).tracer
    MonitorHub(tracer, collector).add(monitor)
    return functools.partial(emit, tracer)


class TestAgreementMonitor:
    def test_clean_stream_no_anomaly(self):
        m = AgreementMonitor(("decide",), slot_key="seq")
        feed = attach(m)
        feed(LOCAL, "a", "decide", seq=1, value="x")
        feed(LOCAL, "b", "decide", seq=1, value="x")
        feed(LOCAL, "a", "decide", seq=2, value="y")
        assert m.anomalies == []
        assert m.decisions == 2

    def test_conflicting_values_trip(self):
        m = AgreementMonitor(("decide",), slot_key="seq")
        feed = attach(m)
        feed(LOCAL, "a", "decide", seq=1, value="x")
        feed(LOCAL, "b", "decide", seq=1, value="y")
        assert len(m.anomalies) == 1
        anomaly = m.anomalies[0]
        assert anomaly.category == SAFETY
        assert anomaly.node == "b"
        assert "already decided" in anomaly.message

    def test_single_decree_mode(self):
        m = AgreementMonitor(("decide", "learn"))
        feed = attach(m)
        feed(LOCAL, "a", "decide", value="x")
        feed(LOCAL, "b", "learn", value="z")
        assert len(m.anomalies) == 1
        assert "the decree" in m.anomalies[0].message


class TestLeaderUniquenessMonitor:
    def test_one_leader_per_epoch_ok(self):
        m = LeaderUniquenessMonitor("term")
        feed = attach(m)
        feed(LOCAL, "a", "lead", term=1)
        feed(LOCAL, "a", "lead", term=1)  # re-assertion is fine
        feed(LOCAL, "b", "lead", term=2)
        assert m.anomalies == []

    def test_split_brain_trips(self):
        m = LeaderUniquenessMonitor("term")
        feed = attach(m)
        feed(LOCAL, "a", "lead", term=3)
        feed(LOCAL, "b", "lead", term=3)
        assert len(m.anomalies) == 1
        assert "already held by a" in m.anomalies[0].message


class TestQuorumCertificateMonitor:
    def make(self):
        m = QuorumCertificateMonitor("decide", "ack", need=2,
                                     link_keys=("ballot",))
        return m, attach(m)

    def test_decide_after_quorum_ok(self):
        m, feed = self.make()
        feed(DELIVER, "a", "ack", peer="p1", ballot=1)
        feed(DELIVER, "a", "ack", peer="p2", ballot=1)
        feed(LOCAL, "a", "decide", ballot=1)
        assert m.anomalies == []

    def test_decide_without_quorum_trips(self):
        m, feed = self.make()
        feed(DELIVER, "a", "ack", peer="p1", ballot=1)
        feed(LOCAL, "a", "decide", ballot=1)
        assert len(m.anomalies) == 1
        assert "1/2" in m.anomalies[0].message

    def test_acks_for_other_ballot_do_not_count(self):
        m, feed = self.make()
        feed(DELIVER, "a", "ack", peer="p1", ballot=7)
        feed(DELIVER, "a", "ack", peer="p2", ballot=7)
        feed(LOCAL, "a", "decide", ballot=8)
        assert len(m.anomalies) == 1


class TestEquivocationMonitor:
    def make(self):
        m = EquivocationMonitor(("preprepare",), epoch_keys=("view",),
                                slot_key="seq")
        return m, attach(m)

    def test_consistent_proposals_ok(self):
        m, feed = self.make()
        feed(DELIVER, "a", "preprepare", peer="p", view=0, seq=1,
             digest="d1")
        feed(DELIVER, "b", "preprepare", peer="p", view=0, seq=1,
             digest="d1")
        assert m.anomalies == []

    def test_two_values_one_slot_trips(self):
        m, feed = self.make()
        feed(DELIVER, "a", "preprepare", peer="p", view=0, seq=1,
             digest="d1")
        feed(DELIVER, "b", "preprepare", peer="p", view=0, seq=1,
             digest="d2")
        assert len(m.anomalies) == 1
        assert m.anomalies[0].node == "p"

    def test_one_value_two_slots_trips(self):
        m, feed = self.make()
        feed(DELIVER, "a", "preprepare", peer="p", view=0, seq=1,
             digest="d1")
        feed(DELIVER, "b", "preprepare", peer="p", view=0, seq=2,
             digest="d1")
        assert len(m.anomalies) == 1

    def test_null_sentinel_ignored(self):
        # PBFT re-proposes the null request at many slots while filling
        # view-change gaps; that must never read as equivocation.
        m, feed = self.make()
        feed(DELIVER, "a", "preprepare", peer="p", view=1, seq=1,
             digest="null")
        feed(DELIVER, "a", "preprepare", peer="p", view=1, seq=2,
             digest="null")
        assert m.anomalies == []

    def test_slotless_mode_keys_on_epoch(self):
        m = EquivocationMonitor(("tmproposal",),
                                epoch_keys=("height", "round"), slot_key=None)
        feed = attach(m)
        feed(DELIVER, "a", "tmproposal", peer="p", height=1, round=0,
             digest="b1")
        feed(DELIVER, "b", "tmproposal", peer="p", height=1, round=0,
             digest="b2")
        feed(DELIVER, "a", "tmproposal", peer="p", height=2, round=0,
             digest="b3")
        assert len(m.anomalies) == 1


class TestPhaseConformanceMonitor:
    def make(self, **kwargs):
        m = PhaseConformanceMonitor(
            ("pbft",), ("pre-prepare", "prepare", "commit"),
            exceptional=("view-change",), **kwargs)
        return m, attach(m)

    def test_claimed_alphabet_ok(self):
        m, feed = self.make()
        for phase in ("pre-prepare", "prepare", "commit", "view-change"):
            feed(PHASE, "", phase, protocol="pbft")
        m.finish()
        assert m.anomalies == []
        assert m.observed_phases() == ["pre-prepare", "prepare", "commit"]

    def test_unknown_phase_trips(self):
        m, feed = self.make()
        feed(PHASE, "", "speculate", protocol="pbft")
        assert len(m.anomalies) == 1
        assert m.anomalies[0].category == CONFORMANCE

    def test_missing_expected_phase_reported_at_finish(self):
        m, feed = self.make()
        feed(PHASE, "", "pre-prepare", protocol="pbft")
        m.finish()
        assert len(m.anomalies) == 1
        assert "never entered" in m.anomalies[0].message

    def test_other_protocols_phases_ignored(self):
        m, feed = self.make()
        feed(PHASE, "", "election", protocol="raft")
        m.finish()
        assert m.anomalies == []


class TestComplexityEnvelopeMonitor:
    def make(self, collector, **kwargs):
        m = ComplexityEnvelopeMonitor(
            ("decide",), n=4, exponent=1, factor=16.0, slot_key="seq",
            **kwargs)
        return m, attach(m, collector)

    def test_within_envelope_ok(self):
        collector = FakeCollector()
        m, feed = self.make(collector)
        for seq in range(1, 4):
            collector.messages_total += 20  # 20 msgs/decision < 64
            feed(LOCAL, "a", "decide", seq=seq)
        m.finish()
        assert m.anomalies == []
        assert m.mean_cost() == 20.0

    def test_blowup_trips(self):
        collector = FakeCollector()
        m, feed = self.make(collector)
        collector.messages_total = 500
        feed(LOCAL, "a", "decide", seq=1)
        m.finish()
        assert len(m.anomalies) == 1
        assert "envelope" in m.anomalies[0].message
        assert m.bound == 64.0

    def test_exceptional_phase_taints_window(self):
        collector = FakeCollector()
        m, feed = self.make(collector, exceptional_phases=("view-change",),
                            phase_protocols=("pbft",))
        collector.messages_total = 500  # view-change storm...
        feed(PHASE, "", "view-change", protocol="pbft")
        feed(LOCAL, "a", "decide", seq=1)  # ...window skipped
        collector.messages_total += 20
        feed(LOCAL, "a", "decide", seq=2)
        m.finish()
        assert m.anomalies == []
        assert m.samples == [20]


class TestLivenessWatchdog:
    def test_trips_at_horizon_and_rearms(self):
        m = LivenessWatchdog(("decide",), horizon_events=3)
        feed = attach(m)
        for _ in range(6):
            feed(DELIVER, "a", "noise", peer="b")
        assert len(m.anomalies) == 2  # once per horizon, not per event

    def test_decision_resets_the_clock(self):
        m = LivenessWatchdog(("decide",), horizon_events=3)
        feed = attach(m)
        for _ in range(2):
            feed(DELIVER, "a", "noise", peer="b")
        feed(LOCAL, "a", "decide")
        for _ in range(2):
            feed(DELIVER, "a", "noise", peer="b")
        m.finish()
        assert m.anomalies == []

    def test_no_decision_at_all_reported_at_finish(self):
        m = LivenessWatchdog(("decide",), horizon_events=1000)
        feed = attach(m)
        feed(DELIVER, "a", "noise", peer="b")
        m.finish()
        assert len(m.anomalies) == 1
        assert "no decision at all" in m.anomalies[0].message


class TestHubAndNullTwins:
    def test_kind_indexed_dispatch(self):
        cluster = Cluster(seed=0, trace=True)
        hub = MonitorHub(cluster.tracer, cluster.metrics)
        local_only = AgreementMonitor(("decide",))
        seen = []
        local_only.observe = seen.append  # spy, bound by add()
        hub.add(local_only)
        watchdog = hub.add(LivenessWatchdog(("decide",), horizon_events=10))
        emit(cluster.tracer, DELIVER, "a", "ack", peer="b")
        assert seen == []  # LOCAL-only monitor never saw the deliver
        emit(cluster.tracer, LOCAL, "a", "decide", value="x")
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


class TestNoVacuousMonitor:
    """A monitor the live path never feeds passes every run: each must
    be shown to receive rows in the runs ``repro check`` makes."""

    @pytest.mark.parametrize("protocol", sorted(
        name for name, spec in MONITOR_SPECS.items() if spec.cert))
    def test_certificate_monitor_sees_acks_and_decides(self, protocol,
                                                       monkeypatch):
        scenario = SCENARIOS[protocol]
        need = MONITOR_SPECS[protocol].cert.need(scenario.n, scenario.f)
        monkeypatch.setattr(CertSpec, "need",
                            lambda self, n, f: n + 1)
        report = run_check(protocol, seed=0)
        tripped = [a for a in report["anomalies"]
                   if a["monitor"] == "quorum-certificate"]
        # Decide rows reach it (it trips) and so do ack rows: a decide
        # found as many acks as the protocol's own quorum needs.
        assert tripped, protocol
        assert max(int(a["detail"]["got"]) for a in tripped) >= need

    @pytest.mark.parametrize("protocol", sorted(SCENARIOS))
    def test_every_monitor_observes_a_row(self, protocol, monkeypatch):
        import repro.monitor
        seen = {}
        build = repro.monitor.build_monitors

        def spied(*args, **kwargs):
            battery = build(*args, **kwargs)
            for monitor in battery:
                key = (monitor.name, monitor.group)
                seen[key] = 0
                observe = monitor.observe

                def spy(row, key=key, observe=observe):
                    seen[key] += 1
                    observe(row)
                monitor.observe = spy
            return battery
        monkeypatch.setattr(repro.monitor, "build_monitors", spied)
        # PBFT's primary of view 0 never announces itself: a `lead` row
        # appears only after a view change, which a crash forces.
        faults = "crash" if protocol == "pbft" else None
        report = run_check(protocol, seed=0, faults=faults)
        assert report["ok"]
        assert [key for key, rows in seen.items() if not rows] == []


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
