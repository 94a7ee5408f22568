"""End-to-end conformance checking: run, monitor, cross-check, report.

``run_check(protocol, seed, faults)`` drives one monitored run of the
protocol (a small fixed scenario per table row), lets the monitor
battery watch it online, then assembles a *conformance report* that
cross-checks the measured run against the paper's claimed property box
(failure model, cluster size, phases, message complexity) and lists any
anomalies with their causal context.

Reports serialize exactly like telemetry run reports — sorted keys,
compact separators, trailing newline — so a same-seed check is
byte-identical and golden-testable.  The ``repro check`` CLI prints the
ASCII rendering and exits 0 (clean), 1 (anomalies), or 2 (usage).
"""

from ..core.cluster import Cluster
from ..scenarios import SCENARIOS
# One canonical serialization for every report kind; re-exported here.
from ..telemetry.report import report_to_json, write_report  # noqa: F401

#: Schema tag for the JSON conformance report.
SCHEMA = "repro.monitor.conformance/1"


def check_protocols():
    """Paper-table protocols ``run_check`` can drive, in table order
    (fleet compositions such as ``shards`` are checkable too, but have
    no table row)."""
    return [name for name, scenario in SCENARIOS.items()
            if scenario.fleet_claim is None]


def run_check(protocol, seed=0, faults=None):
    """One monitored conformance run; returns the report dict.

    Raises ``KeyError`` for an unknown protocol and ``ValueError`` for a
    fault kind the protocol's scenario does not list.
    """
    scenario = SCENARIOS[protocol]
    cluster = Cluster(seed=seed, monitors=True)
    summary = scenario.run(cluster, faults)
    cluster.monitors.finish()
    measured = {
        "nodes": scenario.n,
        "f": scenario.f,
        "messages_total": cluster.metrics.messages_total,
        "events": len(cluster.trace),
        "virtual_time": cluster.now,
    }
    return _build_report(protocol, seed, faults, summary, measured,
                         [monitor_data(monitor)
                          for monitor in cluster.monitors.monitors])


def monitor_data(monitor):
    """Everything a report needs from one finished monitor, as plain
    picklable data — also what a fleet worker ships to the merge."""
    data = {
        "name": monitor.name,
        "category": monitor.category,
        "group": monitor.group,
        "anomalies": [anomaly.to_dict() for anomaly in monitor.anomalies],
        "decisions": getattr(monitor, "decisions", None),
    }
    if monitor.name == "phase-conformance":
        data["phases"] = monitor.observed_phases()
    elif monitor.name == "complexity-envelope":
        data["mean_cost"] = monitor.mean_cost()
        data["bound"] = monitor.bound
    return data


def _named(monitors, name):
    return [data for data in monitors if data["name"] == name]


def _monitor_entry(data):
    return {
        "monitor": data["name"],
        "category": data["category"],
        "status": "tripped" if data["anomalies"] else "ok",
        "anomalies": len(data["anomalies"]),
    }


def _group_sections(monitors):
    """Per-group report sections for a fleet check: each scoped group's
    monitor battery, decision count and anomaly tally, sorted by group
    id.  Empty for single-protocol checks (no scoped monitors)."""
    by_group = {}
    for data in monitors:
        if data["group"] is not None:
            by_group.setdefault(data["group"], []).append(data)
    sections = []
    for gid in sorted(by_group):
        battery = sorted(by_group[gid], key=lambda data: data["name"])
        tally = sum(len(data["anomalies"]) for data in battery)
        section = {
            "group": gid,
            "monitors": [_monitor_entry(data) for data in battery],
            "anomalies": tally,
            "ok": not tally,
        }
        for data in _named(battery, "agreement"):
            section["decisions"] = data["decisions"]
        sections.append(section)
    return sections


def _build_report(protocol, seed, faults, summary, measured, monitors):
    """Assemble the report from plain data: ``measured`` holds the run's
    headline numbers (nodes, f, messages_total, events, virtual_time)
    and ``monitors`` one :func:`monitor_data` dict per monitor, in hub
    order — from a live hub or shipped by fleet workers alike."""
    measured = dict(measured,
                    virtual_time=round(float(measured["virtual_time"]), 9))
    agreement = _named(monitors, "agreement")
    if agreement:
        # Fleet checks carry one scoped agreement monitor per group;
        # the headline count is the fleet-wide total.
        measured["decisions"] = sum(data["decisions"] for data in agreement)
    phase = _named(monitors, "phase-conformance")
    if phase:
        measured["phases"] = phase[0]["phases"]
    envelope = _named(monitors, "complexity-envelope")
    if envelope:
        mean = envelope[0]["mean_cost"]
        measured["messages_per_decision"] = \
            None if mean is None else round(mean, 3)
        measured["complexity_bound"] = round(envelope[0]["bound"], 3)
    entries = []
    for data in sorted(monitors,
                       key=lambda data: (data["name"], data["group"] or "")):
        entry = _monitor_entry(data)
        if data["group"] is not None:
            # Only scoped (fleet) monitors grow the key — single-protocol
            # reports stay byte-identical to their goldens.
            entry["group"] = data["group"]
        entries.append(entry)
    anomalies = [anomaly for data in monitors
                 for anomaly in data["anomalies"]]
    # The hub's order: by offending trace event, end-of-run findings
    # (seq -1) last.
    anomalies.sort(key=lambda a: (a["seq"] if a["seq"] >= 0 else 1 << 60,
                                  a["monitor"], a["message"]))
    claim = SCENARIOS[protocol].claim()
    report = {
        "schema": SCHEMA,
        "protocol": protocol,
        "seed": seed,
        "faults": faults or "none",
        "summary": summary,
        "claim": {
            "failure_model": claim.failure_model,
            "nodes": claim.nodes,
            "phases": claim.phases,
            "complexity": claim.complexity,
        },
        "measured": measured,
        "monitors": entries,
        "anomalies": anomalies,
        "ok": not anomalies,
    }
    groups = _group_sections(monitors)
    if groups:
        # Only fleet checks grow the key, so single-protocol reports
        # (and their goldens) stay byte-identical.
        report["groups"] = groups
    return report


def render_report(report):
    """Human-oriented ASCII rendering of a conformance report."""
    lines = []
    lines.append("conformance: %s (seed %d, faults %s)"
                 % (report["protocol"], report["seed"], report["faults"]))
    claim = report["claim"]
    lines.append("  paper box:  model=%s nodes=%s phases=%s complexity=%s"
                 % (claim["failure_model"], claim["nodes"],
                    claim["phases"], claim["complexity"]))
    measured = report["measured"]
    core = "n=%d f=%d msgs=%d events=%d vtime=%.1f" % (
        measured["nodes"], measured["f"], measured["messages_total"],
        measured["events"], measured["virtual_time"])
    if "decisions" in measured:
        core += " decisions=%d" % measured["decisions"]
    lines.append("  measured:   %s" % core)
    if measured.get("phases"):
        lines.append("  phases:     %s" % ", ".join(measured["phases"]))
    if measured.get("messages_per_decision") is not None:
        lines.append("  complexity: %.1f msgs/decision (envelope %.1f)"
                     % (measured["messages_per_decision"],
                        measured["complexity_bound"]))
    lines.append("  summary:    %s" % report["summary"])
    if report.get("groups"):
        # Fleet check: one section per consensus group, so a tripped
        # monitor is attributed to its shard at a glance.
        for section in report["groups"]:
            verdict = "ok" if section["ok"] else \
                "%d anomaly(ies)" % section["anomalies"]
            head = "  group %-5s %s" % (section["group"], verdict)
            if "decisions" in section:
                head += ", %d decision(s)" % section["decisions"]
            lines.append(head)
            for entry in section["monitors"]:
                lines.append("    %-8s %s (%s)" % (entry["status"],
                                                   entry["monitor"],
                                                   entry["category"]))
    elif report["monitors"]:
        lines.append("  monitors:")
        for entry in report["monitors"]:
            lines.append("    %-8s %s (%s)" % (entry["status"],
                                               entry["monitor"],
                                               entry["category"]))
    else:
        lines.append("  monitors:   none applicable")
    if report["anomalies"]:
        lines.append("  anomalies:")
        for anomaly in report["anomalies"]:
            lines.append("    - [%s/%s] %s" % (anomaly["category"],
                                               anomaly["monitor"],
                                               anomaly["message"]))
            for context_line in anomaly["context"]:
                lines.append("        %s" % context_line)
    lines.append("  verdict:    %s"
                 % ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)
