"""The scenario table: one row per protocol, consumed by every runner."""

import ast
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.analysis.claims import PAPER_TABLE
from repro.core import Cluster
from repro.monitor import run_check
from repro.scenarios import SCENARIOS


def test_table_is_the_paper_table_plus_the_fleet():
    table = [claim.protocol for claim in PAPER_TABLE]
    assert set(SCENARIOS) == set(table) | {"shards"}
    # Declaration order is the order ``check --all`` walks.
    assert list(SCENARIOS) == table + ["shards"]


@pytest.mark.parametrize("protocol,kind", [
    (name, kind) for name, scenario in SCENARIOS.items()
    for kind in scenario.faults])
def test_every_listed_fault_kind_runs_and_is_echoed(protocol, kind):
    report = run_check(protocol, seed=0, faults=kind)
    assert report["faults"] == kind
    assert report["measured"]["nodes"] == SCENARIOS[protocol].n
    assert report["measured"]["f"] == SCENARIOS[protocol].f


@pytest.mark.parametrize("protocol,kind", [
    (name, kind) for name, scenario in SCENARIOS.items()
    for kind, rows in scenario.faults.items() if isinstance(rows, tuple)])
def test_every_row_of_a_fault_schedule_lands(protocol, kind):
    # A mistyped target raises, and a leader row that finds no leader
    # counts nothing: either way the count falls short of the rows.
    cluster = Cluster(seed=0, telemetry=True)
    SCENARIOS[protocol].run(cluster, kind)
    rows = SCENARIOS[protocol].faults[kind]
    assert cluster.telemetry.total("fault_injections_total") == len(rows)


def test_run_attaches_the_battery_only_to_a_live_hub():
    scenario = SCENARIOS["raft"]
    bare = Cluster(seed=0)
    monitored = Cluster(seed=0, monitors=True)
    assert scenario.run(bare) == scenario.run(monitored)
    assert not bare.monitors.monitors
    assert monitored.monitors.monitors
    # Monitors only observe: same run either way.
    assert bare.metrics.messages_total == monitored.metrics.messages_total


def test_run_names_the_fault_it_injects(capsys):
    assert main(["run", "raft", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "raft (faults crash): 5 commands; logs consistent=True" in out


def test_nothing_under_src_imports_the_cli():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__main__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("__main__" in name for name in names):
                offenders.append("%s:%d" % (path.relative_to(root),
                                            node.lineno))
    assert not offenders


@pytest.mark.parametrize("command", ["trace", "stats", "check", "spans"])
def test_zero_workers_is_a_usage_error_not_a_traceback(command, capsys):
    assert main([command, "shards", "--workers", "0"]) == 2
    captured = capsys.readouterr()
    assert "need at least one worker" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_loadtest_rate_zero_is_rejected_not_defaulted(capsys):
    assert main(["loadtest", "multi-paxos", "--rate", "0"]) == 2
    captured = capsys.readouterr()
    assert "rate must be positive" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_check_all_refuses_a_single_json_path(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["check", "--all", "--json", str(path)]) == 2
    out = capsys.readouterr().out
    assert "--json" in out and "conformance:" not in out  # nothing ran
    assert not path.exists()
