"""Tests for the ``python -m repro`` command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.analysis import PAPER_TABLE
from repro.scenarios import SCENARIOS


def _list_rows(capsys):
    """``repro list`` parsed into ``{protocol: {column: cell}}``."""
    assert main(["list"]) == 0
    _title, header, _rule, *lines = capsys.readouterr().out.splitlines()
    columns = [cell.strip() for cell in header.split(" | ")]
    rows = [dict(zip(columns, (cell.strip() for cell in line.split(" | "))))
            for line in lines]
    assert len(rows) == len({row["protocol"] for row in rows})
    return {row["protocol"]: row for row in rows}


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paxos" in out and "tendermint" in out

    def test_list_is_one_row_per_paper_table_row(self, capsys):
        rows = _list_rows(capsys)
        assert list(rows) == [claim.protocol for claim in PAPER_TABLE]
        assert "pow" in rows

    @pytest.mark.parametrize("protocol",
                             [claim.protocol for claim in PAPER_TABLE])
    def test_list_agrees_with_check_paper_box(self, protocol, capsys):
        row = _list_rows(capsys)[protocol]
        assert main(["check", protocol, "--seed", "0"]) == 0
        box = re.search(r"paper box:\s+model=(.*) nodes=(.*) phases=(.*) "
                        r"complexity=(.*)", capsys.readouterr().out)
        assert box.groups() == (row["failure_model"], row["nodes"],
                                row["phases"], row["complexity"])

    def test_list_imports_no_protocol_module(self):
        probe = ("import runpy, sys\n"
                 "sys.argv = ['repro', 'list']\n"
                 "try:\n"
                 "    runpy.run_module('repro', run_name='__main__')\n"
                 "except SystemExit as exit:\n"
                 "    assert not exit.code, exit.code\n"
                 "print(sorted(name for name in sys.modules\n"
                 "             if name.startswith('repro.protocols')))\n")
        done = subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                sys.path)})
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("protocol", list(SCENARIOS))
    def test_run_each_protocol(self, protocol, capsys):
        assert main(["run", protocol, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert protocol in out
        assert "measured messages" in out

    def test_run_unknown_protocol(self, capsys):
        assert main(["run", "carrier-pigeon"]) == 1
        assert "unknown" in capsys.readouterr().out

    def test_profile_prints_hot_call_sites(self, capsys):
        assert main(["profile", "paxos", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats table, sorted as promised
        assert "profiled:" in out and "events" in out

    def test_profile_with_telemetry(self, capsys):
        assert main(["profile", "paxos", "--telemetry", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out

    def test_profile_unknown_protocol(self, capsys):
        assert main(["profile", "carrier-pigeon"]) == 1

    def test_kv(self, capsys):
        assert main(["kv", "--protocol", "multi-paxos"]) == 0
        out = capsys.readouterr().out
        assert "consistent: True" in out
        assert "greeting='hello'" in out

    def test_mine(self, capsys):
        assert main(["mine", "--duration", "2000"]) == 0
        out = capsys.readouterr().out
        assert "fork-rate" in out and "m0" in out

    def test_deterministic_across_invocations(self, capsys):
        main(["run", "paxos", "--seed", "7"])
        first = capsys.readouterr().out
        main(["run", "paxos", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_table_works_from_any_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "paxos" in out and "pbft" in out

    def test_experiments_hints_when_artifacts_missing(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["experiments"]) == 1
        out = capsys.readouterr().out
        assert "missing" in out
        assert "test_bench_paxos.py" in out
        assert "pytest benchmarks/" in out

    def test_run_help_mentions_trace(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "trace" in out


class TestTraceCli:
    def test_trace_paxos_renders_message_flow(self, capsys):
        assert main(["trace", "paxos", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        # The paper's figure, reconstructed from the run: all three
        # phases, arrows between columns, and 2f+1 acceptor columns.
        assert "phase: prepare" in out
        assert "phase: accept" in out
        assert "phase: decide" in out
        assert "o---" in out
        assert "a0" in out and "a4" in out
        assert "trace:" in out

    def test_trace_unknown_protocol(self, capsys):
        assert main(["trace", "smoke-signals"]) == 1
        assert "unknown" in capsys.readouterr().out

    def test_trace_jsonl_export(self, tmp_path, capsys):
        import json
        path = tmp_path / "paxos.jsonl"
        assert main(["trace", "paxos", "--jsonl", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) > 0
        first = json.loads(lines[0])
        assert {"seq", "time", "kind", "node", "lamport"} <= set(first)

    def test_trace_same_seed_byte_identical_jsonl(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["trace", "paxos", "--seed", "0",
                         "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_limit_caps_rows(self, capsys):
        assert main(["trace", "paxos", "--limit", "5"]) == 0
        assert "more events not shown" in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", ["pbft", "raft", "hotstuff"])
    def test_trace_other_protocols(self, protocol, capsys):
        assert main(["trace", protocol, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "o---" in out


class TestCheckCli:
    """The ``repro check`` exit-code contract: 0 clean, 1 anomalies,
    2 usage errors."""

    def test_clean_run_exits_zero(self, capsys):
        assert main(["check", "pbft", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "conformance: pbft" in out
        assert "PASS" in out

    def test_injected_fault_exits_one_and_names_the_monitor(self, capsys):
        assert main(["check", "pbft", "--seed", "0",
                     "--faults", "equivocate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "equivocation" in out
        assert "r0" in out  # the offending primary, by name

    def test_json_export(self, tmp_path, capsys):
        import json
        path = tmp_path / "report.json"
        assert main(["check", "raft", "--seed", "0",
                     "--json", str(path)]) == 0
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert report["protocol"] == "raft"
        assert report["ok"] is True

    def test_missing_protocol_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_unknown_protocol_is_usage_error(self, capsys):
        assert main(["check", "smoke-signals"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_unsupported_fault_is_usage_error(self, capsys):
        assert main(["check", "paxos", "--faults", "equivocate"]) == 2
        out = capsys.readouterr().out
        assert "fault" in out

    def test_check_all_covers_the_table(self, capsys):
        assert main(["check", "--all", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for protocol in ("paxos", "pbft", "tendermint", "pow"):
            assert "conformance: %s" % protocol in out
