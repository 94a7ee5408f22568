"""Self-check of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q

Runs the whole benchmark twice at smoke size and checks the harness
against its own contract: the names it prints are the names
``BENCHMARK.json`` declares, virtual-time metrics repeat exactly, the
traced pass attributes its time and writes its span files, and a failed
correctness check fails the command.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?\d+\.\d+) (\S+)$")


def parse(stdout):
    """``{workload: {metric: (value, unit)}}`` from the printed tables."""
    tables, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = tables.setdefault(line.split()[1], {})
        match = METRIC_LINE.match(line)
        if match and current is not None:
            current[match.group(1)] = (float(match.group(2)), match.group(3))
    return tables


@pytest.fixture(scope="module")
def smoke_runs():
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        done = subprocess.run(RUN + ["--smoke"], stdout=subprocess.PIPE,
                              text=True, check=True)
        runs.append((parse(done.stdout), time.perf_counter() - start))
    return runs


def test_smoke_is_quick(smoke_runs):
    assert all(elapsed < 30.0 for _tables, elapsed in smoke_runs)


def test_names_match_benchmark_json(smoke_runs):
    declared = {m["name"]: m["unit"]
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in declared)
    tables, _elapsed = smoke_runs[0]
    assert set(tables) == {w["name"] for w in SPEC["workloads"]}
    for workload, metrics in tables.items():
        assert set(metrics) == set(declared), workload
        for name, (_value, unit) in metrics.items():
            assert unit == declared[name], (workload, name)


def test_virtual_time_metrics_repeat_exactly(smoke_runs):
    first, second = smoke_runs[0][0], smoke_runs[1][0]
    exact = ("vt_p50", "vt_p99", "vt_goodput_share", "msgs_per_commit",
             "failed_share", "sim.events", "net.sends", "core.delivers")
    for workload in first:
        for name in exact:
            assert first[workload][name] == second[workload][name], \
                (workload, name)


def test_traced_pass_attributes_its_time(smoke_runs):
    tables, _elapsed = smoke_runs[0]
    for workload, metrics in tables.items():
        layers = sum(value for name, (value, _unit) in metrics.items()
                     if name.endswith(".self_s"))
        share = metrics["bench.unattributed_share"][0]
        traced = metrics["bench.traced_wall_s"][0]
        assert layers + share * traced == pytest.approx(traced, rel=0.02)
        assert metrics["bench.trace_overhead_x"][0] > 1.0


def test_span_file_per_workload(smoke_runs):
    for workload in smoke_runs[0][0]:
        path = HERE / "out" / ("%s.spans.jsonl" % workload)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            span = json.loads(handle.readline())
        assert header["workload"] == workload
        assert len(span) == len(header["columns"])


def test_driver_line(tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "bft-closed", "--seed", "4", "--scale", "0.05",
               "--seconds", "0", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=tmp_path)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_digest_mismatch_fails_the_command(monkeypatch):
    from benchmarks.e2e import run, workloads
    real = workloads.BY_NAME["paxos-steady"]
    calls = []

    def unsteady(seed, scale, traced):
        outcome = real.run(seed, scale, traced)
        calls.append(None)
        outcome.report["repeat"] = len(calls)
        return outcome

    monkeypatch.setitem(workloads.BY_NAME, "paxos-steady",
                        workloads.Workload("paxos-steady", unsteady,
                                           real.setup_end))
    assert run.main(["--workload", "paxos-steady", "--smoke",
                     "--trace", "0"]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "paxos-steady", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith(b"}")
