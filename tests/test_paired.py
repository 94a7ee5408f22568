"""``benchmarks/paired.py``: the verdict it prints per end-to-end
metric, and the command's workload blocks and exit status (with
``run_once`` stubbed, so nothing is run)."""

import json
import pathlib
import re

import pytest

from benchmarks import paired
from benchmarks.paired import verdict, wins

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


def test_a_change_better_in_every_pair_by_more_than_the_spread_gains():
    change = [value * 0.7 for value in PARENT]
    assert wins(PARENT, change, "lower") == 10
    assert verdict(PARENT, change, "lower", 0.25) == "gain"
    assert verdict(change, PARENT, "higher", 0.25) == "gain"


def test_nine_wins_in_ten_still_gain_but_eight_do_not():
    nine = [value * 0.7 for value in PARENT[:9]] + [PARENT[9] * 1.1]
    assert verdict(PARENT, nine, "lower", 0.25) == "gain"
    eight = nine[:8] + [PARENT[8] * 1.1, PARENT[9] * 1.1]
    assert wins(PARENT, eight, "lower") == 8
    assert verdict(PARENT, eight, "lower", 0.25) == "same"


def test_a_gap_inside_the_parent_spread_is_no_gain():
    # Every pair won, by less than the parent's quartile spread.
    change = [value - 0.005 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == "same"


def test_identical_runs_are_the_same():
    assert verdict([5.0] * 10, [5.0] * 10, "lower", 0.1) == "same"
    assert verdict([0.0] * 10, [0.0] * 10, "higher", 0.25) == "same"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    change = [value * 1.3 for value in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == "worse"
    assert verdict(PARENT, change, "lower", 0.5) == "same"
    assert verdict(PARENT, [value * 0.7 for value in PARENT],
                   "higher", 0.25) == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, [1.4] * 10, "lower", 0.25) == "unresolved"
    # ...unless every change run beats every parent run.
    assert verdict(noisy, [0.95] * 10, "lower", 0.25) == "same"


# -- the command: several workloads, one block each, exit 1 on regression ----

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def stub_runs(monkeypatch, slower=(), digest_of=lambda side: "d0"):
    """Replace ``run_once``: every metric reads about 1.0 (a small
    jitter inside every bound), ``wall_s`` 1.5x on the change side of
    the workloads in ``slower``; returns the ``(side, workload)`` calls
    made."""
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = "change" if checkout == str(ROOT) else checkout
        calls.append((side, workload))
        value = 1.0 + 0.001 * (len(calls) % 3)
        metrics = {metric["name"]: value for metric in SPEC["end_to_end"]}
        if side == "change" and workload in slower:
            metrics["wall_s"] *= 1.5
        return metrics, digest_of(side)
    monkeypatch.setattr(paired, "run_once", run_once)
    return calls


def run_main(workloads, pairs=2):
    return paired.main(["parent", str(ROOT), "--workload", workloads,
                        "--pairs", str(pairs)])


def test_a_comma_list_runs_each_workload_in_its_own_block(monkeypatch,
                                                          capsys):
    calls = stub_runs(monkeypatch)
    assert run_main("fleet-observed,paxos-steady") == 0
    out = capsys.readouterr().out
    assert calls == [
        ("change", "fleet-observed"), ("parent", "fleet-observed"),
        ("parent", "fleet-observed"), ("change", "fleet-observed"),
        ("change", "paxos-steady"), ("parent", "paxos-steady"),
        ("parent", "paxos-steady"), ("change", "paxos-steady")]
    blocks = [line for line in out.splitlines()
              if line.endswith("2 pairs; median [q1, q3]")]
    assert blocks == ["fleet-observed seed 0, 2 pairs; median [q1, q3]",
                      "paxos-steady seed 0, 2 pairs; median [q1, q3]"]
    assert out.count("vt_digest identical on every run") == 2
    assert "worse" not in out


def test_all_runs_every_benchmark_workload_in_order(monkeypatch, capsys):
    calls = stub_runs(monkeypatch)
    assert run_main("all", pairs=1) == 0
    assert [workload for _checkout, workload in calls][::2] == WORKLOADS


def test_a_worse_metric_on_any_workload_exits_one(monkeypatch, capsys):
    stub_runs(monkeypatch, slower=("paxos-steady",))
    assert run_main("fleet-observed,paxos-steady", pairs=10) == 1
    out = capsys.readouterr().out
    block = out[out.index("paxos-steady seed 0"):]
    assert re.search(r"wall_s .* worse", block)
    assert "worse" not in out[:out.index("paxos-steady seed 0")]


def test_differing_digests_exit_one(monkeypatch, capsys):
    stub_runs(monkeypatch, digest_of=lambda side: side)
    assert run_main("fleet-observed") == 1
    assert "vt_digest DIFFERS" in capsys.readouterr().out


def test_an_unknown_workload_is_a_usage_error(monkeypatch, capsys):
    calls = stub_runs(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        run_main("fleet-observed,nope")
    assert exit_info.value.code == 2 and not calls
    assert "nope" in capsys.readouterr().err
