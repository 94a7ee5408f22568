"""E4 — Multi-Paxos's optimisation: phase 1 only on leader change.

Regenerates the 'normal mode vs recovery mode' claim: the steady-state
per-command message cost of Multi-Paxos against the cost of running a
full Basic-Paxos instance per command.
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.protocols.multipaxos import run_multipaxos
from repro.protocols.paxos import run_basic_paxos


def multi_paxos_costs(commands):
    cluster = Cluster(seed=2)
    run_multipaxos(cluster, n_replicas=3, n_clients=1,
                   commands_per_client=commands)
    by_type = cluster.metrics.by_type
    prepares = by_type["mpprepare"] + by_type["mpprepareack"]
    per_command = by_type["mpaccept"] + by_type["mpaccepted"]
    return {
        "protocol": "multi-paxos",
        "commands": commands,
        "phase-1 msgs (total)": prepares,
        "phase-2 msgs (total)": per_command,
        "phase-2 msgs / command": per_command / commands,
        "phase-1 msgs / command": prepares / commands,
    }


def basic_paxos_costs(commands):
    total_phase1 = total_phase2 = 0
    for i in range(commands):
        cluster = Cluster(seed=100 + i)
        run_basic_paxos(cluster, n_acceptors=3, proposals=("cmd-%d" % i,))
        by_type = cluster.metrics.by_type
        total_phase1 += by_type["prepare"] + by_type["prepareack"]
        total_phase2 += by_type["accept"] + by_type["acceptedmsg"]
    return {
        "protocol": "basic-paxos (1 instance/command)",
        "commands": commands,
        "phase-1 msgs (total)": total_phase1,
        "phase-2 msgs (total)": total_phase2,
        "phase-2 msgs / command": total_phase2 / commands,
        "phase-1 msgs / command": total_phase1 / commands,
    }


def test_phase1_amortisation(benchmark, report, bench_snapshot):
    commands = 20
    rows = benchmark.pedantic(
        lambda: [basic_paxos_costs(commands), multi_paxos_costs(commands)],
        rounds=1, iterations=1,
    )
    text = render_table(
        rows, title="E4 — phase 1 runs only on leader change (20 commands, n=3)"
    )
    report("E4_multipaxos", text)
    bench_snapshot("E4_multipaxos", protocol="multi-paxos",
                   phase1_per_command=rows[1]["phase-1 msgs / command"],
                   phase2_per_command=rows[1]["phase-2 msgs / command"],
                   basic_phase1_per_command=rows[0]["phase-1 msgs / command"])

    basic, multi = rows
    # Basic Paxos pays phase 1 for every command; Multi-Paxos pays it once.
    assert basic["phase-1 msgs / command"] >= 2.0
    assert multi["phase-1 msgs / command"] < 0.5
    # Steady-state phase-2 cost per command is comparable.
    assert multi["phase-2 msgs / command"] <= basic["phase-2 msgs / command"] + 3
