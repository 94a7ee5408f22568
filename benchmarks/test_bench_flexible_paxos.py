"""E6 — Flexible Paxos: quorum intersection revisited.

Regenerates the claim table: only Q1×Q2 intersection is needed, so
replication quorums shrink (counting and grid constructions), the
algorithm is unchanged, and without the intersection condition safety
actually breaks (the negative construction).
"""

from repro.analysis import render_table
from repro.core import Cluster, CountingQuorum, GridQuorum
from repro.protocols.flexible_paxos import (
    demonstrate_unsafe_quorums,
    run_flexible_paxos,
    run_grid_paxos,
)


def quorum_rows():
    n = 12
    members = ["a%d" % i for i in range(n)]
    majority = CountingQuorum.tolerating(members)
    flexible = CountingQuorum(members, 10, 3)
    grid = GridQuorum(4, 3)
    rows = []
    for label, system, q1, q2 in (
        ("majority (classic Paxos)", majority,
         majority.phase1_size(), majority.phase2_size()),
        ("flexible |Q1|=10,|Q2|=3", flexible, 10, 3),
        ("grid 4x3 (col/row)", grid, grid.phase1_size(), grid.phase2_size()),
    ):
        rows.append({
            "quorum system": label,
            "n": system.n,
            "phase-1 quorum": q1,
            "phase-2 quorum": q2,
            "replication crash budget": system.n - q2,
            "Q1 x Q2 intersect": system.intersection_guaranteed(),
        })
    return rows


def end_to_end_rows():
    rows = []
    cluster = Cluster(seed=1)
    result = run_flexible_paxos(cluster, n_acceptors=6, q1=5, q2=2,
                                proposals=("X",))
    rows.append({"run": "flexible q1=5 q2=2 on n=6",
                 "decided": result.value, "messages": result.messages})
    cluster = Cluster(seed=2)
    outcome = run_grid_paxos(cluster, rows=3, cols=4, proposals=("Y",))
    rows.append({"run": "grid 3x4", "decided": outcome.result.value,
                 "messages": outcome.result.messages})
    chosen = demonstrate_unsafe_quorums(Cluster(seed=3))
    rows.append({"run": "NON-intersecting quorums (negative control)",
                 "decided": "/".join(sorted(chosen)),
                 "messages": None})
    return rows


def test_flexible_paxos(benchmark, report, bench_snapshot):
    rows, runs = benchmark.pedantic(
        lambda: (quorum_rows(), end_to_end_rows()), rounds=1, iterations=1
    )
    text = render_table(rows, title="E6 — generalized quorum condition")
    text += "\n\n" + render_table(runs, title="end-to-end runs")
    report("E6_flexible_paxos", text)

    majority, flexible, grid = rows
    bench_snapshot("E6_flexible_paxos", protocol="flexible-paxos",
                   majority_phase2=majority["phase-2 quorum"],
                   flexible_phase2=flexible["phase-2 quorum"],
                   grid_phase2=grid["phase-2 quorum"],
                   flexible_crash_budget=flexible["replication crash budget"],
                   unsafe_decides_two=runs[-1]["decided"] == "A/B")
    # Replication quorums shrink below the majority while intersection holds.
    assert flexible["phase-2 quorum"] < majority["phase-2 quorum"]
    assert grid["phase-2 quorum"] < majority["phase-2 quorum"]
    assert all(r["Q1 x Q2 intersect"] for r in rows)
    # The crash budget for replication grows accordingly.
    assert flexible["replication crash budget"] > \
        majority["replication crash budget"]
    # Negative control: two values decided once intersection is dropped.
    assert runs[-1]["decided"] == "A/B"
