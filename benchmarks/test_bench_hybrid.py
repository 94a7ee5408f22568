"""E13 — hybrid fault models: UpRight's 3m+2c+1, SeeMoRe's three modes,
XFT's anarchy boundary.

Regenerates (a) the UpRight quorum-arithmetic table with a tolerance
sweep, (b) the per-mode SeeMoRe comparison (phases / quorum / message
order), and (c) XFT's safety claim on both sides of the anarchy
predicate.
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.faults import FaultPlan
from repro.protocols.seemore import run_seemore
from repro.protocols.upright import run_upright
from repro.protocols.xft import (
    in_anarchy,
    run_xft,
    run_xft_anarchy,
    run_xft_no_anarchy_control,
)


def upright_rows():
    rows = []
    for m, c, crash, silent, expect_live in (
        (1, 1, (), (), True),
        (1, 1, (5,), (4,), True),      # exactly the budget
        (1, 1, (4, 5), (3,), False),   # one crash over budget
        (0, 1, (), (), True),          # degenerates to Paxos
        (1, 0, (), (), True),          # degenerates to PBFT
    ):
        cluster = Cluster(seed=3)
        FaultPlan(cluster).apply(
            [(0.0, "crash", "r%d" % index) for index in crash]
            + [(0.0, "drop", "r%d" % index) for index in silent])
        result = run_upright(cluster, m=m, c=c, operations=2, horizon=400.0)
        rows.append({
            "m": m, "c": c,
            "n (3m+2c+1)": 3 * m + 2 * c + 1,
            "quorum (2m+c+1)": 2 * m + c + 1,
            "crashed": len(crash), "silent-byz": len(silent),
            "live": result.clients[0].done,
            "safe": result.logs_consistent(),
            "expected live": expect_live,
        })
    return rows


def seemore_rows():
    claims = {1: ("2", "2m+c+1", "O(n)"), 2: ("2", "2m+1", "O(n^2)"),
              3: ("3", "2m+1", "O(n^2)")}
    rows = []
    for mode in (1, 2, 3):
        cluster = Cluster(seed=mode)
        result = run_seemore(cluster, mode=mode, m=1, c=1, operations=3)
        phases = cluster.metrics.phases_for("seemore-%d" % mode)
        rows.append({
            "mode": mode,
            "paper phases": claims[mode][0],
            "measured phases": len(phases),
            "paper quorum": claims[mode][1],
            "quorum size": result.replicas[0]._quorum(),
            "paper msgs": claims[mode][2],
            "messages": result.messages,
            "done": result.clients[0].done,
        })
    return rows


def xft_rows():
    rows = []
    cluster = Cluster(seed=1)
    common = run_xft(cluster, f=1, operations=3)
    rows.append({
        "scenario": "common case (n=2f+1=3)",
        "anarchy": in_anarchy(3, 0, 0, 0),
        "done": common.clients[0].done,
        "safe": common.logs_consistent(),
        "messages": common.messages,
    })
    anarchy = run_xft_anarchy(Cluster(seed=3))
    rows.append({
        "scenario": "byzantine leader + partition (c=0,m=1,p=1)",
        "anarchy": in_anarchy(3, 0, 1, 1),
        "done": None,
        "safe": anarchy.logs_consistent(),
        "messages": anarchy.messages,
    })
    control = run_xft_no_anarchy_control(Cluster(seed=3))
    rows.append({
        "scenario": "byzantine leader, no partition (c=0,m=1,p=0)",
        "anarchy": in_anarchy(3, 0, 1, 0),
        "done": None,
        "safe": control.logs_consistent(),
        "messages": control.messages,
    })
    return rows


def test_hybrid_models(benchmark, report, bench_snapshot):
    def run_all():
        return upright_rows(), seemore_rows(), xft_rows()

    upright, seemore, xft = benchmark.pedantic(run_all, rounds=1,
                                               iterations=1)
    text = render_table(upright, title="E13a — UpRight (m, c) tolerance sweep")
    text += "\n\n" + render_table(seemore, title="E13b — SeeMoRe's three modes")
    text += "\n\n" + render_table(xft, title="E13c — XFT anarchy boundary")
    report("E13_hybrid", text)
    bench_snapshot("E13_hybrid", protocol="upright/seemore/xft",
                   upright_n=upright[0]["n (3m+2c+1)"],
                   upright_quorum=upright[0]["quorum (2m+c+1)"],
                   seemore_mode1_messages=seemore[0]["messages"],
                   seemore_mode3_messages=seemore[2]["messages"],
                   xft_safe_outside_anarchy=all(
                       row["safe"] == (not row["anarchy"]) for row in xft))

    for row in upright:
        assert row["live"] == row["expected live"]
        assert row["safe"]
    # SeeMoRe: mode 1 two phases/large quorum/linear; mode 3 three phases.
    assert seemore[0]["measured phases"] == 2
    assert seemore[2]["measured phases"] == 3
    assert seemore[0]["quorum size"] == 4 and seemore[1]["quorum size"] == 3
    assert seemore[0]["messages"] < seemore[1]["messages"] \
        < seemore[2]["messages"]
    # XFT: safe exactly when not in anarchy.
    for row in xft:
        assert row["safe"] == (not row["anarchy"])
