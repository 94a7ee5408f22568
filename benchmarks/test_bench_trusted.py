"""E12 — trusted components: MinBFT (2f+1, 2 phases) and CheapBFT
(f+1 active replicas, PANIC switch).

Regenerates the MinBFT agreement figure ("same number of replicas,
communication phases and message complexity as Paxos") and CheapBFT's
CheapTiny/CheapSwitch story: normal-case savings and the switch under
an active-replica crash.
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.faults import FaultPlan
from repro.protocols.cheapbft import run_cheapbft
from repro.protocols.minbft import run_minbft
from repro.protocols.pbft import run_pbft


def protocol_row(name, runner, **kwargs):
    cluster = Cluster(seed=1)
    result = runner(cluster, **kwargs)
    client = result.clients[0]
    phases = len(cluster.metrics.phases_for(name)) or None
    return {
        "protocol": name,
        "replicas": len(result.replicas),
        "active in normal case": kwargs.get("active_count",
                                            len(result.replicas)),
        "messages (3 ops)": cluster.metrics.messages_total,
        "done": client.done,
    }


def switch_row():
    cluster = Cluster(seed=2)
    FaultPlan(cluster).crash_at(3.0, "r1")  # active, not primary
    result = run_cheapbft(cluster, f=1, operations=4)
    live_modes = sorted({r.mode for r in result.replicas if not r.crashed})
    switched_at = min((r.switched_at for r in result.replicas
                       if r.switched_at is not None), default=None)
    return {
        "scenario": "CheapBFT, one active crashes at t=3",
        "panics": result.clients[0].panics_sent,
        "post-switch modes": "/".join(live_modes),
        "switch time": switched_at,
        "all ops done": result.clients[0].done,
        "consistent": result.logs_consistent(),
    }


def test_trusted_components(benchmark, report, bench_snapshot):
    def run_all():
        rows = [
            protocol_row("pbft", lambda c, **kw: run_pbft(
                c, f=1, n_clients=1, operations_per_client=3)),
            protocol_row("minbft", lambda c, **kw: run_minbft(
                c, f=1, operations=3)),
            protocol_row("cheapbft", lambda c, **kw: run_cheapbft(
                c, f=1, operations=3), active_count=2),
        ]
        return rows, switch_row()

    rows, switch = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = render_table(rows, title="E12 — trusted hardware shrinks BFT")
    text += "\n\n" + render_table([switch], title="CheapSwitch under failure")
    report("E12_trusted", text)

    pbft, minbft, cheapbft = rows
    bench_snapshot("E12_trusted", protocol="minbft/cheapbft",
                   pbft_replicas=pbft["replicas"],
                   minbft_replicas=minbft["replicas"],
                   cheapbft_active=cheapbft["active in normal case"],
                   pbft_messages=pbft["messages (3 ops)"],
                   minbft_messages=minbft["messages (3 ops)"],
                   cheapbft_messages=cheapbft["messages (3 ops)"])
    # USIG removes equivocation: 2f+1 instead of 3f+1.
    assert pbft["replicas"] == 4
    assert minbft["replicas"] == 3
    assert cheapbft["replicas"] == 3
    assert cheapbft["active in normal case"] == 2  # f+1
    # Message costs: CheapTiny < MinBFT < PBFT.
    assert cheapbft["messages (3 ops)"] < minbft["messages (3 ops)"] \
        < pbft["messages (3 ops)"]
    # The switch happened, completed the workload, and stayed consistent.
    assert switch["panics"] >= 1
    assert switch["post-switch modes"] == "minbft"
    assert switch["all ops done"] and switch["consistent"]
