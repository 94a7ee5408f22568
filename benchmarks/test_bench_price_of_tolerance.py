"""E21 (extension) — the price of tolerance.

The tutorial's arc is a ladder of fault models: crash (Paxos/Raft) →
Byzantine (PBFT) → Byzantine-with-hardware (MinBFT/CheapBFT) → hybrid
(XFT).  This bench runs the *same* closed-loop workload (one client,
five operations) through every rung and tabulates what each step of
paranoia costs: replicas, messages, latency — the comparison the deck
implies but never prints on one slide.
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.net import SynchronousModel


def _row(name, replicas, messages, latency, failure_model):
    return {
        "protocol": name,
        "fault model": failure_model,
        "replicas (f=1)": replicas,
        "messages (5 ops)": messages,
        "mean latency (delays)": latency,
    }


def measure_all():
    rows = []
    delivery = lambda: SynchronousModel(1.0)

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.multipaxos import run_multipaxos
    result = run_multipaxos(cluster, n_replicas=3, commands_per_client=5)
    latencies = result.clients[0].latencies
    rows.append(_row("multi-paxos", 3, result.messages,
                     sum(latencies) / len(latencies), "crash"))

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.raft import run_raft
    result = run_raft(cluster, n_nodes=3, commands_per_client=5)
    latencies = result.clients[0].latencies
    rows.append(_row("raft", 3, result.messages,
                     sum(latencies) / len(latencies), "crash"))

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.xft import run_xft
    result = run_xft(cluster, f=1, operations=5)
    latencies = result.clients[0].latencies
    rows.append(_row("xft", 3, result.messages,
                     sum(latencies) / len(latencies),
                     "crash + non-crash (no anarchy)"))

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.cheapbft import run_cheapbft
    result = run_cheapbft(cluster, f=1, operations=5)
    rows.append(_row("cheapbft (tiny)", 3, result.messages, None,
                     "hybrid, trusted HW, f+1 active"))

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.minbft import run_minbft
    result = run_minbft(cluster, f=1, operations=5)
    latencies = result.clients[0].latencies
    rows.append(_row("minbft", 3, result.messages,
                     sum(latencies) / len(latencies), "hybrid, trusted HW"))

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.zyzzyva import run_zyzzyva
    result = run_zyzzyva(cluster, f=1, operations=5)
    latencies = result.clients[0].latencies
    rows.append(_row("zyzzyva", 4, result.messages,
                     sum(latencies) / len(latencies),
                     "byzantine (optimistic)"))

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.pbft import run_pbft
    result = run_pbft(cluster, f=1, operations_per_client=5)
    latencies = result.clients[0].latencies
    rows.append(_row("pbft", 4, result.messages,
                     sum(latencies) / len(latencies), "byzantine"))

    cluster = Cluster(seed=1, delivery=delivery())
    from repro.protocols.hotstuff import run_basic_hotstuff
    result = run_basic_hotstuff(cluster, f=1, operations=5)
    latencies = result.clients[0].latencies
    rows.append(_row("hotstuff (basic)", 4, result.messages,
                     sum(latencies) / len(latencies),
                     "byzantine (linear)"))
    return rows


def test_price_of_tolerance(benchmark, report, bench_snapshot):
    rows = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    text = render_table(
        rows,
        title="E21 — the same 5-op workload up the fault-model ladder (f=1)",
    )
    report("E21_price_of_tolerance", text)

    by_name = {row["protocol"]: row for row in rows}
    bench_snapshot("E21_price_of_tolerance", protocol="ladder",
                   ladder={row["protocol"]: {
                       "replicas": row["replicas (f=1)"],
                       "messages": row["messages (5 ops)"],
                   } for row in rows})
    # Replica bills: 2f+1 for crash/hybrid/XFT, 3f+1 for full Byzantine.
    assert by_name["multi-paxos"]["replicas (f=1)"] == 3
    assert by_name["minbft"]["replicas (f=1)"] == 3
    assert by_name["pbft"]["replicas (f=1)"] == 4
    # Message bills climb with paranoia (CheapTiny cheapest, PBFT dearest
    # among the BFTs at this scale).
    assert by_name["cheapbft (tiny)"]["messages (5 ops)"] < \
        by_name["minbft"]["messages (5 ops)"]
    assert by_name["minbft"]["messages (5 ops)"] < \
        by_name["pbft"]["messages (5 ops)"]
    assert by_name["multi-paxos"]["messages (5 ops)"] < \
        by_name["pbft"]["messages (5 ops)"]
    # Latency: speculative Zyzzyva beats PBFT; HotStuff pays its 7 phases.
    assert by_name["zyzzyva"]["mean latency (delays)"] < \
        by_name["pbft"]["mean latency (delays)"]
    assert by_name["hotstuff (basic)"]["mean latency (delays)"] > \
        by_name["pbft"]["mean latency (delays)"]
