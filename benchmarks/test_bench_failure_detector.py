"""E20 (extension) — the oracle circumvention of FLP.

The tutorial lists three escapes from FLP: randomization (E14),
synchrony assumptions (every partially-synchronous protocol here), and
"adding oracle (failure detector)".  This bench measures the third:
Chandra–Toueg consensus deciding under asynchrony and coordinator
crashes, liveness degrading — but safety holding — as the oracle gets
worse.
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.faults import FaultPlan
from repro.net import AsynchronousModel
from repro.protocols.chandra_toueg import AlwaysSuspecting, run_chandra_toueg

SEEDS = range(12)


def scenario(label, crash=(), detector_factory=None, horizon=3000.0,
             max_rounds=500, asynchronous=False):
    decided = agree = 0
    rounds = []
    for seed in SEEDS:
        delivery = (AsynchronousModel(mean=1.5, tail_prob=0.1)
                    if asynchronous else None)
        cluster = Cluster(seed=seed, delivery=delivery)
        plan = FaultPlan(cluster)
        for index in crash:
            plan.crash_at(0.0, "ct%d" % index)
        result = run_chandra_toueg(cluster, n=5, f=2,
                                   detector_factory=detector_factory,
                                   horizon=horizon, max_rounds=max_rounds)
        decided += result.all_decided()
        agree += result.agreement()
        live_rounds = [p.decided_round for p in result.processes
                       if p.decided_round is not None]
        if live_rounds:
            rounds.append(max(live_rounds))
    return {
        "oracle / faults": label,
        "runs": len(list(SEEDS)),
        "all decided": decided,
        "agreement held": agree,
        "max rounds": max(rounds) if rounds else None,
    }


def test_failure_detector_consensus(benchmark, report, bench_snapshot):
    def run_all():
        return [
            scenario("healthy heartbeat detector"),
            scenario("2 coordinators crashed", crash=(1, 2)),
            scenario("heavy asynchrony", asynchronous=True),
            scenario("always-wrong oracle",
                     detector_factory=lambda owner: AlwaysSuspecting(),
                     horizon=200.0, max_rounds=30),
        ]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = render_table(
        rows, title="E20 — Chandra-Toueg: consensus from a failure detector"
    )
    report("E20_failure_detector", text)

    healthy, crashed, asynchronous, wrong = rows
    bench_snapshot("E20_failure_detector", protocol="chandra-toueg",
                   runs=healthy["runs"],
                   healthy_decided=healthy["all decided"],
                   crashed_decided=crashed["all decided"],
                   wrong_oracle_decided=wrong["all decided"],
                   agreement_always=all(
                       row["agreement held"] == healthy["runs"]
                       for row in rows))
    runs = healthy["runs"]
    # Liveness with a decent oracle, even under crashes and asynchrony.
    assert healthy["all decided"] == runs
    assert crashed["all decided"] == runs
    assert asynchronous["all decided"] == runs
    # Safety is oracle-independent.
    assert all(row["agreement held"] == runs for row in rows)
    # A hopeless oracle costs liveness (that's the FLP price re-surfacing).
    assert wrong["all decided"] < runs
