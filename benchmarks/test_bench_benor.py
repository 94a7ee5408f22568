"""E14 — circumventing FLP by sacrificing determinism.

Regenerates the claim behind "Randomized Byzantine consensus algorithm":
Ben-Or terminates with probability 1 under adversarial asynchrony where
FLP forbids any deterministic solution — measured as the rounds-to-decide
distribution across seeds, with agreement never violated.
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.faults import FaultPlan
from repro.net import AsynchronousModel
from repro.protocols.benor import run_benor

SEEDS = range(30)


def distribution(initial_values, crash, label):
    rounds = []
    for seed in SEEDS:
        cluster = Cluster(
            seed=seed,
            delivery=AsynchronousModel(mean=1.0, tail_prob=0.1,
                                       tail_factor=25.0),
        )
        plan = FaultPlan(cluster)
        for index in crash:
            plan.crash_at(0.0, "p%d" % index)
        result = run_benor(cluster, n=5, f=1, initial_values=initial_values)
        assert result.agreement(), seed
        assert result.all_decided(), seed
        rounds.append(result.max_round())
    rounds.sort()
    return {
        "workload": label,
        "runs": len(rounds),
        "decided": len(rounds),
        "min rounds": rounds[0],
        "median rounds": rounds[len(rounds) // 2],
        "max rounds": rounds[-1],
    }


def test_benor(benchmark, report, bench_snapshot):
    def run_all():
        return [
            distribution([1] * 5, (), "unanimous inputs"),
            distribution([0, 1, 0, 1, 0], (), "split inputs"),
            distribution([0, 1, 0, 1, 1], (4,), "split inputs + 1 crash"),
        ]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = render_table(
        rows,
        title="E14 — Ben-Or rounds-to-decide under adversarial asynchrony",
    )
    report("E14_benor", text)

    unanimous, split, crashed = rows
    bench_snapshot("E14_benor", protocol="benor",
                   runs=unanimous["runs"],
                   unanimous_max_rounds=unanimous["max rounds"],
                   split_median_rounds=split["median rounds"],
                   crashed_max_rounds=crashed["max rounds"],
                   all_decided=all(
                       row["decided"] == row["runs"] for row in rows))
    # Every run decided (termination w.p. 1 — empirically, all 30 seeds).
    assert all(row["decided"] == row["runs"] for row in rows)
    # Unanimous inputs decide in round 1; splits need the coin.
    assert unanimous["max rounds"] == 1
    assert split["max rounds"] >= 2
    assert crashed["max rounds"] < 50
