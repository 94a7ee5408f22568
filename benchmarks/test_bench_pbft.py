"""E9 — PBFT: 3 phases, 3f+1 nodes, O(N²) agreement, O(N³) view change.

Regenerates the PBFT figure and its complexity box: per-phase message
counts across cluster sizes (quadratic fit), and view-change traffic
whose *bytes* grow another factor of N (each message carries O(N)
prepared certificates).
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.faults import FaultPlan
from repro.metrics import classify_order, fit_order
from repro.protocols.pbft import run_pbft


def agreement_row(f):
    cluster = Cluster(seed=1)
    run_pbft(cluster, f=f, n_clients=1, operations_per_client=2)
    by_type = cluster.metrics.by_type
    return {
        "f": f,
        "n (3f+1)": 3 * f + 1,
        "quorum (2f+1)": 2 * f + 1,
        "pre-prepare": by_type["preprepare"],
        "prepare": by_type["pbftprepare"],
        "commit": by_type["pbftcommit"],
        "agreement msgs": by_type["preprepare"] + by_type["pbftprepare"]
        + by_type["pbftcommit"],
    }


def view_change_row(f):
    cluster = Cluster(seed=2)
    FaultPlan(cluster).crash_at(3.0, "r0")
    run_pbft(cluster, f=f, n_clients=1, operations_per_client=2)
    vc_msgs = cluster.metrics.by_type["viewchange"] + \
        cluster.metrics.by_type["newview"]
    return {"f": f, "n": 3 * f + 1, "view-change msgs": vc_msgs}


def test_pbft(benchmark, report, bench_snapshot):
    def run_all():
        return ([agreement_row(f) for f in (1, 2, 3)],
                [view_change_row(f) for f in (1, 2, 3)])

    agreement, view_change = benchmark.pedantic(run_all, rounds=1,
                                                iterations=1)
    samples = [(row["n (3f+1)"], row["agreement msgs"]) for row in agreement]
    exponent = fit_order(samples)
    vc_samples = [(row["n"], row["view-change msgs"]) for row in view_change]
    vc_exponent = fit_order(vc_samples)

    text = render_table(agreement, title="E9 — PBFT agreement traffic")
    text += "\nfitted agreement complexity: %s (exponent %.2f; paper: O(N^2))" \
        % (classify_order(exponent), exponent)
    text += "\n\n" + render_table(view_change, title="view-change traffic")
    text += "\nfitted view-change message complexity: %.2f " \
            "(paper: O(N^3) in bits — each of O(N^2) messages carries " \
            "O(N) certificates)" % vc_exponent
    report("E9_pbft", text)
    bench_snapshot("E9_pbft", protocol="pbft", phases=3,
                   agreement_messages_f1=agreement[0]["agreement msgs"],
                   fitted_exponent=round(exponent, 4),
                   view_change_exponent=round(vc_exponent, 4))

    # Quadratic agreement.
    assert classify_order(exponent) == "O(N^2)"
    # Three phases visible in message types.
    for row in agreement:
        assert row["pre-prepare"] > 0 and row["prepare"] > 0 and row["commit"] > 0
        assert row["n (3f+1)"] == 3 * row["f"] + 1
    # View change at least quadratic in message count.
    assert vc_exponent > 1.5
