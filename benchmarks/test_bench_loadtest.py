"""E28 — saturation knees: offered load vs tail latency per protocol.

The paper's complexity table (O(n) leader-based vs O(n²) all-to-all
BFT) made empirical: the open-loop load engine sweeps offered load
against each protocol over finite-ingress replicas
(:class:`~repro.net.delivery.QueuedDelayModel`) and finds the
saturation knee — the highest rate absorbed before goodput collapses
or p99 blows past 3x the light-load baseline.  Latency is measured
from *intended* arrival time (coordinated-omission-safe), so a
saturated protocol cannot hide its queueing delay behind a slow
client.

Headline claims, asserted every run:

* every swept protocol exhibits a knee (the sweep reaches saturation);
* PBFT's knee sits strictly below the leader-based knees — per-request
  message complexity *is* the capacity difference;
* conformance monitors stay green at a load below each knee.

Knee positions and p99 values are virtual-time-derived and thus
machine-independent, so they are exact for the seed and are all that
``BENCH_consensus.json`` records; nothing here is timed.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode.
"""

import os

from repro.analysis import render_table
from repro.load import LoadSpec, run_loadtest, run_sweep

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SEED = 0
DURATION = 60.0 if QUICK else 150.0
SLO = 30.0

#: Swept offered loads per protocol.  One request at a time, a leader
#: ingests ~3 messages per request, so it would saturate near
#: 1/(3·service) requests per unit; past its window it batches, one
#: replication message and one ack per follower carrying many
#: requests, so it approaches 1/service, where client requests alone
#: fill its ingress.  PBFT's all-to-all phases ingest ~3n per replica,
#: pushing its knee an order of magnitude lower.
if QUICK:
    SWEEPS = [
        ("multi-paxos", (1.0, 6.0, 12.0, 24.0)),
        ("raft", (1.0, 6.0, 12.0, 24.0)),
        ("pbft", (0.25, 1.0, 2.0)),
    ]
else:
    SWEEPS = [
        ("multi-paxos", (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0,
                         24.0)),
        ("raft", (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0)),
        ("pbft", (0.25, 0.5, 1.0, 1.5, 2.0)),
    ]

#: Protocols double-checked under full conformance monitors at a rate
#: below their knee (quick mode keeps one to bound CI time).
MONITORED = ("multi-paxos",) if QUICK else ("multi-paxos", "pbft")


def _sweep(protocol, rates):
    spec = LoadSpec(protocol=protocol, duration=DURATION, seed=SEED,
                    slo=SLO)
    result = run_sweep(spec, rates)
    return result, [p for p in result["points"] if p]


def test_load_knees(benchmark, report, bench_snapshot):
    def run_all():
        rows = []
        snapshot = {}
        knees = {}
        for protocol, rates in SWEEPS:
            result, points = _sweep(protocol, rates)
            knee = result["knee"]
            knees[protocol] = knee
            at_knee = next((p for p in points if p["rate"] == knee), None)
            last = points[-1]
            rows.append({
                "protocol": protocol,
                "knee rate": knee,
                "p99 @knee": at_knee["p99"] if at_knee else None,
                "p99 @max": last["p99"],
                "goodput @max": last["goodput_rate"],
                "abandoned @max": last["abandoned"],
            })
            key = protocol.replace("-", "")
            snapshot["%s_knee_rate" % key] = knee
            snapshot["%s_p99_at_knee" % key] = \
                at_knee["p99"] if at_knee else None
            snapshot["%s_p99_at_max" % key] = last["p99"]
        monitor_rows = []
        for protocol in MONITORED:
            knee = knees[protocol]
            rate = max(knee / 2.0, 0.25) if knee else 0.25
            point = run_loadtest(LoadSpec(
                protocol=protocol, rate=rate, duration=DURATION,
                seed=SEED, slo=None, monitors=True))
            monitor_rows.append({
                "protocol": protocol,
                "rate": round(rate, 2),
                "monitors": point["monitors"]["monitors"],
                "anomalies": point["monitors"]["anomalies"],
            })
            key = protocol.replace("-", "")
            snapshot["%s_subknee_anomalies" % key] = \
                point["monitors"]["anomalies"]
        return rows, monitor_rows, snapshot, knees

    rows, monitor_rows, snapshot, knees = benchmark.pedantic(
        run_all, rounds=1, iterations=1)

    text = render_table(
        rows, title="E28 — saturation knees (p99 vs offered load)")
    text += "\n" + render_table(
        monitor_rows, title="conformance monitors below the knee")
    text += ("\nopen-loop Poisson arrivals over %g virtual-time units, "
             "seed %d; latency\nmeasured from intended arrival "
             "(coordinated-omission-safe).  The knee is\nthe last "
             "offered load absorbed without goodput collapse (<90%% of "
             "offered)\nor p99 blow-up (>3x the lightest-load p99).  "
             "Replicas serve one ingress\nmessage per %g time units, so "
             "per-request message complexity sets\ncapacity: PBFT's "
             "all-to-all phases saturate far below the leader-based\n"
             "protocols — the paper's complexity table as a latency "
             "cliff." % (DURATION, SEED, LoadSpec().service))
    report("E28_load_knee", text)
    bench_snapshot("E28_load_knee", **snapshot)

    # Every swept protocol saturates inside its sweep (≥ 2 knees is the
    # acceptance floor; all three is the expectation).
    for protocol, knee in knees.items():
        assert knee is not None, "%s never saturated" % protocol
    # The complexity ordering the paper tabulates: O(n²) PBFT saturates
    # strictly below both O(n) leader-based protocols.
    assert knees["pbft"] < knees["multi-paxos"]
    assert knees["pbft"] < knees["raft"]
    # Below the knee, the protocols still conform to their spec.
    for row in monitor_rows:
        assert row["anomalies"] == 0, row
