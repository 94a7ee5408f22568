"""The seven benchmark workloads.

Each workload is a function ``(seed, scale, traced) -> Outcome`` that
builds its inputs from ``seed``, runs a fixed amount of simulated work
through the public API of ``repro`` and checks the result.  ``scale``
shrinks the work (``--smoke`` runs at 1/20); ``traced`` is true during
the per-layer pass and only matters to ``fleet-parallel``, which then
keeps its workers in-process so the probe can see them.

The library functions are reached through their *modules*
(``engine.run_loadtest``, not a name imported from it) so that the
probe, which patches module attributes, sees every call.

Sizes are chosen so one repeat takes about 1.5 s on the 2-core
reference box: long enough that a per-request cost growing with log
length shows (``protocols.cost_growth_x``), short enough that a 10 s
run holds five or more repeats.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field

from repro.core.cluster import Cluster
from repro.load import engine
from repro.net.delivery import UniformDelayModel
from repro.obs import spans as obs_spans
from repro.parallel import engine as parallel_engine
from repro.parallel import merge as parallel_merge
from repro.parallel.spec import FleetSpec
from repro.protocols import hotstuff, pbft
from repro.shard.cluster import ShardedCluster
from repro.telemetry import report as telemetry_report

#: Latency objective (virtual time units) for goodput on open-loop runs.
SLO = 30.0

#: Virtual-time horizon for the closed-loop BFT drivers; their default
#: (3000) ends a run this long before its clients finish.
HORIZON = 1e9

SMOKE_SCALE = 0.05

#: Key universe of the single-process fleets.  With the 1024 keys of the
#: ``repro shards`` default, lock conflicts (and their random back-off)
#: decide the latency tail, and p99 moves by 20-30 % from seed to seed;
#: at 8192 the tail is the cross-shard 2PC path.
FLEET_KEYS = 8192


@dataclass
class Outcome:
    """What one repeat of a workload produced."""

    #: Host seconds of the fixed work; cluster build and election
    #: settle are outside it wherever the public API lets them be.
    wall_s: float
    #: Deterministic for a seed; its canonical JSON is ``vt_digest``.
    report: object
    vt_p50: float
    vt_p99: float
    goodput_share: float
    commits: int
    messages: int
    attempted: int
    failed: int
    checks: dict
    #: Per-layer numbers only the workload can see, keyed by metric name.
    layer: dict = field(default_factory=dict)

    @property
    def digest(self):
        blob = telemetry_report.report_to_json(self.report)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def _scaled(n, scale):
    return max(1, int(round(n * scale)))


# -- open loop ---------------------------------------------------------------

def _open_loop(protocol, rate, duration, drain, seed, scale):
    spec = engine.LoadSpec(protocol, rate=rate, duration=duration * scale,
                           seed=seed, slo=SLO, drain=drain)
    start = time.perf_counter()
    report = engine.run_loadtest(spec)
    wall = time.perf_counter() - start
    acc = report["accounting"]
    offered, completed = acc["offered"], acc["completed"]
    abandoned = acc["abandoned"]
    within_slo = offered - acc["slo"]["violations"]
    return Outcome(
        wall_s=wall,
        report=report,
        vt_p50=acc["latency"]["p50"],
        vt_p99=acc["latency"]["p99"],
        goodput_share=within_slo / offered,
        commits=completed,
        messages=report["messages"],
        attempted=offered,
        failed=abandoned,
        checks={"offered == completed + abandoned":
                offered == completed + abandoned},
        layer={"load.offered": offered, "load.completed": completed,
               "load.abandoned": abandoned},
    )


def paxos_steady(seed, scale, traced):
    return _open_loop("multi-paxos", 4.0, 800.0, 300.0, seed, scale)


def paxos_overload(seed, scale, traced):
    # Twice the 6.0 knee.  The drain is long enough for the backlog to
    # empty, so overload shows as lost goodput and a queue-dominated
    # p99 and not as abandoned (= failed) requests.
    return _open_loop("multi-paxos", 12.0, 270.0, 500.0, seed, scale)


def raft_steady(seed, scale, traced):
    return _open_loop("raft", 3.0, 1500.0, 300.0, seed, scale)


# -- closed loop: BFT --------------------------------------------------------

def bft_closed(seed, scale, traced):
    ops = _scaled(600, scale)
    commands = _scaled(1000, scale)
    pbft_cluster = Cluster(seed, telemetry=True)
    # Chained HotStuff runs on narrower jitter than the 0.5-1.5 default:
    # there a quorum of votes can reach the next leader before the
    # proposal does, the chain stalls until a 15-unit view timeout, and
    # how often that happens is seed luck (seed 0 needs 5x the views at
    # 700 commands), which is a protocol finding, not a steady input.
    hs_cluster = Cluster(seed, telemetry=True,
                         delivery=UniformDelayModel(0.75, 1.25))
    start = time.perf_counter()
    pbft_result = pbft.run_pbft(pbft_cluster, f=2, n_clients=2,
                                operations_per_client=ops, horizon=HORIZON)
    pbft_wall = time.perf_counter() - start
    start = time.perf_counter()
    hs_result = hotstuff.run_chained_hotstuff(hs_cluster, f=1,
                                              commands=commands,
                                              horizon=HORIZON)
    hs_wall = time.perf_counter() - start
    start = time.perf_counter()
    stats = [telemetry_report.run_report(c.telemetry, c.metrics,
                                         protocol=name, seed=seed,
                                         virtual_time=c.now)
             for name, c in (("pbft", pbft_cluster),
                             ("hotstuff", hs_cluster))]
    snapshot_wall = time.perf_counter() - start
    latencies = pbft_cluster.metrics.latencies() \
        + hs_cluster.metrics.latencies()
    submitted = 2 * ops + commands
    decided = hs_result.decided_logs()
    return Outcome(
        wall_s=pbft_wall + hs_wall + snapshot_wall,
        report={"stats": stats, "hotstuff_log": decided[0]},
        vt_p50=percentile(latencies, 50),
        vt_p99=percentile(latencies, 99),
        goodput_share=len(latencies) / submitted,
        commits=len(latencies),
        messages=pbft_result.messages + hs_result.messages,
        attempted=submitted,
        failed=submitted - len(latencies),
        checks={
            "pbft clients done": all(c.done for c in pbft_result.clients),
            "pbft logs consistent": pbft_result.logs_consistent(),
            "hotstuff logs consistent": hs_result.logs_consistent(),
            "hotstuff decided every command":
                all({"cmd-%d" % i for i in range(commands)} <= set(log)
                    for log in decided),
        },
        layer={"protocols.pbft_wall_s": pbft_wall,
               "protocols.hotstuff_wall_s": hs_wall,
               "telemetry.snapshot_s": snapshot_wall},
    )


# -- closed loop: fleets -----------------------------------------------------

class _TimedFleet(ShardedCluster):
    """A fleet that remembers when each transaction was submitted, so
    the closed-loop latency of every transaction can be read off
    ``Transaction.finished_at`` afterwards."""

    def __init__(self, *args, **kwargs):
        self.submitted = []
        super().__init__(*args, **kwargs)

    def submit(self, keys, update, abort_if=None):
        txn = super().submit(keys, update, abort_if=abort_if)
        self.submitted.append((self.now, txn))
        return txn


def _drive_fleet(fleet, txns):
    summary = fleet.run_workload(txns=txns, cross_ratio=0.3, batch=16)
    fleet.settle()
    return summary, fleet.check_consistency()


def _fleet_outcome(fleet, summary, consistent, wall):
    latencies = [txn.finished_at - at for at, txn in fleet.submitted
                 if txn.finished_at is not None]
    stats = fleet.stats()
    txns = summary["txns"]
    return Outcome(
        wall_s=wall,
        report={"workload": summary, "stats": stats},
        vt_p50=percentile(latencies, 50),
        vt_p99=percentile(latencies, 99),
        goodput_share=summary["committed"] / txns,
        commits=summary["committed"],
        messages=fleet.cluster.metrics.messages_total,
        attempted=txns,
        failed=summary["aborted"] + txns - len(latencies),
        checks={"replicas consistent": consistent,
                "committed + aborted == submitted":
                    summary["committed"] + summary["aborted"] == txns},
        layer={
            "shard.txns": txns,
            "shard.fast_path_share":
                stats["fast_commits"] / max(1, stats["commits"]),
            "shard.committed_per_vtime": summary["committed_per_vtime"],
            "dtxn.timeout_aborts": stats["timeout_aborts"],
        },
    )


def fleet_2pc(seed, scale, traced):
    fleet = _TimedFleet(16, 3, seed=seed, key_space=FLEET_KEYS)
    start = time.perf_counter()
    summary, consistent = _drive_fleet(fleet, _scaled(1024, scale))
    wall = time.perf_counter() - start
    return _fleet_outcome(fleet, summary, consistent, wall)


def fleet_observed(seed, scale, traced):
    cluster = Cluster(seed, trace=True, monitors=True)
    fleet = _TimedFleet(8, 3, key_space=FLEET_KEYS, cluster=cluster)
    start = time.perf_counter()
    summary, consistent = _drive_fleet(fleet, _scaled(576, scale))
    mark = time.perf_counter()
    events = cluster.trace.events  # forces the lazy materialisation
    materialize = time.perf_counter() - mark
    mark = time.perf_counter()
    spans = obs_spans.SpanBuilder(cluster.trace).build()
    build = time.perf_counter() - mark
    mark = time.perf_counter()
    span_report = obs_spans.spans_report(spans, protocol="shards", seed=seed,
                                         virtual_time=cluster.now, slo=SLO)
    report_wall = time.perf_counter() - mark
    mark = time.perf_counter()
    anomalies = cluster.monitors.finish()
    finish = time.perf_counter() - mark
    wall = time.perf_counter() - start
    violations = sum(
        1 for span in spans if span.completed
        and abs(sum(span.segments.values()) - span.latency) > 1e-9)
    outcome = _fleet_outcome(fleet, summary, consistent, wall)
    outcome.report.update(spans=span_report["summary"], events=len(events))
    outcome.failed += len(anomalies)
    outcome.checks.update({"no monitor anomalies": not anomalies,
                           "span segments telescope": violations == 0})
    outcome.layer.update({
        "trace.events": len(events), "trace.materialize_s": materialize,
        "obs.spans": len(spans), "obs.build_s": build,
        "obs.report_s": report_wall,
        "obs.telescoping_violations": violations,
        "monitor.finish_s": finish, "monitor.anomalies": len(anomalies)})
    return outcome


def observed_bases(seed, scale, outcome):
    """``trace.overhead_x``: ``fleet-observed``'s wall over that of the
    same shape with tracer and monitors off."""
    fleet = ShardedCluster(8, 3, seed=seed, key_space=FLEET_KEYS)
    start = time.perf_counter()
    _drive_fleet(fleet, _scaled(576, scale))
    unobserved = time.perf_counter() - start
    return {"trace.overhead_x": outcome.wall_s / unobserved}


def _parallel_spec(seed, scale, workers, inline):
    # Waves of 32 over nearly a million keys: a wave lasts as long as
    # its slowest transaction and every hop between shards costs 4-6
    # vt, so one lock conflict (abort, back off, retry) stretches its
    # wave by half; with fewer keys whether a seed draws one decides
    # its virtual-time metrics.
    return FleetSpec(seed=seed, n_shards=32, replicas=3, key_space=960_000,
                     txns=_scaled(800, scale), batch=32, cross_ratio=0.3,
                     workers=workers, inline=inline)


def fleet_parallel(seed, scale, traced):
    # Forked workers are out of the probe's sight; the traced pass runs
    # the same partitioning and merge on the in-process engine.
    spec = _parallel_spec(seed, scale, min(2, os.cpu_count() or 1), traced)
    start = time.perf_counter()
    run = parallel_engine.run_parallel_shards(spec)
    run_wall = time.perf_counter() - start
    segments = parallel_merge.merged_workload(run)
    consistency = parallel_merge.merged_consistency(run)
    stats = parallel_merge.merged_stats(run)
    summary = parallel_merge.merged_summary(run)
    wall = time.perf_counter() - start
    txns = sum(seg["txns"] for seg in segments)
    committed = sum(seg["committed"] for seg in segments)
    aborted = sum(seg["aborted"] for seg in segments)
    # The engine keeps no per-transaction times, only each segment's
    # virtual span: a wave's mean duration bounds its transactions'
    # latency from above.
    wave_vt = [seg["virtual_time"] / -(-seg["txns"] // spec.batch)
               for seg in segments]
    return Outcome(
        wall_s=wall,
        report={"workload": segments, "stats": stats, "summary": summary,
                "epochs": run.epochs, "virtual_time": run.virtual_time,
                "events": run.total_events},
        vt_p50=percentile(wave_vt, 50),
        vt_p99=percentile(wave_vt, 99),
        goodput_share=committed / txns,
        commits=committed,
        messages=summary["messages_total"],
        attempted=txns,
        failed=aborted,
        checks={"replicas consistent": all(consistency.values()),
                "committed + aborted == submitted":
                    committed + aborted == txns},
        layer={
            "shard.txns": txns,
            "shard.fast_path_share":
                stats["fast_commits"] / max(1, stats["commits"]),
            "shard.committed_per_vtime":
                committed / sum(seg["virtual_time"] for seg in segments),
            "dtxn.timeout_aborts": stats["timeout_aborts"],
            "parallel.epochs": run.epochs,
            "parallel.critical_path_s": run.critical_path_seconds,
            "parallel.merge_s": wall - run_wall,
            "parallel.barrier_share":
                max(0.0, run_wall - run.critical_path_seconds) / run_wall,
        },
    )


def parallel_bases(seed, scale, outcome):
    """``parallel.speedup_x``: the wall of ``fleet-parallel``'s fleet on
    the inline engine with one worker, over ``fleet-parallel``'s."""
    spec = _parallel_spec(seed, scale, 1, True)
    start = time.perf_counter()
    parallel_engine.run_parallel_shards(spec)
    inline = time.perf_counter() - start
    return {"parallel.speedup_x": inline / outcome.wall_s}


@dataclass(frozen=True)
class Workload:
    """A named workload; why each exists is in ``BENCHMARK.json``."""

    name: str
    run: object
    #: ``(class, method, after)``: the call that ends set-up.  The first
    #: time it is entered (or, with ``after``, returns) the first
    #: request is due.
    setup_end: tuple
    #: Optional ``(seed, scale, outcome) -> {metric: value}``: ratios of
    #: an untraced run to a base only this workload has.
    bases: object = None
    #: False when part of the work runs in other processes, out of the
    #: probe's sight (their time then counts as unattributed).
    single_process: bool = True


_INJECTOR_START = (engine.InjectorBase, "on_start", False)

WORKLOADS = [
    Workload("paxos-steady", paxos_steady, _INJECTOR_START),
    Workload("paxos-overload", paxos_overload, _INJECTOR_START),
    Workload("raft-steady", raft_steady, _INJECTOR_START),
    Workload("bft-closed", bft_closed, (Cluster, "__init__", True)),
    Workload("fleet-2pc", fleet_2pc, (ShardedCluster, "__init__", True)),
    Workload("fleet-observed", fleet_observed,
             (ShardedCluster, "__init__", True), bases=observed_bases),
    Workload("fleet-parallel", fleet_parallel,
             (parallel_engine.FleetWorker, "run_epoch", False),
             bases=parallel_bases, single_process=False),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}
