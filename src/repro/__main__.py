"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — every implemented protocol with its paper property box.
* ``run <protocol>`` — one live run of a protocol, with a summary.
* ``trace <protocol>`` — record a causal trace of one run and render it
  as an ASCII message-flow diagram (optionally exporting JSONL).
* ``stats <protocol>`` — one telemetry-instrumented run: labeled
  counters and latency histograms rendered as ASCII, optionally
  exported as a deterministic JSON run report and/or a Prometheus
  text exposition.
* ``check <protocol>`` — one run under live conformance monitors,
  cross-checked against the paper's property box; exits 0 when clean,
  1 on any anomaly, 2 on usage errors.
* ``profile`` — cProfile one run and print the hottest call sites.
* ``kv`` — interactive-ish replicated-KV demo (scripted operations).
* ``mine`` — a short PoW mining-network run with fork statistics.
* ``table`` — the measured-vs-paper comparison table (E1, abridged).
"""

import argparse
import sys
from pathlib import Path

from .analysis import PAPER_TABLE, render_table
from .core import Cluster
from .scenarios import SCENARIOS


def cmd_list(_args):
    print(render_table(
        [vars(claim) for claim in PAPER_TABLE],
        columns=("protocol", "synchrony", "failure_model", "strategy",
                 "awareness", "nodes", "phases", "complexity"),
        title="Implemented protocols"))
    return 0


def cmd_experiments(_args):
    from .analysis import generate_experiments_md
    from .analysis.report import EXPERIMENT_NOTES, bench_file_for, collect_results
    results_dir = Path("benchmarks/results")
    have = collect_results(results_dir) if results_dir.is_dir() else {}
    missing = sorted(set(EXPERIMENT_NOTES) - set(have),
                     key=lambda eid: int(eid[1:]))
    if missing:
        print("missing %d benchmark artifact(s) under %s — run the "
              "benches first:" % (len(missing), results_dir))
        for eid in missing:
            print("  %-4s  PYTHONPATH=src python -m pytest "
                  "benchmarks/%s -q" % (eid, bench_file_for(eid)))
        if not have:
            print("(nothing to assemble yet; EXPERIMENTS.md left untouched)")
            return 1
        print("assembling EXPERIMENTS.md from the %d artifact(s) present"
              % len(have))
    path, count = generate_experiments_md()
    print("wrote %s (%d experiments)" % (path, count))
    return 0


def cmd_table(_args):
    # Resolve benchmarks/ relative to the repository, not the cwd, so the
    # command works from anywhere; fall back to the cwd for installs where
    # the package lives outside a checkout.
    candidates = [
        Path(__file__).resolve().parents[2] / "benchmarks",
        Path.cwd() / "benchmarks",
    ]
    for bench_dir in candidates:
        if (bench_dir / "test_bench_property_table.py").is_file():
            if str(bench_dir) not in sys.path:
                sys.path.insert(0, str(bench_dir))
            break
    try:
        from test_bench_property_table import build_property_table
    except ImportError:
        print("cannot locate benchmarks/test_bench_property_table.py "
              "(looked in %s)" % ", ".join(str(c) for c in candidates))
        return 1
    print(render_table(build_property_table(),
                       title="Paper vs measured (E1)"))
    return 0


def _known(protocol, choices):
    """True when ``protocol`` is one of ``choices``; otherwise prints the
    one-line usage error (the caller picks the exit code)."""
    if protocol in choices:
        return True
    print("unknown protocol %r; choices: %s"
          % (protocol, ", ".join(choices)))
    return False


def _export(path, write, payload, counted=None):
    """Write one ``--json``/``--jsonl``/``--prom``/``--chrome`` artifact
    if its flag was given.  False (after a one-line ``cannot write``)
    when the path is unwritable; ``counted`` says what the writer's
    return value counts, e.g. ``"%d events"``."""
    if not path:
        return True
    try:
        count = write(payload, path)
    except OSError as exc:
        print("cannot write %s: %s" % (path, exc))
        return False
    note = " (%s)" % (counted % count) if counted else ""
    print("wrote %s%s" % (path, note))
    return True


def _run_fleet(scenario="shards", banner=None, **fields):
    """One fleet run partitioned over worker processes (``--workers``).

    Returns ``(run, 0)``, or ``(None, exit code)`` after printing why:
    2 when ``scenario`` is not the fleet or the engine rejects the spec
    (``--workers 0``), 1 when a worker failed.  ``banner`` is printed,
    with the spec's epoch length, once the spec is accepted and before
    the run starts.
    """
    from .parallel import FleetSpec, WorkerFailure, run_parallel_shards
    if scenario != "shards":
        # Other protocols have no domain decomposition to partition.
        print("--workers applies to the sharded fleet only "
              "(use protocol 'shards')")
        return None, 2
    try:
        spec = FleetSpec(**fields)
    except ValueError as exc:
        print(exc)
        return None, 2
    if banner:
        print(banner % spec.epoch)
    try:
        return run_parallel_shards(spec), 0
    except WorkerFailure as exc:
        print("PARALLEL RUN FAILED: %s" % exc)
        return None, 1


def _workload_line(index, segment):
    return ("workload %d: %d/%d committed (%d cross-shard, %d fast-path)"
            " in %.1f virtual time"
            % (index, segment["committed"], segment["txns"],
               segment["cross_shard"], segment["fast_commits"],
               segment["virtual_time"]))


def _observe(args, **observers):
    """One demo run of ``args.protocol`` under the given observers, for
    run/trace/stats/spans.

    ``--workers`` (``run`` has none) only selects where the artifacts
    come from: a sequential :class:`Cluster`, or the partitioned fleet's
    merged per-worker outputs.  Returns ``(observed, 0)`` — a namespace
    of ``trace``, ``registry``, ``snapshot`` (the collector's), ``now``,
    ``nodes``, the run's ``summary`` lines and the ``suffix`` for the
    command's footer line — or ``(None, exit code)`` after printing why.
    """
    from types import SimpleNamespace
    if getattr(args, "workers", None) is None:
        if not _known(args.protocol, SCENARIOS):
            return None, 1
        scenario = SCENARIOS[args.protocol]
        cluster = Cluster(seed=args.seed, **observers)
        summary = scenario.demo(cluster)
        return SimpleNamespace(
            trace=cluster.trace, registry=cluster.telemetry,
            snapshot=cluster.metrics.snapshot(), now=cluster.now,
            nodes=cluster.network.node_names,
            summary=["%s: %s" % (scenario.demo_label, summary)],
            suffix=""), 0
    from . import parallel
    run, code = _run_fleet(args.protocol, seed=args.seed,
                           workers=args.workers, **observers)
    if run is None:
        return None, code
    return SimpleNamespace(
        trace=parallel.merge_trace(run),
        registry=parallel.merge_registry(run),
        snapshot=parallel.merged_summary(run), now=run.virtual_time,
        nodes=run.spec.fleet_names() + ["driver"],
        summary=[_workload_line(index, segment) for index, segment
                 in enumerate(parallel.merged_workload(run), 1)],
        suffix=" | %d worker(s), %d epochs" % (run.workers, run.epochs)), 0


def cmd_run(args):
    observed, code = _observe(args)
    if observed is None:
        return code
    claim = SCENARIOS[args.protocol].claim()
    print("\n".join(observed.summary))
    print("paper box: nodes=%s phases=%s msgs=%s | measured messages: %d "
          "| virtual time: %.1f"
          % (claim.nodes, claim.phases, claim.complexity,
             observed.snapshot["messages_total"], observed.now))
    return 0


def cmd_trace(args):
    from .trace import render_flow, write_jsonl
    observed, code = _observe(args, trace=True)
    if observed is None:
        return code
    trace = observed.trace
    if not _export(args.jsonl, write_jsonl, trace, "%d events"):
        return 1
    print(render_flow(trace, nodes=observed.nodes, max_rows=args.limit,
                      include_delivers=args.delivers,
                      include_timers=args.timers))
    print("\n".join(observed.summary))
    print("trace: %d events | messages: %d | virtual time: %.1f%s"
          % (len(trace), observed.snapshot["messages_total"],
             observed.now, observed.suffix))
    return 0


def cmd_stats(args):
    from .telemetry import (
        render_summary,
        run_report,
        write_prometheus,
        write_report,
    )
    observed, code = _observe(args, telemetry=True)
    if observed is None:
        return code
    registry = observed.registry
    report = run_report(registry, protocol=args.protocol, seed=args.seed,
                        virtual_time=observed.now)
    report["summary"] = observed.snapshot
    if not (_export(args.json, write_report, report, "%d series")
            and _export(args.prom, write_prometheus, registry,
                        "%d series")):
        return 1
    print(render_summary(registry, title="%s (seed %d)" % (args.protocol,
                                                           args.seed)))
    print()
    print("\n".join(observed.summary))
    print("telemetry: %d series | messages: %d | virtual time: %.1f%s"
          % (len(registry), observed.snapshot["messages_total"],
             observed.now, observed.suffix))
    return 0


def cmd_check(args):
    from .monitor import render_report, run_check, write_report
    if args.all and args.json:
        # Every report would overwrite the one before it.
        print("--all writes one report per protocol; --json PATH holds "
              "one (check a single protocol, or drop --json)")
        return 2
    if args.workers is not None:
        if args.all:
            print("--workers checks the sharded fleet only; drop --all")
            return 2
        if args.faults is not None:
            print("--workers does not support --faults "
                  "(fault scenarios are sequential-only)")
            return 2
    if args.all:
        protocols = [p for p, scenario in SCENARIOS.items()
                     if args.faults is None or args.faults in scenario.faults]
        if not protocols:
            print("no protocol lists --faults %s" % args.faults)
            return 2
    elif args.protocol is None:
        print("usage: repro check <protocol> [--seed N] [--faults KIND] "
              "[--json PATH]  (or --all); protocols: %s"
              % ", ".join(SCENARIOS))
        return 2
    elif not _known(args.protocol, SCENARIOS):
        return 2
    else:
        protocols = [args.protocol]
    if args.faults is not None:
        unsupported = [p for p in protocols
                       if args.faults not in SCENARIOS[p].faults]
        for protocol in unsupported:
            print("%s does not support --faults %s (supported: %s)"
                  % (protocol, args.faults,
                     ", ".join(SCENARIOS[protocol].faults) or "none"))
        if unsupported:
            return 2
    failed = False
    for index, protocol in enumerate(protocols):
        if args.workers is None:
            report = run_check(protocol, seed=args.seed, faults=args.faults)
        else:
            run, code = _run_fleet(protocol, seed=args.seed,
                                   workers=args.workers, monitors=True)
            if run is None:
                return code
            from .parallel import build_check_report
            report = build_check_report(run)
        if not _export(args.json, write_report, report):
            return 2
        if index:
            print()
        print(render_report(report))
        failed = failed or not report["ok"]
    return 1 if failed else 0


def cmd_spans(args):
    from .obs import (
        SpanBuilder,
        render_spans_summary,
        render_waterfall,
        spans_report,
        to_chrome,
        write_chrome,
    )
    from .telemetry import write_report
    observed, code = _observe(args, trace=True)
    if observed is None:
        return code
    spans = SpanBuilder(observed.trace).build()
    report = spans_report(spans, protocol=args.protocol, seed=args.seed,
                          virtual_time=observed.now, window=args.window,
                          slo=args.slo)

    def write_spans(report, path):
        write_report(report, path)
        return len(spans)
    if not (_export(args.json, write_spans, report, "%d span(s)")
            and _export(args.chrome, write_chrome,
                        to_chrome(spans, args.protocol),
                        "%d trace event(s)")):
        return 1
    if args.req is not None:
        wanted = [s for s in spans if s.req == args.req]
        if not wanted:
            print("no span for request %r; known: %s"
                  % (args.req, ", ".join(s.req for s in spans) or "none"))
            return 2
        for span in wanted:
            print("\n".join(render_waterfall(span)))
    else:
        print(render_spans_summary(report))
        slowest = max((s for s in spans if s.completed),
                      key=lambda s: (s.latency, s.req), default=None)
        if slowest is not None:
            print()
            print("slowest completed request:")
            print("\n".join(render_waterfall(slowest)))
    print("\n".join(observed.summary))
    print("spans: %d trace events | virtual time: %.1f%s"
          % (len(observed.trace), observed.now, observed.suffix))
    return 0


def cmd_profile(args):
    """cProfile one protocol run and print the hottest call sites.

    The profiler's per-call overhead distorts small functions (the exact
    ones the hot paths optimise), so treat the output as a *map* of where
    time goes, not a benchmark — wall-clock A/B runs are the verdict.
    """
    import cProfile
    import pstats

    if not _known(args.protocol, SCENARIOS):
        return 1
    scenario = SCENARIOS[args.protocol]
    cluster = Cluster(seed=args.seed, telemetry=args.telemetry,
                      monitors=args.monitors)
    profiler = cProfile.Profile()
    profiler.enable()
    summary = scenario.demo(cluster)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    print("%s: %s" % (scenario.demo_label, summary))
    line = ("profiled: %d events | %d messages | virtual time: %.1f"
            % (cluster.sim.events_processed,
               cluster.metrics.messages_total, cluster.now))
    if args.monitors:
        anomalies = cluster.monitors.finish()
        line += " | monitors: %d, %d anomaly(ies)" % (
            len(cluster.monitors.monitors), len(anomalies))
    print(line)
    return 0


def cmd_kv(args):
    from .smr import ReplicatedKV
    kv = ReplicatedKV(n_replicas=args.replicas, protocol=args.protocol,
                      seed=args.seed)
    kv.put("greeting", "hello")
    kv.incr("visits")
    kv.incr("visits")
    leader = kv.crash_leader()
    kv.put("post-crash", True)
    kv.settle()
    print("protocol=%s replicas=%d crashed-leader=%s" % (
        args.protocol, args.replicas, leader))
    print("greeting=%r visits=%r post-crash=%r" % (
        kv.get("greeting"), kv.get("visits"), kv.get("post-crash")))
    print("consistent:", kv.check_consistency())
    return 0


def cmd_mine(args):
    from .blockchain import run_mining_network
    cluster = Cluster(seed=args.seed)
    result = run_mining_network(
        cluster, hashrates=(600.0, 200.0, 100.0, 100.0),
        target_block_time=args.interval, duration=args.duration,
    )
    main, abandoned, rate = result.fork_stats()
    print("height=%d abandoned=%d fork-rate=%.1f%%" % (main, abandoned,
                                                       100 * rate))
    counts = result.blocks_by_miner()
    total = sum(counts.values())
    for miner, count in sorted(counts.items()):
        print("  %s: %5.1f%% of blocks" % (miner, 100 * count / total))
    return 0


def _parse_seeds(text):
    """``A..B`` (inclusive), ``N``, or ``N,M,...`` -> list of ints, or
    None when the text does not parse."""
    text = text.strip()
    if ".." in text:
        head, _, tail = text.partition("..")
        try:
            lo, hi = int(head), int(tail)
        except ValueError:
            return None
        if hi < lo:
            return None
        return list(range(lo, hi + 1))
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        return None


def cmd_sweep(args):
    from .parallel import sweep
    if not _known(args.protocol, SCENARIOS):
        return 1
    seeds = _parse_seeds(args.seeds)
    if seeds is None:
        print("bad --seeds %r (use A..B, a single N, or N,M,...)"
              % (args.seeds,))
        return 2
    rows = sweep(args.protocol, seeds, workers=args.workers)
    for row in rows:
        print("seed %d: %s | messages: %d | virtual time: %.1f"
              % (row["seed"], row["summary"], row["messages"],
                 row["virtual_time"]))
    print("swept %d seed(s) of %s with %d worker(s)"
          % (len(rows), SCENARIOS[args.protocol].demo_label, args.workers))
    return 0


def _parse_rate_sweep(text):
    """``A..B`` or ``A..B:N`` -> N (default 5) evenly spaced rates from
    A to B inclusive, or None when the text does not parse."""
    text = text.strip()
    count = 5
    if ":" in text:
        text, _, tail = text.rpartition(":")
        try:
            count = int(tail)
        except ValueError:
            return None
        if count < 2:
            return None
    head, sep, tail = text.partition("..")
    if not sep:
        return None
    try:
        lo, hi = float(head), float(tail)
    except ValueError:
        return None
    if not 0 < lo < hi:
        return None
    step = (hi - lo) / (count - 1)
    return [round(lo + i * step, 6) for i in range(count)]


def cmd_loadtest(args):
    from .load import (
        PROTOCOLS,
        LoadSpec,
        render_point,
        render_sweep,
        run_loadtest,
        run_sweep,
    )
    from .telemetry import write_report
    if not _known(args.protocol, sorted(PROTOCOLS)):
        return 2
    if args.rate is not None and args.sweep is not None:
        print("--rate and --sweep are mutually exclusive")
        return 2
    rates = None
    if args.sweep is not None:
        rates = _parse_rate_sweep(args.sweep)
        if rates is None:
            print("bad --sweep %r (use A..B or A..B:N with 0 < A < B, "
                  "N >= 2)" % (args.sweep,))
            return 2
    try:
        spec = LoadSpec(
            protocol=args.protocol,
            rate=1.0 if args.rate is None else args.rate,
            duration=args.duration, seed=args.seed, arrivals=args.arrivals,
            skew=args.skew, storm=args.storm, slo=args.slo,
            injectors=args.injectors, monitors=args.monitors)
    except ValueError as exc:
        print(exc)
        return 2
    if rates is not None:
        report = run_sweep(spec, rates, workers=args.workers or 1)
        rendered = render_sweep(report)
        points = [p for p in report["points"] if p]
        failed = any(p.get("monitors_ok") is False for p in points) or \
            any(p.get("consistent") is False for p in points)
    else:
        if (args.workers or 1) != 1:
            print("--workers parallelises sweep points; single-rate runs "
                  "are one simulation (drop --workers or add --sweep)")
            return 2
        report = run_loadtest(spec)
        rendered = render_point(report)
        accounting = report["accounting"]
        failed = bool(accounting.get("slo", {}).get("violations"))
        failed = failed or not report.get("monitors", {"ok": True})["ok"]
        failed = failed or report.get("consistent") is False
    if not _export(args.json, write_report, report):
        return 2
    print(rendered)
    return 1 if failed else 0


def _fleet_verdict(consistent, stats, anomalies=None):
    """Print a fleet run's closing lines; True when the run failed.
    ``anomalies`` are ``Anomaly.to_dict()`` dicts, or None when the run
    was not monitored."""
    print("per-shard consistency: %s" % consistent)
    if anomalies is not None:
        print("monitors: %d anomaly(ies)" % len(anomalies))
        for anomaly in anomalies[:10]:
            print("  [%s] %s" % (anomaly["monitor"], anomaly["message"]))
    print("totals: %d commits (%d fast-path), %d aborts, %d conflicts, "
          "%d reroutes"
          % (stats["commits"], stats["fast_commits"], stats["aborts"],
             stats["conflicts"], stats["reroutes"]))
    return not consistent or bool(anomalies)


def _cmd_shards_parallel(args, banner):
    from .parallel import (
        build_check_report,
        merged_consistency,
        merged_stats,
        merged_workload,
    )
    if args.split or args.crash_shard:
        print("--workers does not support --split/--crash-shard "
              "(reconfiguration and fault scenarios are sequential-only)")
        return 2
    run, code = _run_fleet(
        banner=banner + " | %d worker(s), epoch %%.1f" % args.workers,
        seed=args.seed, n_shards=args.shards, replicas=args.replicas,
        protocol=args.protocol, partitioning=args.partitioning,
        key_space=args.keys, txns=args.txns, cross_ratio=args.cross,
        workers=args.workers, monitors=args.monitors)
    if run is None:
        return code
    for index, segment in enumerate(merged_workload(run), 1):
        print(_workload_line(index, segment))
    failed = _fleet_verdict(
        all(merged_consistency(run).values()), merged_stats(run),
        build_check_report(run)["anomalies"] if args.monitors else None)
    print("parallel: %d epochs | %d events | virtual time: %.1f"
          % (run.epochs, run.total_events, run.virtual_time))
    return 1 if failed else 0


def cmd_shards(args):
    from .core.exceptions import LivenessFailure
    from .shard import ShardedCluster
    banner = ("fleet: %d shards x %d replicas = %d nodes (%s, %s-partitioned,"
              " seed %d)" % (args.shards, args.replicas,
                             args.shards * args.replicas, args.protocol,
                             args.partitioning, args.seed))
    if args.workers is not None:
        return _cmd_shards_parallel(args, banner)
    try:
        sharded = ShardedCluster(
            n_shards=args.shards, replicas=args.replicas, seed=args.seed,
            protocol=args.protocol, partitioning=args.partitioning,
            key_space=args.keys, monitors=args.monitors)
    except ValueError as exc:
        print(exc)
        return 2
    if args.split and args.partitioning != "range":
        print("--split needs --partitioning range (hash maps cannot split)")
        return 2
    print(banner)
    failed = False
    try:
        first = sharded.run_workload(txns=max(args.txns // 2, 1),
                                     cross_ratio=args.cross)
        print(_workload_line(1, first))
        if args.split:
            split = sharded.split_shard("s0")
            print("live split: s0 -> %s at %r, %d keys moved, %.1f virtual"
                  " time (map epoch %d)"
                  % (split["new_sid"], split["at"], split["moved_keys"],
                     split["duration"], sharded.shard_map.epoch))
        second = sharded.run_workload(txns=max(args.txns - args.txns // 2, 1),
                                      cross_ratio=args.cross)
        print(_workload_line(2, second))
    except LivenessFailure as exc:
        print("LIVENESS FAILURE: %s" % exc)
        return 1
    if args.crash_shard:
        victim = "s%d" % (args.shards - 1)
        alive = sharded.key(next(
            i for i in range(args.keys)
            if sharded.shard_of(sharded.key(i)) != victim))
        dead = sharded.key(next(
            i for i in range(args.keys)
            if sharded.shard_of(sharded.key(i)) == victim))
        sharded.cluster.sim.schedule(
            5.0, lambda: sharded.crash_shard(victim))
        txn = sharded.submit(
            (alive, dead),
            lambda reads: {alive: (reads[alive] or 0) - 1,
                           dead: (reads[dead] or 0) + 1})
        sharded.cluster.run_until(lambda: txn.outcome is not None,
                                  until=sharded.now + 2000.0)
        if txn.outcome is None:
            print("CRASHED-SHARD TRANSACTION HUNG — 2PC blocked")
            return 1
        print("crashed shard %s mid-2PC: transaction %s (%d timeout "
              "abort(s)); surviving shards still serve"
              % (victim, txn.outcome, sharded.coordinator.timeout_aborts))
        failed = txn.outcome != "aborted"
    sharded.settle()
    anomalies = None
    if args.monitors:
        anomalies = [a.to_dict() for a in sharded.monitors.finish()]
    failed = _fleet_verdict(sharded.check_consistency(), sharded.stats(),
                            anomalies) or failed
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="40 Years of Consensus — run the protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list",
                   help="list implemented protocols ('run' executes one, "
                        "'trace' records and renders its message flow)")
    sub.add_parser("table", help="paper-vs-measured comparison table")
    sub.add_parser("experiments",
                   help="regenerate EXPERIMENTS.md from benchmark results")
    run_parser = sub.add_parser(
        "run",
        help="run one protocol (see 'trace' for a causal message-flow "
             "recording of the same run)")
    run_parser.add_argument("protocol", help="e.g. paxos, pbft, tendermint")
    trace_parser = sub.add_parser(
        "trace",
        help="run one protocol with causal tracing and render the "
             "message flow as an ASCII space-time diagram")
    trace_parser.add_argument("protocol", help="e.g. paxos, pbft, hotstuff")
    trace_parser.add_argument("--jsonl", metavar="PATH", default=None,
                              help="also export the trace as JSONL")
    trace_parser.add_argument("--limit", type=int, default=80,
                              help="max rendered event rows (default 80)")
    trace_parser.add_argument("--delivers", action="store_true",
                              help="also render message arrivals")
    trace_parser.add_argument("--timers", action="store_true",
                              help="also render timer firings")
    stats_parser = sub.add_parser(
        "stats",
        help="run one protocol with telemetry and print labeled counters "
             "and latency histograms (optionally exporting a deterministic "
             "JSON run report and a Prometheus text exposition)")
    stats_parser.add_argument("protocol", help="e.g. paxos, pbft, hotstuff")
    stats_parser.add_argument("--json", metavar="PATH", default=None,
                              help="also export the JSON run report "
                                   "(same-seed byte-identical)")
    stats_parser.add_argument("--prom", metavar="PATH", default=None,
                              help="also export a Prometheus text exposition")
    check_parser = sub.add_parser(
        "check",
        help="run one protocol under live conformance monitors and "
             "cross-check the paper's property box; exits 0 when clean, "
             "1 on any anomaly, 2 on usage errors")
    check_parser.add_argument("protocol", nargs="?", default=None,
                              help="e.g. paxos, pbft, tendermint")
    check_parser.add_argument("--all", action="store_true",
                              help="check every table protocol with a "
                                   "driver (with --faults KIND, every one "
                                   "that lists KIND)")
    check_parser.add_argument("--faults", default=None, metavar="KIND",
                              help="inject a fault (per protocol: "
                                   "equivocate, silent, crash, byzantine)")
    check_parser.add_argument("--json", metavar="PATH", default=None,
                              help="also export the deterministic JSON "
                                   "conformance report")
    spans_parser = sub.add_parser(
        "spans",
        help="run one protocol with tracing, derive per-request spans "
             "and print the critical-path latency attribution (optionally "
             "a single request's waterfall, a deterministic JSON report, "
             "and a chrome://tracing export)")
    spans_parser.add_argument("protocol",
                              help="e.g. multi-paxos, raft, shards")
    spans_parser.add_argument("--req", metavar="ID", default=None,
                              help="render one request's ASCII waterfall "
                                   "(e.g. c0-0, or a txn id)")
    spans_parser.add_argument("--slo", type=float, default=None,
                              metavar="T",
                              help="latency objective in virtual-time "
                                   "units; adds violation counts and a "
                                   "burn-rate summary")
    spans_parser.add_argument("--window", type=float, default=None,
                              metavar="W",
                              help="time-series window width in virtual "
                                   "time (default 100)")
    spans_parser.add_argument("--json", metavar="PATH", default=None,
                              help="also export the JSON spans report "
                                   "(same-seed byte-identical)")
    spans_parser.add_argument("--chrome", metavar="PATH", default=None,
                              help="also export a chrome://tracing / "
                                   "Perfetto JSON trace")
    profile_parser = sub.add_parser(
        "profile",
        help="cProfile one protocol run and print the top cumulative "
             "call sites (a map of where time goes; wall-clock A/B runs "
             "are the benchmark)")
    profile_parser.add_argument("protocol", help="e.g. paxos, pbft, hotstuff")
    profile_parser.add_argument("--top", type=int, default=25,
                                help="rows of profile output (default 25)")
    profile_parser.add_argument("--telemetry", action="store_true",
                                help="profile with telemetry enabled (the "
                                     "instrumented hot path)")
    profile_parser.add_argument("--monitors", action="store_true",
                                help="profile with the tracer and the "
                                     "protocol's full monitor battery "
                                     "attached (the monitored hot path)")
    kv_parser = sub.add_parser("kv", help="replicated-KV demo")
    kv_parser.add_argument("--protocol", default="multi-paxos",
                           choices=("multi-paxos", "raft", "pbft"))
    kv_parser.add_argument("--replicas", type=int, default=3)
    mine_parser = sub.add_parser("mine", help="PoW mining-network demo")
    mine_parser.add_argument("--interval", type=float, default=30.0)
    mine_parser.add_argument("--duration", type=float, default=5000.0)
    shards_parser = sub.add_parser(
        "shards",
        help="sharded fleet demo: N consensus groups behind one keyspace, "
             "cross-shard 2PC transactions, optional live split and "
             "whole-shard crash; exits 0 when clean, 1 on any hang, "
             "anomaly or inconsistency")
    shards_parser.add_argument("--shards", type=int, default=2)
    shards_parser.add_argument("--replicas", type=int, default=3)
    shards_parser.add_argument("--protocol", default="multi-paxos",
                               choices=("multi-paxos", "raft", "mixed"))
    shards_parser.add_argument("--partitioning", default="range",
                               choices=("hash", "range"))
    shards_parser.add_argument("--keys", type=int, default=64,
                               help="generated key-universe size "
                                    "(default 64)")
    shards_parser.add_argument("--txns", type=int, default=24,
                               help="workload size (default 24)")
    shards_parser.add_argument("--cross", type=float, default=0.4,
                               help="cross-shard transaction ratio "
                                    "(default 0.4)")
    shards_parser.add_argument("--split", action="store_true",
                               help="live-split shard s0 between the two "
                                    "workload halves (range only)")
    shards_parser.add_argument("--crash-shard", action="store_true",
                               help="crash one whole shard mid-2PC and "
                                    "verify the transaction aborts "
                                    "deterministically instead of hanging")
    shards_parser.add_argument("--monitors", action="store_true",
                               help="run under per-shard conformance "
                                    "monitors")
    shards_parser.add_argument("--workers", type=int, default=None,
                               metavar="K",
                               help="run the fleet on K parallel worker "
                                    "processes (deterministic: identical "
                                    "results at every K)")
    for extra in (trace_parser, stats_parser, check_parser, spans_parser):
        extra.add_argument("--workers", type=int, default=None, metavar="K",
                           help="shards only: run the partitioned fleet on "
                                "K parallel worker processes (merged output "
                                "is byte-identical at every K)")
    load_parser = sub.add_parser(
        "loadtest",
        help="open-loop load engine: Poisson/diurnal arrivals with "
             "Zipfian skew against one protocol, coordinated-omission-"
             "safe latency accounting, and saturation-knee detection "
             "over a rate sweep; exits 0 when clean, 1 on an SLO breach "
             "or monitor anomaly, 2 on usage errors")
    load_parser.add_argument("protocol",
                             help="multi-paxos, raft, pbft, or shards")
    load_parser.add_argument("--rate", type=float, default=None, metavar="R",
                             help="offered load in requests per virtual "
                                  "time unit (default 1.0)")
    load_parser.add_argument("--sweep", default=None, metavar="A..B[:N]",
                             help="sweep N evenly spaced offered loads "
                                  "from A to B (default N=5) and detect "
                                  "the saturation knee")
    load_parser.add_argument("--duration", type=float, default=200.0,
                             help="load window in virtual time units "
                                  "(default 200)")
    load_parser.add_argument("--arrivals", default="poisson",
                             choices=("poisson", "diurnal"),
                             help="arrival process (default poisson)")
    load_parser.add_argument("--skew", type=float, default=0.99,
                             help="Zipf skew s over the key space "
                                  "(default 0.99; 0 = uniform)")
    load_parser.add_argument("--storm", action="store_true",
                             help="hot-key storm: redirect most key "
                                  "draws to one key for the middle "
                                  "fifth of the run")
    load_parser.add_argument("--slo", type=float, default=None, metavar="T",
                             help="latency objective in virtual time "
                                  "units; violations (and never-"
                                  "completed requests) fail the run")
    load_parser.add_argument("--injectors", type=int, default=4,
                             help="simulated injector nodes carrying "
                                  "the aggregate stream (default 4)")
    load_parser.add_argument("--monitors", action="store_true",
                             help="run under the protocol's conformance "
                                  "monitor battery")
    load_parser.add_argument("--workers", type=int, default=None,
                             metavar="K",
                             help="parallel worker processes for sweep "
                                  "points (reports are byte-identical "
                                  "at every K)")
    load_parser.add_argument("--json", metavar="PATH", default=None,
                             help="also export the deterministic JSON "
                                  "report (byte-identical across "
                                  "--workers)")
    sweep_parser = sub.add_parser(
        "sweep",
        help="run one protocol across a seed range on parallel worker "
             "processes; rows always print in seed order")
    sweep_parser.add_argument("protocol", help="e.g. paxos, pbft, shards")
    sweep_parser.add_argument("--seeds", default="0..3", metavar="A..B",
                              help="seed range A..B (inclusive), a single "
                                   "N, or N,M,... (default 0..3)")
    sweep_parser.add_argument("--workers", type=int, default=1, metavar="K",
                              help="parallel worker processes (default 1)")
    for seeded in (run_parser, trace_parser, stats_parser, check_parser,
                   spans_parser, profile_parser, kv_parser, mine_parser,
                   shards_parser, load_parser):
        seeded.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "table": cmd_table,
        "experiments": cmd_experiments,
        "run": cmd_run,
        "trace": cmd_trace,
        "stats": cmd_stats,
        "check": cmd_check,
        "spans": cmd_spans,
        "profile": cmd_profile,
        "kv": cmd_kv,
        "mine": cmd_mine,
        "shards": cmd_shards,
        "sweep": cmd_sweep,
        "loadtest": cmd_loadtest,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)  # output piped into a pager/head that closed early
