"""One command for the whole benchmark.

    PYTHONPATH=src python -m benchmarks.e2e.run [--seed N] [--workload NAME]
                                                [--smoke] [--sets K]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--trace`` it runs every workload (or the one named) untraced
for the end-to-end metrics, then the micro-benchmarks and one traced
pass for the per-layer metrics, checks the outputs, prints every metric
by name with its unit and exits non-zero if a check fails.  With
``--trace 0`` or ``--trace 1`` it does only that half, and for a single
workload prints one JSON object as its last line: the form the
benchmark driver reads (see ``BENCHMARK.json`` at the repo root, which
also holds every metric's unit and bound).

How the host-time numbers are kept honest:

* each workload is run once to warm up, then repeated for ``--seconds``
  (at least :data:`MIN_REPEATS` times); ``wall_s`` is the median, with
  its quartile distance and count beside it;
* repeats of different workloads are interleaved round-robin, so a burst
  of noise from a neighbour lands on every workload's sample, not on
  one workload's whole sample;
* ``setup_s`` and ``peak_rss_mb`` come from fresh child processes (the
  parent's caches are warm and its heap holds every earlier repeat);
* every repeat must produce the same ``vt_digest``, and the traced pass
  the same digest as the untraced ones.
"""

import argparse
import gc
import json
import mmap
import os
import pathlib
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Runs as a script from any directory, or as ``-m benchmarks.e2e.run``.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

_import_start = time.perf_counter()
from repro.parallel.engine import WorkerFailure  # noqa: E402

from benchmarks.e2e import micro, workloads  # noqa: E402
from benchmarks.e2e.probe import Probe  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}
OUT_DIR = HERE / "out"

MIN_REPEATS = 5
#: Fresh processes per run that stop at the end of set-up, beside the
#: one that runs the workload through for its peak RSS.
SETUP_CHILDREN = 4

#: Phase marks that open a leader election or view change.
ELECTION_MARKS = {("multi-paxos", "prepare"), ("raft", "election"),
                  ("pbft", "view-change")}


class _SetupDone(Exception):
    """Raised in a set-up-only child once the first request is due."""


def quartile_spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- child processes: set-up time and peak memory -----------------------------

def child_main(workload, seed, scale, stop_after_setup):
    """Run ``workload`` once in this fresh process and print when its
    set-up ended (wall-clock seconds since the epoch; the parent knows
    when it spawned us) and this process's peak RSS."""
    # Anonymous shared memory: fleet-parallel's set-up ends inside a
    # forked worker.
    stamp = mmap.mmap(-1, 8)
    cls, name, after = workload.setup_end
    original = vars(cls)[name]

    def hooked(*args, **kwargs):
        if after:
            result = original(*args, **kwargs)
        if stamp[:8] == bytes(8):
            stamp[:8] = struct.pack("d", time.time())
            if stop_after_setup:
                raise _SetupDone
        return result if after else original(*args, **kwargs)

    setattr(cls, name, hooked)
    try:
        workload.run(seed, scale, False)
    except (_SetupDone, WorkerFailure):
        if stamp[:8] == bytes(8):
            raise
    print(json.dumps({"setup_end": struct.unpack("d", stamp[:8])[0],
                      "peak_rss_kb": peak_rss_kb(), "import_s": IMPORT_S}))
    return 0


def peak_rss_kb():
    """Peak resident set of this process or its largest forked worker.

    Not ``ru_maxrss`` of this process: a process started by ``vfork`` +
    ``exec`` inherits the peak of the address space it was spawned from,
    so every child would report at least its parent's size.  ``VmHWM``
    belongs to the address space made by ``exec``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in pathlib.Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def spawn_child(workload, seed, scale, stop_after_setup):
    """``(setup_s, peak_rss_mb, import_s)`` of one fresh process."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload.name, "--seed", str(seed), "--scale", str(scale),
               "--child", "setup" if stop_after_setup else "full"]
    spawned = time.time()
    done = subprocess.run(command, stdout=subprocess.PIPE, check=True,
                          timeout=170)
    reply = json.loads(done.stdout.splitlines()[-1])
    return (reply["setup_end"] - spawned, reply["peak_rss_kb"] / 1024.0,
            reply["import_s"])


# -- end-to-end ---------------------------------------------------------------

def measure_e2e(chosen, seed, seconds, scale, setup_children):
    """Untraced repeats, round-robin; returns ``{name: result dict}``."""
    outcomes = {w.name: [] for w in chosen}
    spent = {w.name: 0.0 for w in chosen}
    digests = {w.name: {w.run(seed, scale, False).digest} for w in chosen}
    pending = list(chosen)
    while pending:
        for workload in list(pending):
            gc.collect()
            start = time.perf_counter()
            outcome = workload.run(seed, scale, False)
            spent[workload.name] += time.perf_counter() - start
            outcomes[workload.name].append(outcome)
            digests[workload.name].add(outcome.digest)
            if len(outcomes[workload.name]) >= MIN_REPEATS \
                    and spent[workload.name] >= seconds:
                pending.remove(workload)
    # Fresh processes, round-robin as well: the ones that stop after
    # set-up first, then one per workload that runs it through.
    children = {w.name: [] for w in chosen}
    for stop_after_setup in [True] * setup_children + [False]:
        for workload in chosen:
            children[workload.name].append(
                spawn_child(workload, seed, scale, stop_after_setup))
    results = {}
    for workload in chosen:
        runs = outcomes[workload.name]
        last = runs[-1]
        setups, rss, _imports = zip(*children[workload.name])
        walls = [run.wall_s for run in runs]
        checks = {check: all(run.checks[check] for run in runs)
                  for check in last.checks}
        checks["same vt_digest on every repeat"] = \
            len(digests[workload.name]) == 1
        results[workload.name] = {
            "metrics": {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss[-1],
                "vt_p50": last.vt_p50,
                "vt_p99": last.vt_p99,
                "vt_goodput_share": last.goodput_share,
                "msgs_per_commit": last.messages / last.commits,
            },
            "walls": walls,
            "digest": last.digest,
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs),
            "checks": checks,
        }
    return results


# -- per layer ----------------------------------------------------------------

def _reference_pass(workload, seed, scale):
    """One warm untraced run and the host-time bases that only some
    workloads have."""
    workload.run(seed, min(scale, workloads.SMOKE_SCALE), False)
    gc.collect()
    cpu = time.process_time()
    outcome = workload.run(seed, scale, False)
    extras = {"bench.cpu_s": time.process_time() - cpu}
    if workload.bases is not None:
        extras.update(workload.bases(seed, scale, outcome))
    return outcome, extras


def _layer_values(probe, ref, traced, extras):
    """Every per-layer metric of one workload, from its traced run."""
    values = dict.fromkeys(LAYER, 0.0)
    values.update(ref.layer)
    values.update(extras)
    for layer, seconds in probe.layer_self_s().items():
        if layer != "bench":
            values[layer + ".self_s"] = seconds
    handler_calls = sum(len(s) for s in probe.handler_self_ns.values())
    marks = [mark[:2] for cluster in probe.clusters
             for mark in cluster.metrics.phase_marks]
    offered = values["load.offered"]
    values.update({
        "sim.events": probe.events,
        "sim.events_per_s": probe.events / ref.wall_s,
        "sim.peak_pending": probe.peak_pending,
        "net.sends": probe.calls("net", ".send"),
        "net.bytes": sum(c.metrics.bytes_total for c in probe.clusters),
        "net.drops": probe.drops,
        "net.max_queue_depth": probe.max_queue_depth,
        "core.delivers": probe.calls("core", "Node.deliver"),
        "core.unhandled": probe.calls("core", "on_unhandled"),
        "protocols.handler_calls": handler_calls,
        "protocols.self_us_per_commit":
            values["protocols.self_s"] * 1e6 / ref.commits,
        "protocols.cost_growth_x": probe.cost_growth_x(),
        "protocols.elections":
            sum(1 for mark in marks if mark in ELECTION_MARKS),
        "protocols.redirects": probe.calls(None, "redirect"),
        "crypto.calls": probe.calls("crypto"),
        "smr.applies": probe.calls("smr"),
        "load.resends":
            probe.calls("protocols", "clientrequest") - offered
            if offered else 0,
        "load.req_per_s": values["load.completed"] / ref.wall_s,
        "load.generator_lag_vt": probe.generator_lag_vt,
        "monitor.dispatches": probe.calls("monitor")
            - probe.calls("monitor", ".finish"),
        "metrics.fold_s": probe.self_s("metrics", "_total")
            + probe.self_s("metrics", "by_type"),
        "bench.trace_overhead_x": traced.wall_s / ref.wall_s,
        "bench.unattributed_share": probe.unattributed_ns / probe.total_ns,
        "bench.traced_wall_s": probe.total_ns / 1e9,
        "failed_share": traced.failed / traced.attempted,
        "ops_attempted": traced.attempted,
        "ops_failed": traced.failed,
    })
    if values["shard.txns"]:
        replies = probe.calls("dtxn", "clientreply") \
            + probe.calls("shard", "clientreply")
        values["dtxn.rounds_per_txn"] = replies / values["shard.txns"]
    unknown = set(values) - set(LAYER)
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: %s"
                       % sorted(unknown))
    return values


def measure_layers(chosen, seed, scale, smoke):
    """Untraced reference, micro-benchmarks, then one traced pass per
    workload; returns ``{name: result dict}``."""
    references = {w.name: _reference_pass(w, seed, scale) for w in chosen}
    common = micro.run_all(0.002, 3) if smoke else micro.run_all()
    common["bench.import_s"] = spawn_child(chosen[0], seed, scale, True)[2]
    # Nothing untraced may run in this process from here on.
    probe = Probe()
    probe.install()
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for workload in chosen:
        ref, extras = references[workload.name]
        probe.reset()
        gc.collect()
        traced = probe.run(lambda w=workload: w.run(seed, scale, True))
        values = _layer_values(probe, ref, traced, dict(common, **extras))
        probe.write(OUT_DIR / ("%s.spans.jsonl" % workload.name),
                    {"workload": workload.name, "seed": seed, "scale": scale})
        checks = dict(traced.checks)
        checks["traced vt_digest == untraced"] = traced.digest == ref.digest
        if workload.single_process:
            checks["bench.unattributed_share <= 0.15"] = \
                values["bench.unattributed_share"] <= 0.15
        results[workload.name] = {
            "metrics": values, "digest": traced.digest,
            "attempted": traced.attempted, "failed": traced.failed,
            "checks": checks,
        }
    return results


# -- output -------------------------------------------------------------------

def fingerprint():
    model = load = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        load = "%.2f" % os.getloadavg()[0]
    except OSError:
        pass
    return "nproc=%s cpu=%r python=%s load=%s" % (
        os.cpu_count(), model, platform.python_version(), load)


def print_result(name, result, units):
    print("\n== %s  vt_digest=%s  attempted=%d failed=%d"
          % (name, result["digest"][:16], result["attempted"],
             result["failed"]))
    walls = result.get("walls")
    if walls:
        print("  %d repeats, quartile spread %.3f of the median: %s"
              % (len(walls), quartile_spread(walls),
                 " ".join("%.3f" % wall for wall in walls)))
    for metric, value in result["metrics"].items():
        print("  %-32s %16.6f %s" % (metric, value, units[metric]["unit"]))
    for check, passed in result["checks"].items():
        if not passed:
            print("  CHECK FAILED: %s" % check)


def print_set_differences(first, second):
    """``--sets``: how far two full sets of the same code disagree."""
    print("\n== set 1 vs set 2: relative difference / bound")
    for name in first:
        for metric, spec in E2E.items():
            a = first[name]["metrics"][metric]
            b = second[name]["metrics"][metric]
            diff = abs(b - a) / a
            print("  %-16s %-18s %8.4f / %.2f%s"
                  % (name, metric, diff, spec["bound"],
                     "  OVER" if diff > spec["bound"] else ""))
        if first[name]["digest"] != second[name]["digest"]:
            print("  %-16s vt_digest differs  OVER" % name)


def driver_line(result):
    """The one JSON object the benchmark driver reads."""
    units = {**E2E, **LAYER}
    return json.dumps({
        "correct": all(result["checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in result["metrics"].items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, short timings")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the end-to-end half this many times")
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=("setup", "full"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    chosen = [workloads.BY_NAME[args.workload]] if args.workload \
        else list(workloads.WORKLOADS)
    scale = args.scale if args.scale is not None \
        else workloads.SMOKE_SCALE if args.smoke else 1.0
    if args.child:
        return child_main(chosen[0], args.seed, scale, args.child == "setup")

    print("machine: %s" % fingerprint())
    seconds = 0.0 if args.smoke else args.seconds
    setup_children = 1 if args.smoke else SETUP_CHILDREN
    ok = True
    last = None
    if args.trace != 1:
        sets = [measure_e2e(chosen, args.seed, seconds, scale, setup_children)
                for _ in range(args.sets)]
        for results in sets:
            for name, result in results.items():
                print_result(name, result, E2E)
                ok = ok and all(result["checks"].values())
                last = result
        if len(sets) > 1:
            print_set_differences(sets[0], sets[-1])
    if args.trace != 0:
        for name, result in measure_layers(chosen, args.seed, scale,
                                           args.smoke).items():
            print_result(name, result, LAYER)
            ok = ok and all(result["checks"].values())
            last = result
    if len(chosen) == 1 and args.trace is not None:
        print(driver_line(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
