"""Alternated parent/change pairs of benchmark workloads.

    python3 benchmarks/paired.py PARENT_DIR CHANGE_DIR --workload W[,W2...]|all
                                 [--pairs 10] [--seed S] [--seconds T]

For each workload named (``all``: every workload in ``BENCHMARK.json``,
in its order), runs ``benchmarks/e2e/run.py --workload W --trace 0`` in
the two checkouts alternately (the side that goes first flips every
pair, so a noisy neighbour or a warming cache lands on both), then
prints the workload's own block: per end-to-end metric, each side's
median and quartiles, how many pairs the change won (ties count for
neither), a verdict, and whether every run produced the same
``vt_digest``.  Exits 1 when any metric of any workload reads
``worse`` or any workload's digests differ, else 0.

The verdict applies the rules of the choosing-metrics guide (sections
6 and 8) with the metric's bound from ``BENCHMARK.json``, a fraction of
the parent's median: ``gain`` when the change wins at least nine pairs
in ten and the medians differ by more than the parent's quartile
spread; ``worse`` when the change's median is worse by more than the
bound; ``unresolved`` when the parent's spread is wider than the bound
and not every change run beats every parent run; ``same`` otherwise.
"""

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """``(metrics, vt_digest)`` of one driver-style run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    reply = json.loads(done.stdout.splitlines()[-1])
    if not reply["correct"] or reply["failed"]:
        raise SystemExit("%s: run incorrect or failed operations: %s"
                         % (checkout, done.stdout.splitlines()[-1]))
    digest = re.search(r"vt_digest=(\w+)", done.stdout).group(1)
    return {name: entry["value"]
            for name, entry in reply["metrics"].items()}, digest


def quartiles(values):
    """``(q1, median, q3)`` of ``values``."""
    return tuple(statistics.quantiles(values, n=4)) \
        if len(values) > 1 else tuple(values) * 3


def summary(values):
    q1, median, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (median, q1, q3)


def wins(parent, change, better):
    """Pairs in which the change read better (ties count for neither)."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """``gain``, ``same``, ``worse`` or ``unresolved`` for one metric's
    paired runs; ``better`` is ``higher`` or ``lower``, ``bound`` the
    worsening the benchmark allows, as a fraction of the parent's
    median."""
    sign = 1 if better == "higher" else -1
    p_q1, p_median, p_q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - p_median)
    spread = p_q3 - p_q1
    if wins(parent, change, better) * 10 >= 9 * len(parent) \
            and gap > spread:
        return "gain"
    allowed = bound * (abs(p_median) or 1.0)
    if -gap > allowed:
        return "worse"
    every_run_better = min(change) > max(parent) if sign > 0 \
        else max(change) < min(parent)
    if spread > allowed and not every_run_better:
        return "unresolved"
    return "same"


def compare(parent_dir, change_dir, workload, pairs, seed, seconds,
            end_to_end):
    """Run ``pairs`` alternated pairs of one workload and print its
    block; returns True when no metric is ``worse`` and every run
    produced the same ``vt_digest``."""
    sides = {"parent": parent_dir, "change": change_dir}
    runs = {side: [] for side in sides}
    digests = set()
    for pair in range(pairs):
        for side in sorted(sides, reverse=bool(pair % 2)):
            metrics, digest = run_once(sides[side], workload, seed, seconds)
            runs[side].append(metrics)
            digests.add(digest)
        print("%s pair %d: wall_s parent %.4f change %.4f"
              % (workload, pair + 1, runs["parent"][-1]["wall_s"],
                 runs["change"][-1]["wall_s"]), flush=True)
    print("\n%s seed %d, %d pairs; median [q1, q3]"
          % (workload, seed, pairs))
    verdicts = []
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        verdicts.append(verdict(parent, change, better, metric["bound"]))
        print("  %-18s parent %-28s change %-28s change wins %2d/%d  %s"
              % (name, summary(parent), summary(change),
                 wins(parent, change, better), pairs, verdicts[-1]))
    print("  vt_digest %s\n" % ("identical on every run" if len(digests) == 1
                                else "DIFFERS: %s" % sorted(digests)),
          flush=True)
    return "worse" not in verdicts and len(digests) == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    spec = json.loads((pathlib.Path(args.change_dir)
                       / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    chosen = known if args.workload == "all" \
        else [name for name in args.workload.split(",") if name]
    unknown = sorted(set(chosen) - set(known))
    if unknown or not chosen:
        parser.error("unknown workload(s) %s; choose from %s or all"
                     % (", ".join(unknown) or "(none)", ", ".join(known)))
    passed = [compare(args.parent_dir, args.change_dir, workload,
                      args.pairs, args.seed, args.seconds,
                      spec["end_to_end"])
              for workload in chosen]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
