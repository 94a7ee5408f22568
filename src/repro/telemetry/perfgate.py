"""CI perf gate: fail the build when the hot paths regress.

``evaluate_gate(baseline, current)`` compares two bench snapshots
(``BENCH_consensus.json`` documents or their ``benches`` dicts) and
returns a list of failure strings — empty means the gate passes.  Two
families of checks:

* **Throughput regression** — every ``*_events_per_sec`` /
  ``*_msgs_per_sec`` rate in the gated experiments (E23 throughput,
  E24 monitor overhead, E26 parallel scaling, E27 span-derivation
  overhead, E28 load-engine sweep rates — E26's
  ``fleet_wK_events_per_sec`` critical-path rates plus their
  per-worker-normalized ``fleet_wK_norm_events_per_sec`` twins, so a
  barrier-overhead regression trips the gate even if raw scaling still
  clears the bench floor) must stay within ``max_regression`` (default
  20%) of the baseline.  Rates present in only one snapshot are
  skipped: the gate compares, it does not demand coverage.  Rates are
  also skipped when one snapshot is quick-mode and the other is not —
  quick workloads are smaller, so their rates are a different
  measurement, while overhead *ratios* stay comparable across modes
  (and across machines, which is why CI can gate them at all).
* **Observability overhead** — every ``*_overhead_x`` ratio in the
  current E24/E27 entries must stay at or below ``max_overhead``
  (default 2.5x): monitoring must remain a streaming pass (not a
  re-simulation), and span derivation (E27) a cheap post-run sweep
  over the tracer's ring — measured from a cold trace at ~1.3-1.4x,
  gated with the same headroom.
  Ring recording alone costs ~1.4x in pure Python and the measured
  batteries land at ~1.4x (multi-paxos) to ~1.9x (pbft, whose quorum
  certificates make it ack-heavy), so the cap gates regressions back
  toward the 3.4x-class overheads this subsystem eliminated, with
  headroom for scheduler noise.

The module doubles as a CLI for the workflow job::

    python -m repro.telemetry.perfgate BASELINE.json CURRENT.json

exits 0 when clean and 1 listing every violation.  ``--self-test
SNAPSHOT`` proves the gate actually trips: it injects a synthetic 25%
throughput regression (and a doubled overhead) into a copy of the
snapshot and exits 0 only if the gate *fails* on it.

Wall-clock rates vary across machines, so the default tolerance is
deliberately loose; tighten or loosen per-runner with the CLI flags.
"""

import argparse
import json
import sys

#: Experiments whose rates the gate defends.
GATED_EXPERIMENTS = ("E23_throughput", "E24_monitor_overhead",
                     "E26_parallel_scaling", "E27_span_overhead",
                     "E28_load_knee")

#: Rate-key suffixes compared between baseline and current.
RATE_SUFFIXES = ("_events_per_sec", "_msgs_per_sec")

#: Overhead-ratio key suffix capped in the current snapshot.
OVERHEAD_SUFFIX = "_overhead_x"

DEFAULT_MAX_REGRESSION = 0.20
DEFAULT_MAX_OVERHEAD = 2.5


def _benches(snapshot):
    """Accept a full snapshot document or a bare benches dict."""
    if isinstance(snapshot, dict) and isinstance(snapshot.get("benches"),
                                                 dict):
        return snapshot["benches"]
    return snapshot if isinstance(snapshot, dict) else {}


def _is_rate(key):
    return any(key.endswith(suffix) for suffix in RATE_SUFFIXES)


def evaluate_gate(baseline, current,
                  max_regression=DEFAULT_MAX_REGRESSION,
                  max_overhead=DEFAULT_MAX_OVERHEAD):
    """Compare two bench snapshots; return failure strings (empty=pass).

    Pure function of its inputs — the CLI and tests call it with parsed
    documents, never touching the filesystem here.
    """
    baseline = _benches(baseline)
    current = _benches(current)
    failures = []
    for experiment in GATED_EXPERIMENTS:
        base_entry = baseline.get(experiment) or {}
        cur_entry = current.get(experiment) or {}
        rates_comparable = \
            base_entry.get("quick") == cur_entry.get("quick")
        for key in sorted(base_entry):
            if not _is_rate(key) or not rates_comparable:
                continue
            base_rate = base_entry[key]
            cur_rate = cur_entry.get(key)
            if not isinstance(base_rate, (int, float)) or \
                    not isinstance(cur_rate, (int, float)) or base_rate <= 0:
                continue
            floor = base_rate * (1.0 - max_regression)
            if cur_rate < floor:
                failures.append(
                    "%s.%s regressed %.1f%%: %.0f -> %.0f (floor %.0f at "
                    "-%d%%)" % (experiment, key,
                                100.0 * (1.0 - cur_rate / base_rate),
                                base_rate, cur_rate, floor,
                                round(100 * max_regression)))
        for key in sorted(cur_entry):
            if not key.endswith(OVERHEAD_SUFFIX):
                continue
            ratio = cur_entry[key]
            if isinstance(ratio, (int, float)) and ratio > max_overhead:
                failures.append(
                    "%s.%s is %.2fx, above the %.2fx cap — monitoring "
                    "must stay near-free" % (experiment, key, ratio,
                                             max_overhead))
    return failures


def _inject_regression(benches, factor=0.75):
    """A copy of ``benches`` with every gated rate scaled by ``factor``
    and every overhead ratio scaled by ``1/factor`` — the synthetic
    regression the self-test proves the gate catches."""
    regressed = {}
    for experiment, entry in benches.items():
        if experiment not in GATED_EXPERIMENTS or \
                not isinstance(entry, dict):
            regressed[experiment] = entry
            continue
        copy = dict(entry)
        for key, value in entry.items():
            if _is_rate(key) and isinstance(value, (int, float)):
                copy[key] = value * factor
            elif key.endswith(OVERHEAD_SUFFIX) and \
                    isinstance(value, (int, float)):
                copy[key] = value / factor
        regressed[experiment] = copy
    return regressed


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.perfgate",
        description="fail (exit 1) when bench rates regress past the "
                    "tolerance or monitor overhead exceeds the cap")
    parser.add_argument("baseline", help="baseline BENCH_consensus.json")
    parser.add_argument("current", nargs="?", default=None,
                        help="current snapshot (required unless "
                             "--self-test)")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_MAX_REGRESSION,
                        help="throughput tolerance as a fraction "
                             "(default %(default)s = 20%%)")
    parser.add_argument("--max-overhead", type=float,
                        default=DEFAULT_MAX_OVERHEAD,
                        help="monitors-on overhead cap (default "
                             "%(default)sx)")
    parser.add_argument("--self-test", action="store_true",
                        help="inject a synthetic 25%% regression into "
                             "the baseline and exit 0 only if the gate "
                             "fails on it")
    args = parser.parse_args(argv)
    baseline = _benches(_load(args.baseline))
    if args.self_test:
        regressed = _inject_regression(baseline)
        failures = evaluate_gate(baseline, regressed,
                                 max_regression=args.max_regression,
                                 max_overhead=args.max_overhead)
        if failures:
            print("self-test: gate trips on the injected 25%% regression "
                  "(%d violation(s)) — OK" % len(failures))
            for failure in failures[:5]:
                print("  %s" % failure)
            return 0
        print("self-test: gate FAILED to trip on an injected 25% "
              "regression — the gate is not protecting anything")
        return 1
    if args.current is None:
        parser.error("current snapshot required unless --self-test")
    failures = evaluate_gate(baseline, _benches(_load(args.current)),
                             max_regression=args.max_regression,
                             max_overhead=args.max_overhead)
    if failures:
        print("perf gate: %d violation(s)" % len(failures))
        for failure in failures:
            print("  %s" % failure)
        return 1
    print("perf gate: clean (tolerance -%d%% throughput, %.2fx overhead "
          "cap)" % (round(100 * args.max_regression), args.max_overhead))
    return 0


if __name__ == "__main__":
    sys.exit(main())
