"""Byte-compare every deterministic CLI artifact of two checkouts.

    python3 benchmarks/same_bytes.py PARENT_DIR CHANGE_DIR [--seeds 0,1,7]

For every ``SCENARIOS`` row (read from CHANGE_DIR) x seed: ``trace
--jsonl``, ``stats --json``, ``spans --json`` and ``check --json``
(fault-free, then once per fault kind the row lists); the printed
output of the fleet and KV demos no row runs (:data:`STDOUT_RUNS`) at
each seed; plus ``loadtest <p> --json`` for the load protocols at one
rate below and one beyond the knee and over one ``--sweep``.  Each
command runs from both
checkouts (the two sides side by side, nothing else in parallel), the
two files are compared, differing or missing ones are printed; exit 1
if there are any.  This is the "same bytes" half of a refactoring PR's
evidence; ``paired.py`` is the wall-clock half.
"""

import argparse
import filecmp
import json
import os
import pathlib
import subprocess
import sys
import tempfile

#: (below, beyond) the E28 knees of 16.0 / 16.0 / 0.5 req/vt; the
#: fleet's is not in E28, its pair brackets where p99 leaves the SLO.
LOAD_RATES = {"multi-paxos": (4.0, 24.0), "raft": (3.0, 20.0),
              "pbft": (0.3, 1.0), "shards": (1.0, 6.0)}

#: Runs compared by what they print, keyed by artifact stem: the
#: ``shards`` row is Multi-Paxos only, so without these no artifact runs
#: a Raft group inside a fleet, a live split or a whole-shard crash, and
#: none runs PBFT under the KV demo (at 3f+1 replicas, f = 1 and 2).
STDOUT_RUNS = {
    "shards_raft": ["shards", "--protocol", "raft"],
    "shards_mixed_split": ["shards", "--protocol", "mixed", "--split"],
    "shards_raft_crash-shard": ["shards", "--protocol", "raft",
                                "--crash-shard"],
    "kv_raft": ["kv", "--protocol", "raft"],
    "kv_pbft_4": ["kv", "--protocol", "pbft", "--replicas", "4"],
    "kv_pbft_7": ["kv", "--protocol", "pbft", "--replicas", "7"],
}


def _repro(tree, argv, path):
    """Start ``repro argv`` from ``tree``, its artifact going to ``path``:
    as the last argument, or as stdout for a ``.stdout`` artifact."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree) / "src"))
    command = [sys.executable, "-m", "repro", *argv]
    if path.suffix != ".stdout":
        return subprocess.Popen([*command, str(path)], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
    with open(path, "wb") as out:
        return subprocess.Popen(command, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)


def commands(change, seeds):
    """``(artifact name, argv up to the output path)`` for every pair; a
    ``.stdout`` artifact's argv is complete."""
    listing = subprocess.run(
        [sys.executable, "-c", "import json; from repro.scenarios import "
         "SCENARIOS; print(json.dumps({n: list(s.faults) "
         "for n, s in SCENARIOS.items()}))"],
        env=dict(os.environ, PYTHONPATH=str(pathlib.Path(change) / "src")),
        stdout=subprocess.PIPE, check=True)
    for name, faults in json.loads(listing.stdout).items():
        for seed in seeds:
            at = [name, "--seed", str(seed)]
            stem = "%s_seed%s" % (name, seed)
            yield stem + ".trace.jsonl", ["trace", *at, "--jsonl"]
            yield stem + ".stats.json", ["stats", *at, "--json"]
            yield stem + ".spans.json", ["spans", *at, "--json"]
            yield stem + ".check.json", ["check", *at, "--json"]
            for kind in faults:
                yield "%s.check-%s.json" % (stem, kind), \
                    ["check", *at, "--faults", kind, "--json"]
    for stem, argv in STDOUT_RUNS.items():
        for seed in seeds:
            yield "%s_seed%s.stdout" % (stem, seed), [*argv, "--seed", seed]
    for name, rates in LOAD_RATES.items():
        base = ["loadtest", name, "--duration", "60"]
        for rate in rates:
            yield "loadtest_%s_rate%s.json" % (name, rate), \
                [*base, "--rate", str(rate), "--json"]
        yield "loadtest_%s.sweep.json" % name, \
            [*base, "--sweep", "%s..%s:3" % rates, "--json"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", default="0,1,7")
    args = parser.parse_args(argv)
    differing, total = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        sides = [pathlib.Path(scratch, side) for side in ("parent", "change")]
        for side in sides:
            side.mkdir()
        for artifact, command in commands(args.change, args.seeds.split(",")):
            total += 1
            runs = [_repro(tree, command, side / artifact)
                    for tree, side in zip((args.parent, args.change), sides)]
            for run in runs:
                run.wait()
            files = [side / artifact for side in sides]
            if not all(f.exists() for f in files) \
                    or not filecmp.cmp(*files, shallow=False):
                differing.append(artifact)
                print("DIFFERS %s  (repro %s)" % (artifact, " ".join(command)))
    print("%d artifacts compared, %d differ" % (total, len(differing)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
