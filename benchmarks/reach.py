"""Which functions under ``src/repro`` does nothing but a test enter?

    python3 benchmarks/reach.py > reach.txt      # ~4 min on 2 cores

Runs the product surface (every ``repro`` subcommand over every
``SCENARIOS`` row and fault kind, ``check --all``, ``shards``/``kv``/
``mine``/``loadtest`` variants, the examples, the E-series benches from
a temporary copy, ``benchmarks/e2e`` ``--smoke`` and selfcheck) and
then ``tests/``, each under a call recorder, and prints every function
entered by tests only or by nothing as ``file  qualname  lines  who``.
A candidate is not a verdict: a tests-only function is often a
legitimate oracle.

The recorder is ``sys.settrace`` (call events only), not ``setprofile``:
pytest-benchmark sets ``sys.setprofile(None)`` around every timed call
(the benches also run with ``--benchmark-disable``) and ``repro
profile``'s cProfile replaces the hook.  It lives in a ``sitecustomize``
on a temporary ``PYTHONPATH`` directory, switched on by an environment
variable, and dumps per pid at exit and before ``os._exit``: CLI
commands are subprocesses, fleet workers leave by ``os._exit``.  A
function is matched on its first decorator line, where its code starts.
"""

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

RECORDER = '''
import atexit, os, sys, threading
_dir = os.environ.get("REPRO_REACH_DIR")
if _dir:
    _src, _seen = os.environ["REPRO_REACH_SRC"], set()
    def _trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(_src):
            _seen.add((code.co_filename, code.co_firstlineno))
    def _dump():
        with open(os.path.join(_dir, "%d.tsv" % os.getpid()), "a") as out:
            out.writelines("%s\\t%d\\n" % key for key in _seen)
    os._exit = lambda status, _exit=os._exit: (_dump(), _exit(status))
    atexit.register(_dump)
    threading.settrace(_trace)
    sys.settrace(_trace)
'''


def cli_commands():
    sys.path.insert(0, str(SRC))
    from repro.scenarios import SCENARIOS
    load = "loadtest multi-paxos --duration 60 "
    lines = [
        "list", "table", "experiments", "check --all", "mine --duration 2000",
        "trace paxos --delivers --timers --jsonl out0",
        "stats paxos --json out1 --prom out2", "check pbft --json out3",
        "spans multi-paxos --req c0-0 --slo 50 --json out4 --chrome out5",
        "profile paxos --telemetry --monitors", "sweep paxos --workers 2",
        "shards --workers 2", "shards --split --monitors",
        "shards --crash-shard", "shards --protocol raft",
        "shards --protocol mixed", "shards --partitioning hash",
        "loadtest shards --duration 60", load + "--sweep 2..10:3 --workers 2",
        load + "--storm --arrivals diurnal --slo 50 --json out6"]
    lines += ["%s shards --workers 2" % sub
              for sub in ("trace", "stats", "check", "spans")]
    for protocol in ("multi-paxos", "raft", "pbft"):
        lines += ["kv --replicas 4 --protocol " + protocol,
                  "loadtest %s --duration 60 --monitors" % protocol]
    for name, row in SCENARIOS.items():
        lines += ["%s %s" % (sub, name) for sub in (
            "run", "trace", "stats", "spans", "profile", "check")]
        lines += ["sweep %s --seeds 0..1" % name]
        lines += ["check %s --faults %s" % (name, kind) for kind in row.faults]
    return [["-m", "repro", *line.split()] for line in lines]


def record(stage, scratch, runs):
    """Run each ``(argv, cwd)`` under the recorder; return the set of
    ``(file, first line)`` code objects entered."""
    dumps = scratch / stage
    dumps.mkdir()
    env = dict(os.environ, REPRO_REACH_DIR=str(dumps),
               REPRO_REACH_SRC=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(scratch / "hook"), str(SRC)]))
    for argv, cwd in runs:
        print("[%s] %s" % (stage, " ".join(argv)[:70]), file=sys.stderr)
        subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                       stdout=subprocess.DEVNULL)
    rows = (row.split("\t") for dump in dumps.iterdir()
            for row in dump.read_text().splitlines())
    # A worker its parent kills mid-dump leaves a torn last row.
    return {(row[0], int(row[1])) for row in rows
            if len(row) == 2 and row[1].isdigit()}


def functions(node, prefix=""):
    """``(first line, qualname, lines)`` of every def below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno,
                         *(d.lineno for d in child.decorator_list)])
            yield first, prefix + child.name, child.end_lineno - first + 1
            yield from functions(child, prefix + child.name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, prefix + child.name + ".")
        else:
            yield from functions(child, prefix)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        (scratch / "hook").mkdir()
        (scratch / "hook" / "sitecustomize.py").write_text(RECORDER)
        shutil.copytree(ROOT / "benchmarks", scratch / "benchmarks",
                        ignore=shutil.ignore_patterns("e2e", "__pycache__"))
        shutil.copy(ROOT / "BENCH_consensus.json", scratch)
        pytest = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
        product = record("product", scratch, [
            *((argv, scratch) for argv in cli_commands()),
            *(([str(path)], scratch)
              for path in sorted((ROOT / "examples").glob("*.py"))),
            ([*pytest, "--benchmark-disable", "benchmarks"], scratch),
            (["benchmarks/e2e/run.py", "--smoke"], ROOT),
            ([*pytest, "benchmarks/e2e/test_selfcheck.py"], ROOT)])
        tests = record("tests", scratch, [([*pytest, "tests"], ROOT)])
    for path in sorted((SRC / "repro").rglob("*.py")):
        for first, qualname, lines in functions(ast.parse(path.read_text())):
            if (str(path), first) not in product:
                print("%s  %s  %d  %s" % (
                    path.relative_to(ROOT), qualname, lines,
                    "tests" if (str(path), first) in tests else "nothing"))


if __name__ == "__main__":
    main()
