"""Consolidated benchmark snapshot: ``BENCH_consensus.json``.

Every paper-shape ``benchmarks/test_bench_*.py`` emits its headline
numbers — message totals, phase counts, fitted complexity exponents,
virtual-time latencies and knees — through :func:`update_bench_snapshot`
into one JSON file at the repository root.  Each bench owns one entry
keyed by its experiment id, and entries merge (read–update–write) so a
partial benchmark run refreshes only its own rows.  The snapshot holds
deterministic shapes only — nothing measured in wall-clock time — so a
full benchmark run reproduces it byte for byte and ``git diff`` is its
gate; sorted keys and rounded floats keep that diff readable.
"""

import json
import pathlib

from ..ioutil import ensure_parent

#: Bench snapshot file name, expected at the repository root.
BENCH_FILENAME = "BENCH_consensus.json"

SCHEMA = "repro.telemetry.bench_snapshot/1"


def _clean(value):
    """Make ``value`` JSON-fit: round floats, stringify exotic types."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): _clean(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return str(value)


def load_bench_snapshot(path):
    """The existing benches dict at ``path`` ({} when the file is absent).

    A file that is present but unparseable, or whose ``benches`` is not
    a dict, raises ``ValueError`` naming ``path``: merging into it would
    overwrite every other bench's entry.
    """
    path = pathlib.Path(path)
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError("%s is not a bench snapshot: %s" % (path, exc)) \
            from exc
    benches = data.get("benches") if isinstance(data, dict) else None
    if not isinstance(benches, dict):
        raise ValueError("%s has no 'benches' dict" % path)
    return benches


def update_bench_snapshot(path, bench_id, payload):
    """Merge one bench's headline numbers into the snapshot at ``path``.

    Returns the full benches dict after the update.
    """
    path = pathlib.Path(path)
    benches = load_bench_snapshot(path)
    benches[str(bench_id)] = _clean(dict(payload))
    document = {"schema": SCHEMA, "benches": benches}
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    with open(ensure_parent(path), "w", encoding="utf-8",
              newline="\n") as handle:
        handle.write(text)
    return benches
