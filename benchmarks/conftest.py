"""Shared benchmark plumbing.

Each benchmark regenerates one of the paper's figures/tables: it runs
the workload, renders the measured rows next to the paper's claim via
:func:`repro.analysis.render_table`, writes them to
``benchmarks/results/<experiment>.txt`` (the artifact EXPERIMENTS.md is
assembled from) and asserts the claim's *shape*.  Paper-shape benches
also emit their headline numbers (message totals, phase counts, fitted
complexity exponents, virtual-time latencies and knees) into
``BENCH_consensus.json`` at the repository root.  That file holds
deterministic shapes only: a full ``pytest benchmarks`` run reproduces
it byte for byte, and CI fails on any ``git diff`` of it, so a
wall-clock number (events/s, ms, overhead ratios) belongs in the
results table, never in the snapshot.
"""

import pathlib

import pytest

from repro.telemetry import BENCH_FILENAME, update_bench_snapshot

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_SNAPSHOT_PATH = pathlib.Path(__file__).parent.parent / BENCH_FILENAME


@pytest.fixture
def report():
    """``report(experiment_id, text)`` — persist one experiment's rows."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(experiment_id, text):
        path = RESULTS_DIR / ("%s.txt" % experiment_id)
        path.write_text(text + "\n")
        return path

    return write


@pytest.fixture
def bench_snapshot():
    """``bench_snapshot(experiment_id, **numbers)`` — merge one bench's
    headline numbers into the consolidated ``BENCH_consensus.json``."""

    def write(experiment_id, **numbers):
        return update_bench_snapshot(BENCH_SNAPSHOT_PATH, experiment_id,
                                     numbers)

    return write
