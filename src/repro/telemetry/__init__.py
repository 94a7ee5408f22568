"""Telemetry: labeled metrics, latency histograms and run reports.

The measurement counterpart of :mod:`repro.trace`.  The tracer answers
"what happened, in what order"; this package answers "how much, how
fast, and is it regressing":

* :class:`MetricsRegistry` — labeled :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments, interned per ``(name, labels)``
  series.
* :data:`NULL_REGISTRY` — the disabled twin handing out shared no-op
  instruments, so an un-instrumented run pays nothing (the same opt-in
  contract as the tracer).
* :func:`to_prometheus` — Prometheus text exposition of a registry.
* :func:`run_report` / :func:`report_to_json` — the deterministic
  (same-seed byte-identical) JSON run artifact.
* :func:`render_summary` — the ASCII report behind
  ``python -m repro stats``.
* :func:`update_bench_snapshot` — the consolidated
  ``BENCH_consensus.json`` writer the benchmark suite feeds with
  deterministic shapes only (no wall-clock rows), so the committed file
  is reproduced byte for byte and gated by ``git diff``.

Enable per cluster with ``Cluster(telemetry=True)``; the registry then
hangs off ``cluster.telemetry`` and the substrate (network, simulator
timers, fault plans, metrics collector) records into it.
"""

from .bench import BENCH_FILENAME, load_bench_snapshot, update_bench_snapshot
from .exposition import to_prometheus, write_prometheus
from .instruments import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from .registry import NULL_REGISTRY, MetricsRegistry, NullRegistry
from .render import render_histogram, render_summary
from .report import report_to_json, run_report, series_to_dict, write_report

__all__ = [
    "BENCH_FILENAME",
    "DEFAULT_BUCKETS",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "load_bench_snapshot",
    "render_histogram",
    "render_summary",
    "report_to_json",
    "run_report",
    "series_to_dict",
    "to_prometheus",
    "update_bench_snapshot",
    "write_prometheus",
    "write_report",
]
