"""Windowed latency/segment time-series and SLO summaries over spans.

Spans are bucketed into fixed-width *virtual-time* windows by their
completion time; each window reuses :class:`~repro.telemetry.Histogram`
for the latency distribution (p50/p90/p99/p999) and sums the critical
path's segment durations — the "where did this minute's p99 go" view
that explaining the system's own latency needs.  Only completed spans
enter the series:
abandoned requests have no defined latency.

The SLO summary follows the burn-rate convention: with an error budget
of ``budget`` (default 1% of requests allowed over the threshold), a
burn rate of 1.0 means the budget is being consumed exactly at its
sustainable rate, and N means N times too fast.  The worst single
window's burn rate is reported alongside the whole-run rate, since a
short spike can hide inside a compliant average.
"""

from ..telemetry.instruments import Histogram, _finite

#: Default window width, in virtual-time units.
DEFAULT_WINDOW = 100.0


def build_timeseries(spans, window=DEFAULT_WINDOW, slo=None):
    """Per-window latency/segment rows for the completed root spans.

    Returns a list of dicts sorted by window start; windows with no
    completed span are omitted (the series is sparse).
    """
    if not window or window <= 0:
        window = DEFAULT_WINDOW
    buckets = {}
    for span in spans:
        if not span.completed:
            continue
        index = int(span.end_time // window)
        bucket = buckets.get(index)
        if bucket is None:
            bucket = buckets[index] = {
                "histogram": Histogram(),
                "segments": {},
                "violations": 0,
            }
        bucket["histogram"].observe(span.latency)
        for name, value in span.segments.items():
            bucket["segments"][name] = \
                bucket["segments"].get(name, 0.0) + value
        if slo is not None and span.latency > slo:
            bucket["violations"] += 1
    rows = []
    for index in sorted(buckets):
        bucket = buckets[index]
        histogram = bucket["histogram"]
        row = {
            "t0": _finite(index * window),
            "t1": _finite((index + 1) * window),
            "count": histogram.count,
            "latency": histogram.summary(),
            "segments": {name: _finite(value)
                         for name, value in
                         sorted(bucket["segments"].items())},
        }
        if slo is not None:
            row["violations"] = bucket["violations"]
            row["violation_fraction"] = _finite(
                bucket["violations"] / histogram.count)
        rows.append(row)
    return rows


def slo_summary(spans, threshold, budget=0.01, window=DEFAULT_WINDOW,
                rows=None):
    """Whole-run SLO verdict for the completed root spans.

    ``threshold`` is the latency objective in virtual-time units;
    ``budget`` the allowed violation fraction.  Burn rate is the
    violation fraction divided by the budget — above 1.0 the error
    budget is being consumed faster than it regenerates.  ``rows`` are
    the :func:`build_timeseries` rows for this ``threshold`` when the
    caller already holds them (the worst window is read off those, so
    it is a window the report prints); otherwise built at ``window``.
    """
    completed = [span for span in spans if span.completed]
    violations = sum(1 for span in completed if span.latency > threshold)
    total = len(completed)
    fraction = (violations / total) if total else 0.0
    if rows is None:
        rows = build_timeseries(spans, window=window, slo=threshold)
    worst = max((row["violation_fraction"] / budget for row in rows),
                default=0.0)
    return {
        "threshold": _finite(float(threshold)),
        "budget": _finite(float(budget)),
        "requests": total,
        "violations": violations,
        "violation_fraction": _finite(fraction),
        "compliance": _finite(1.0 - fraction),
        "burn_rate": _finite(fraction / budget),
        "worst_window_burn_rate": _finite(worst),
    }
