"""Observability over traces: request spans, critical-path attribution,
windowed SLO time-series, and Chrome-trace export.

Everything in this package is *derived* — a pure, deterministic
function of an already-recorded :class:`~repro.trace.trace.Trace`.  No
hot-path hooks live here, so span analysis costs nothing until asked
for (the PR 6 cost model), and a merged parallel trace yields byte-for-
byte the same spans as a sequential one.
"""

from .critical import ROUND_SEGMENTS, SEGMENT_BY_LABEL, attribute, critical_path
from .export_chrome import chrome_to_json, to_chrome, write_chrome
from .spans import (
    SCHEMA,
    Anchors,
    Span,
    SpanBuilder,
    parse_request_id,
    render_spans_summary,
    render_waterfall,
    span_to_dict,
    spans_report,
)
from .timeseries import DEFAULT_WINDOW, build_timeseries, slo_summary

__all__ = [
    "Anchors",
    "DEFAULT_WINDOW",
    "ROUND_SEGMENTS",
    "SCHEMA",
    "SEGMENT_BY_LABEL",
    "Span",
    "SpanBuilder",
    "attribute",
    "build_timeseries",
    "chrome_to_json",
    "critical_path",
    "parse_request_id",
    "render_spans_summary",
    "render_waterfall",
    "slo_summary",
    "span_to_dict",
    "spans_report",
    "to_chrome",
    "write_chrome",
]
