"""Request spans: per-request structure derived lazily from a trace.

The tracer records flat events; this module folds them into *spans* —
one per client request or distributed transaction — after the run, from
the trace alone.  Nothing here runs on the hot path: deriving spans is
a pure function of the recorded trace (and therefore deterministic and
byte-stable across same-seed runs and parallel worker counts).

Correlation works through the ``req`` id each participating event
carries:

* message events (send/deliver) expose the message's ``request_id``
  through the tracer's detail plan;
* protocol milestones (``propose``/``commit``/``apply``) and the
  transaction coordinator's ``txn_*`` milestones carry an explicit
  ``req=`` detail pair.

Transaction round requests are named ``<txid>-<round>-<n>`` by the
coordinator, so a cross-shard commit folds into a span *tree*: the txn
root span (coordinator milestones) with one child span per per-shard
consensus round — Gray & Lamport's decomposition made visible.

:class:`SpanBuilder` groups the anchors, :mod:`repro.obs.critical`
chains them into the critical path and attributes latency to named
segments, and :func:`spans_report` assembles the deterministic JSON
artifact behind ``python -m repro spans``.
"""

from ..telemetry.instruments import Histogram, _finite
from ..trace.events import DELIVER, LOCAL, SEND
from ..trace.tracer import row_get
from .critical import attribute, classify

#: Schema tag for the JSON spans report.
SCHEMA = "repro.obs.spans/1"

#: Round kinds the transaction coordinator names its sub-requests after.
TXN_ROUND_KINDS = ("txn_lock", "txn_exec", "txn_prepare", "txn_commit",
                   "txn_abort")

_ROUND_MARKERS = tuple(("-%s-" % kind, kind) for kind in TXN_ROUND_KINDS)

#: Coordinator milestone labels anchoring a transaction's root span.
TXN_LABELS = frozenset({"txn_begin", "txn_round", "txn_round_done",
                        "txn_timeout", "txn_finish"})


def parse_request_id(rid):
    """``(txid, round_kind)`` for a coordinator round request id.

    Round requests are named ``<txid>-<round_kind>-<seq>`` (timeout
    aborts: ``<txid>-timeout-abort-<seq>``); anything else — a plain
    client request id — returns ``(None, None)``.
    """
    marker = "-timeout-abort-"
    pos = rid.find(marker)
    if pos > 0 and rid[pos + len(marker):].isdigit():
        return rid[:pos], "txn_abort"
    for marker, kind in _ROUND_MARKERS:
        pos = rid.find(marker)
        if pos > 0 and rid[pos + len(marker):].isdigit():
            return rid[:pos], kind
    return None, None


#: The detail key holding a row's request id, by kind: messages expose
#: their ``request_id`` field, milestones carry an explicit ``req=``.
REQUEST_KEYS = {SEND: "request_id", DELIVER: "request_id", LOCAL: "req"}


class Anchors:
    """The req-carrying rows of one trace, as parallel columns.

    :meth:`SpanBuilder.build` collects one entry of :data:`FIELDS` per
    anchor, in recording order, into a flat list and cuts it into these
    columns; every span it derives holds indices into them
    (``Span.anchors``, ``start``, ``end``, ``path``), so deriving spans
    builds no object per anchor.  ``segment`` names what an edge ending
    at the anchor is attributed to
    (:func:`~repro.obs.critical.classify`).  ``path`` holds every span's
    critical path, one run of anchor indices per span, so a path is no
    object a garbage collection walks either.
    """

    FIELDS = ("seq", "time", "kind", "node", "mtype", "msg_id", "segment")
    __slots__ = FIELDS + ("path",)

    def __init__(self, flat):
        width = len(self.FIELDS)
        for offset, name in enumerate(self.FIELDS):
            setattr(self, name, flat[offset::width])
        self.path = []


class Span:
    """One request's (or transaction's, or round's) derived span.

    Attributes are filled in two stages: the builder collects the
    ``anchors`` (a list of indices into the shared :class:`Anchors`
    ``table``) and resolves ``end``/``completed``; the critical module
    then sets ``start``, the span's run ``path_from``/``path_to`` of the
    table's ``path`` column (the happens-before chain from start to end,
    read as :attr:`path`) and ``segments`` (segment name -> summed
    duration).  The segment durations telescope, so they sum to exactly
    ``latency``.  Only a transaction has ``children`` (its rounds).
    """

    __slots__ = ("req", "kind", "round_kind", "table", "anchors",
                 "children", "start", "end", "completed", "outcome",
                 "path_from", "path_to", "segments")

    def __init__(self, req, kind, round_kind, table, anchors):
        self.req = req
        self.kind = kind  # "request" | "txn" | "round"
        self.round_kind = round_kind
        self.table = table
        self.anchors = anchors
        self.children = [] if kind == "txn" else ()
        self.start = None
        self.end = None
        self.completed = False
        self.outcome = None
        self.path_from = self.path_to = 0
        self.segments = {}

    @property
    def path(self):
        """The critical path's anchor indices, start -> end."""
        return self.table.path[self.path_from:self.path_to]

    @property
    def start_time(self):
        return self.table.time[self.start] if self.start is not None \
            else None

    @property
    def end_time(self):
        return self.table.time[self.end] if self.end is not None else None

    @property
    def latency(self):
        if self.start is None or self.end is None:
            return None
        times = self.table.time
        return times[self.end] - times[self.start]

    def steps(self):
        """The critical path's edges, start -> end, as ``(segment,
        prev, anchor)`` triples of a segment name and two anchor
        indices."""
        path = self.path
        segment_of = self.table.segment
        return [(segment_of[anchor], prev, anchor)
                for prev, anchor in zip(path, path[1:])]

    def __repr__(self):
        state = "completed" if self.completed else "abandoned"
        return "Span(%s, %s, %s, %d anchors, %d children)" % (
            self.req, self.kind, state, len(self.anchors),
            len(self.children))


class SpanBuilder:
    """Folds a :class:`~repro.trace.trace.Trace` into root spans.

    One pass over the trace's raw rows collects the req-carrying
    anchors into one :class:`Anchors` table and buckets their indices
    per request id; a second pass resolves each bucket into a
    :class:`Span`, parents rounds under their transaction, and runs the
    critical-path attribution.  No event is built and no clock is
    read.  The result is sorted by first-anchor order, so it is as
    deterministic as the trace itself.
    """

    def __init__(self, trace):
        self.trace = trace

    def build(self):
        """Derive and return the list of root :class:`Span` objects."""
        flat = []
        extend = flat.extend
        buckets = {}
        outcomes = {}
        anchor = 0
        for seq, row in enumerate(self.trace.rows(), self.trace.base_seq):
            kind = row[0]
            key = REQUEST_KEYS.get(kind)
            rid = row_get(row, key) if key is not None else None
            if rid is None:
                continue
            bucket = buckets.get(rid)
            if bucket is None:
                bucket = buckets[rid] = []
            bucket.append(anchor)
            mtype = row[4]
            round_kind = None
            if kind == LOCAL:
                if mtype == "txn_round_done":
                    round_kind = row_get(row, "kind")
                elif mtype == "txn_finish":
                    outcomes[anchor] = row_get(row, "outcome")
            extend((seq, row[1], kind, row[2], mtype, row[5],
                    classify(kind, mtype, round_kind)))
            anchor += 1
        table = Anchors(flat)
        kinds, mtypes = table.kind, table.mtype

        spans = {}
        roots = []
        rounds = []
        for rid, bucket in buckets.items():
            txid, round_kind = parse_request_id(rid)
            if txid is not None:
                span = Span(rid, "round", round_kind, table, bucket)
                rounds.append((txid, span))
            elif any(kinds[a] == LOCAL and mtypes[a] in TXN_LABELS
                     for a in bucket):
                span = Span(rid, "txn", None, table, bucket)
                roots.append(span)
            else:
                span = Span(rid, "request", None, table, bucket)
                roots.append(span)
            spans[rid] = span
        # Parent rounds under their transaction (in first-anchor order);
        # a round whose txn never produced a milestone — possible with a
        # bounded ring that evicted the coordinator's prefix — becomes
        # its own root so no anchor is silently dropped.
        for txid, span in rounds:
            parent = spans.get(txid)
            if parent is not None and parent.kind == "txn":
                parent.children.append(span)
            else:
                roots.append(span)
        for span in spans.values():
            self._resolve_end(span, outcomes)
            attribute(span)
        return roots

    @staticmethod
    def _resolve_end(span, outcomes):
        """Pick the span's end anchor and completion verdict.

        A transaction completes at its ``txn_finish`` milestone (whose
        ``outcome`` detail ``outcomes`` holds, by anchor); a request (or
        round) completes when a reply message reaches the requester —
        the node that sent the first request message.  Anything else
        (crash mid-2PC, an abort to a group that never came back) is an
        *abandoned* span ending at its last anchor.
        """
        table = span.table
        kinds, nodes, mtypes = table.kind, table.node, table.mtype
        anchors = span.anchors
        if span.kind == "txn":
            for anchor in anchors:
                if kinds[anchor] == LOCAL and mtypes[anchor] == "txn_finish":
                    span.end = anchor
                    span.completed = True
                    span.outcome = outcomes[anchor]
                    return
            span.end = anchors[-1]
            return
        requester = None
        for anchor in anchors:
            if kinds[anchor] == SEND:
                requester = nodes[anchor]
                break
        if requester is None:
            requester = nodes[anchors[0]]
        for anchor in anchors:
            if kinds[anchor] == DELIVER and nodes[anchor] == requester \
                    and mtypes[anchor].endswith("reply"):
                span.end = anchor
                span.completed = True
                return
        span.end = anchors[-1]


def span_to_dict(span, with_children=True):
    """Plain-dict form of one span for the JSON report."""
    table = span.table
    path = span.path
    # Each inner anchor ends one step and starts the next: round once.
    times = [_finite(table.time[anchor]) for anchor in path]
    entry = {
        "req": span.req,
        "kind": span.kind,
        "start": _finite(span.start_time),
        "end": _finite(span.end_time),
        "latency": _finite(span.latency),
        "completed": span.completed,
        "segments": {name: _finite(value)
                     for name, value in sorted(span.segments.items())},
        "critical_path": [
            {
                "segment": table.segment[anchor],
                "t0": t0,
                "t1": t1,
                "node": table.node[anchor],
                "kind": table.kind[anchor],
                "mtype": table.mtype[anchor],
            }
            for anchor, t0, t1 in zip(path[1:], times, times[1:])
        ],
    }
    if span.kind == "txn":
        entry["outcome"] = span.outcome
    if span.kind == "round":
        entry["round"] = span.round_kind
    if with_children and span.children:
        entry["rounds"] = [span_to_dict(child, with_children=False)
                           for child in span.children]
    return entry


def spans_report(spans, protocol="", seed=None, virtual_time=None,
                 window=100.0, slo=None, slo_budget=0.01):
    """Assemble the deterministic spans report as a plain dict.

    Serialise with :func:`repro.telemetry.report_to_json` /
    ``write_report`` — same canonical recipe (sorted keys, compact
    separators, trailing newline), so same-seed runs and every parallel
    worker count produce byte-identical output.
    """
    from .timeseries import build_timeseries, slo_summary
    completed = [s for s in spans if s.completed]
    latency = Histogram()
    segment_totals = {}
    for span in completed:
        latency.observe(span.latency)
        for name, value in span.segments.items():
            segment_totals[name] = segment_totals.get(name, 0.0) + value
    report = {
        "schema": SCHEMA,
        "protocol": str(protocol),
        "seed": seed,
        "virtual_time": _finite(virtual_time),
        "requests": [span_to_dict(span) for span in spans],
        "summary": {
            "requests": len(spans),
            "completed": len(completed),
            "abandoned": len(spans) - len(completed),
            "txns": sum(1 for s in spans if s.kind == "txn"),
            "latency": latency.summary(),
            "segments": {name: _finite(value)
                         for name, value in sorted(segment_totals.items())},
        },
        "timeseries": build_timeseries(spans, window=window, slo=slo),
    }
    if slo is not None:
        report["slo"] = slo_summary(spans, slo, budget=slo_budget,
                                    rows=report["timeseries"])
    return report


# -- ASCII waterfall ---------------------------------------------------------

#: Bar width of the waterfall's full span, in characters.
WATERFALL_WIDTH = 44


def render_waterfall(span, width=WATERFALL_WIDTH, indent=""):
    """Render one span's critical path as an ASCII waterfall.

    One row per critical-path step, with the bar positioned at the
    step's offset inside the span; transaction spans append their round
    children, indented.
    """
    lines = []
    state = "completed" if span.completed else "ABANDONED"
    extra = " outcome=%s" % span.outcome if span.outcome else ""
    lines.append("%sspan %s (%s) t=[%g .. %g] latency %g %s%s"
                 % (indent, span.req, span.kind, span.start_time,
                    span.end_time, span.latency, state, extra))
    total = span.latency or 0.0
    scale = (width / total) if total > 0 else 0.0
    table = span.table
    for segment, prev, anchor in span.steps():
        t0 = table.time[prev] - span.start_time
        t1 = table.time[anchor] - span.start_time
        lead = int(round(t0 * scale))
        span_chars = max(int(round((t1 - t0) * scale)), 0)
        if t1 > t0 and span_chars == 0:
            span_chars = 1
        lead = min(lead, width - span_chars)
        bar = " " * lead + "#" * span_chars
        lines.append("%s  %-12s %8.3f |%-*s| %s %s"
                     % (indent, segment, t1 - t0, width, bar,
                        table.node[anchor] or "-", table.mtype[anchor]))
    for child in span.children:
        lines.extend(render_waterfall(child, width=width,
                                      indent=indent + "    "))
    return lines


def render_spans_summary(report):
    """Human-oriented ASCII rendering of a spans report."""
    lines = []
    summary = report["summary"]
    lines.append("spans: %s (seed %s)" % (report["protocol"],
                                          report["seed"]))
    lines.append("  %d request(s): %d completed, %d abandoned, %d txn(s)"
                 % (summary["requests"], summary["completed"],
                    summary["abandoned"], summary["txns"]))
    digest = summary["latency"]
    if digest["count"]:
        lines.append("  latency: p50=%s p90=%s p99=%s p999=%s max=%s"
                     % tuple(digest[k] for k in
                             ("p50", "p90", "p99", "p999", "max")))
    if summary["segments"]:
        total = sum(summary["segments"].values()) or 1.0
        lines.append("  attribution (all completed requests):")
        for name, value in sorted(summary["segments"].items(),
                                  key=lambda item: (-item[1], item[0])):
            lines.append("    %-12s %10.3f  (%4.1f%%)"
                         % (name, value, 100.0 * value / total))
    for row in report["timeseries"]:
        slo_part = ""
        if "violations" in row:
            slo_part = " | %d violation(s)" % row["violations"]
        lines.append("  window [%g..%g): %d req, p99=%s%s"
                     % (row["t0"], row["t1"], row["count"],
                        row["latency"]["p99"], slo_part))
    slo = report.get("slo")
    if slo is not None:
        lines.append("  slo %g: compliance %.4f, burn rate %.2fx "
                     "(budget %g, worst window %.2fx)"
                     % (slo["threshold"], slo["compliance"],
                        slo["burn_rate"], slo["budget"],
                        slo["worst_window_burn_rate"]))
    return "\n".join(lines)
