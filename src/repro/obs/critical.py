"""Critical-path extraction and latency attribution for one span.

The anchors of a span (the req-correlated events the builder collected)
form a sub-graph of the run's happens-before relation: per-node program
order plus send->deliver message edges.  The *critical path* is found
by chaining backward from the span's end anchor:

* a deliver's predecessor is its matching send (``msg_id`` edge);
* anything else is preceded by the latest earlier anchor on the same
  node (program order).

Every step of the resulting chain is a real happens-before edge ending
at the event that unblocked the next one, so the chain *is* a path
through the happens-before graph from the span's start to its end —
and because each step's duration is the difference of consecutive
anchor times, the per-segment durations telescope: they sum to exactly
``end - start``.  That is the invariant the acceptance tests assert —
no request time is lost or double-counted by the attribution.

Each edge is then attributed to a named segment by what its *ending*
event represents: arriving messages are ``network``, waiting for a
proposal slot is ``propose-wait``, the quorum round is ``quorum-wait``,
state-machine application is ``apply``, and the coordinator's 2PC
rounds map to ``lock`` / ``2pc-prepare`` / ``2pc-commit`` (``apply``
for the single-shard fast path).
"""

from ..trace.events import DELIVER, LOCAL, SEND

#: Segment attributed to an edge ending at a milestone with this label.
SEGMENT_BY_LABEL = {
    "propose": "propose-wait",
    "commit": "quorum-wait",
    "apply": "apply",
    "txn_begin": "coord",
    "txn_round": "coord",
    "txn_timeout": "timeout",
    "txn_finish": "coord",
}

#: Segment attributed to a completed coordinator round, by round kind.
ROUND_SEGMENTS = {
    "txn_lock": "lock",
    "txn_apply": "apply",
    "txn_prepare": "2pc-prepare",
    "txn_commit": "2pc-commit",
    "txn_abort": "abort",
}


def classify(prev, event):
    """Name the segment of the happens-before edge ``prev -> event``."""
    if event.kind == DELIVER:
        return "network"
    if event.kind == LOCAL:
        if event.mtype == "txn_round_done":
            return ROUND_SEGMENTS.get(event.get("kind"), "other")
        return SEGMENT_BY_LABEL.get(event.mtype, "other")
    if event.kind == SEND:
        return "queue"
    return "other"


def critical_path(events, end):
    """The backward-chained anchor path ending at ``end``.

    ``events`` are the span's anchors in recording (``seq``) order and
    ``end`` is one of them; the returned list runs start -> end.
    """
    sends = {}
    before = {}  # seq -> the latest earlier anchor on the same node
    latest = {}
    for event in events:
        if event.kind == SEND and event.msg_id >= 0 \
                and event.msg_id not in sends:
            sends[event.msg_id] = event
        node = event.node
        if node:
            before[event.seq] = latest.get(node)
            latest[node] = event

    chain = [end]
    current = end
    while current is not None:
        earlier = None
        if current.kind == DELIVER:
            send = sends.get(current.msg_id)
            if send is not None and send.seq < current.seq:
                earlier = send
        if earlier is None:
            earlier = before.get(current.seq)
        if earlier is not None:
            chain.append(earlier)
        current = earlier
    chain.reverse()
    return chain


def attribute(span):
    """Fill ``span.start`` / ``span.path`` / ``span.segments``.

    The span's ``end`` anchor must already be resolved.  Segments are
    accumulated in path order, so the floats sum in a deterministic
    order (byte-stable reports).
    """
    if span.end is None:
        return span
    chain = critical_path(span.events, span.end)
    span.start = chain[0]
    path = []
    segments = {}
    for prev, event in zip(chain, chain[1:]):
        segment = classify(prev, event)
        path.append((segment, prev, event))
        segments[segment] = segments.get(segment, 0.0) \
            + (event.time - prev.time)
    span.path = path
    span.segments = segments
    return span
