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
anchor represents, so the builder classifies each anchor once:
arriving messages are ``network``, waiting for a proposal slot is
``propose-wait``, the quorum round is ``quorum-wait``, state-machine
application is ``apply``, and the coordinator's rounds before its
reply map to ``lock`` / ``2pc-prepare`` (``lock`` alone when a
key-local lock entry stages the writes, ``apply`` for a single-shard
transaction's one ``txn_exec`` round).  A commit round completes after
the transaction's ``txn_finish``, so it is never on a transaction's
path.

Anchors are indices into the builder's
:class:`~repro.obs.spans.Anchors` columns, and every span's path is one
run of the table's shared ``path`` column: a garbage collection walks
no object per path.
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
    "txn_exec": "apply",
    "txn_prepare": "2pc-prepare",
    "txn_abort": "abort",
}


def classify(kind, label, round_kind=None):
    """Name the segment of a happens-before edge by its ending anchor's
    ``kind`` and ``label`` (its mtype); ``round_kind`` is the ``kind``
    detail a ``txn_round_done`` milestone carries."""
    if kind == DELIVER:
        return "network"
    if kind == LOCAL:
        if label == "txn_round_done":
            return ROUND_SEGMENTS.get(round_kind, "other")
        return SEGMENT_BY_LABEL.get(label, "other")
    if kind == SEND:
        return "queue"
    return "other"


def critical_path(table, anchors, end):
    """The backward-chained anchor path ending at ``end``.

    ``anchors`` are the span's indices into the
    :class:`~repro.obs.spans.Anchors` ``table``, in recording order (an
    anchor's index orders it like its ``seq``), and ``end`` is one of
    them; the returned list of anchor indices runs start -> end.
    """
    kinds, nodes, msg_ids = table.kind, table.node, table.msg_id
    sends = {}
    before = {}  # anchor -> the latest earlier anchor on the same node
    latest = {}
    for anchor in anchors:
        if kinds[anchor] == SEND:
            msg_id = msg_ids[anchor]
            if msg_id >= 0 and msg_id not in sends:
                sends[msg_id] = anchor
        node = nodes[anchor]
        if node:
            before[anchor] = latest.get(node)
            latest[node] = anchor

    chain = [end]
    current = end
    while current is not None:
        earlier = None
        if kinds[current] == DELIVER:
            send = sends.get(msg_ids[current])
            if send is not None and send < current:
                earlier = send
        if earlier is None:
            earlier = before.get(current)
        if earlier is not None:
            chain.append(earlier)
        current = earlier
    chain.reverse()
    return chain


def attribute(span):
    """Fill ``span.start`` / ``span.path`` (its run of the table's
    ``path`` column) / ``span.segments``.

    The span's ``end`` anchor must already be resolved.  Segments are
    accumulated in path order, so the floats sum in a deterministic
    order (byte-stable reports).
    """
    if span.end is None:
        return span
    table = span.table
    chain = critical_path(table, span.anchors, span.end)
    span.start = chain[0]
    times, segment_of = table.time, table.segment
    segments = {}
    prev = chain[0]
    for anchor in chain[1:]:
        segment = segment_of[anchor]
        segments[segment] = segments.get(segment, 0.0) \
            + (times[anchor] - times[prev])
        prev = anchor
    paths = table.path
    span.path_from = len(paths)
    paths.extend(chain)
    span.path_to = len(paths)
    span.segments = segments
    return span
