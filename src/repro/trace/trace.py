"""The :class:`Trace` container: an ordered event list with causal queries.

A trace is append-only during a run; afterwards it supports filtering
(by node, kind, message type, time window), exact *happened-before*
checks via lazily computed vector clocks, and per-request span
extraction.  Filtering returns a new :class:`Trace` over the selected
events; causal queries should be asked of the full trace, since a
filtered view may be missing the send half of a deliver edge.
"""

from .clock import VectorClock
from .events import DELIVER, LOCAL, REQUEST, SEND


class Trace:
    """An ordered collection of :class:`~repro.trace.events.TraceEvent`.

    Plain traces hold an eager event list; the tracer's live trace
    (:class:`~repro.trace.tracer._LiveTrace`) overrides :attr:`events`,
    :meth:`rows` and :attr:`base_seq` to read the recording ring in
    place.  Everything here works through those three, so both kinds
    answer the same queries.
    """

    _vc = None
    _vc_len = -1

    def __init__(self, events=None):
        self._events = list(events) if events else []

    # -- collection protocol ----------------------------------------------

    @property
    def events(self):
        return self._events

    def rows(self):
        """The raw rows ``(kind, time, node, peer, mtype, msg_id,
        payload)``, index-aligned with :attr:`events`, for readers that
        scan before they inflate.  ``payload`` is the detail pairs, or
        on a live trace the message itself (send/deliver rows) or the
        detail dict (milestone rows); read it with
        :func:`~repro.trace.tracer.row_get`."""
        return [(e.kind, e.time, e.node, e.peer, e.mtype, e.msg_id, e.detail)
                for e in self._events]

    @property
    def base_seq(self):
        """``seq`` of the first held event (a bounded ring evicts its
        prefix, so it can be > 0)."""
        return self._events[0].seq if self._events else 0

    def append(self, event):
        self._events.append(event)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    # -- filtering ---------------------------------------------------------

    def filter(self, kind=None, node=None, peer=None, mtype=None,
               t0=None, t1=None):
        """Events matching every given criterion, as a new :class:`Trace`.

        ``kind``/``node``/``peer``/``mtype`` accept a single value or a
        set/tuple of values; ``t0``/``t1`` bound the (inclusive) virtual
        time window.
        """
        def wants(criterion, value):
            if criterion is None:
                return True
            if isinstance(criterion, (set, frozenset, tuple, list)):
                return value in criterion
            return value == criterion

        selected = [
            e for e in self.events
            if wants(kind, e.kind) and wants(node, e.node)
            and wants(peer, e.peer) and wants(mtype, e.mtype)
            and (t0 is None or e.time >= t0)
            and (t1 is None or e.time <= t1)
        ]
        return Trace(selected)

    def sends(self, mtype=None):
        return self.filter(kind=SEND, mtype=mtype)

    def delivers(self, mtype=None):
        return self.filter(kind=DELIVER, mtype=mtype)

    def locals(self, label=None):
        return self.filter(kind=LOCAL, mtype=label)

    # -- spans -------------------------------------------------------------

    def span(self, label):
        """Events recorded between the start and end of request ``label``.

        Request boundaries come from
        :meth:`~repro.metrics.MetricsCollector.start_request` /
        ``finish_request``; the span is everything recorded in between
        (the trace is totally ordered by ``seq``).  An open request spans
        to the end of the trace.
        """
        start = end = None
        for event in self.events:
            if event.kind != REQUEST or event.mtype != label:
                continue
            if event.get("edge") == "start" and start is None:
                start = event.seq
            elif event.get("edge") == "end":
                end = event.seq
        if start is None:
            return Trace()
        return Trace([
            e for e in self.events
            if start <= e.seq and (end is None or e.seq <= end)
        ])

    # -- causality ---------------------------------------------------------

    def _vector_clocks(self):
        """seq -> :class:`VectorClock` (``None`` for node-less events).

        Computed lazily and cached against the trace length, so a live
        trace that has grown since the last causal query recomputes.
        """
        events = self.events
        if self._vc is not None and self._vc_len == len(events):
            return self._vc
        clocks = {}
        node_state = {}
        send_state = {}
        for event in events:
            if not event.node:
                clocks[event.seq] = None
                continue
            current = node_state.get(event.node, VectorClock())
            if event.kind == DELIVER and event.msg_id in send_state:
                current = current.merge(send_state[event.msg_id])
            current = current.tick(event.node)
            node_state[event.node] = current
            clocks[event.seq] = current
            if event.kind == SEND:
                send_state[event.msg_id] = current
        self._vc = clocks
        self._vc_len = len(events)
        return clocks

    def happens_before(self, a, b):
        """Exact happened-before: ``a -> b`` in Lamport's relation.

        Edges are per-node program order plus send->deliver pairs.
        Node-less events (phase marks, request boundaries) take no part
        in the relation and always return ``False``.
        """
        clocks = self._vector_clocks()
        va = clocks.get(a.seq)
        vb = clocks.get(b.seq)
        if va is None or vb is None or a.seq == b.seq:
            return False
        return va.happens_before(vb)

    def concurrent(self, a, b):
        """True iff neither event causally precedes the other."""
        clocks = self._vector_clocks()
        va = clocks.get(a.seq)
        vb = clocks.get(b.seq)
        if va is None or vb is None or a.seq == b.seq:
            return False
        return va.concurrent_with(vb)

    def causal_past(self, event):
        """All events that happened-before ``event``, as a new trace."""
        return Trace([e for e in self.events if self.happens_before(e, event)])

    def __repr__(self):
        return "Trace(%d events, %d nodes)" % (
            len(self.events), len({e.node for e in self.events if e.node}))
