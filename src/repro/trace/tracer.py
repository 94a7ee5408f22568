"""The :class:`Tracer`: the recording half of the trace subsystem.

A tracer is attached (opt-in) by :class:`~repro.core.cluster.Cluster`;
the network, the timer wheel and the metrics collector each hold a
reference and call the ``on_*`` hooks below.  Every hook site guards
with ``if tracer is not None`` so a tracer-less run pays exactly one
attribute load and comparison per site — the zero-overhead-when-disabled
contract.

The record path is deliberately skeletal — the near-free-when-enabled
half of the contract.  Each hook builds one row ``(kind, time, node,
peer, mtype, msg_id, payload)``, extends the ring with its fields and
hands the row to the interested sinks; the row tuple itself is not
kept.  The ring is one flat sequence, :data:`ROW_WIDTH` slots per row
(a plain list by default, a bounded ``deque`` when ``capacity`` is
set), so it holds no container per row: a garbage collection walking
it meets strings, floats and ints it never tracks, and the recorded
messages.  The ring is also the query format: :meth:`Trace.rows`
regroups it into row tuples as it is read, and the live trace's
``events`` is a view that inflates a
:class:`~repro.trace.events.TraceEvent` (``detail`` string pairs,
Lamport clock) per row *read*, never per row recorded.  Payloads stay
as recorded — a send/deliver row holds the message itself, a milestone
row the detail dict its node passed — and become sorted string pairs
only when read (:func:`row_detail`, :func:`row_get`); message fields
come through a per-class plan compiled on first sight (mirroring
``Message._size_plan``), so the hot path never probes attributes.

Streaming sinks (the monitor hub) register *typed* interest via
:meth:`Tracer.subscribe`, the one streaming lane: a per-event-kind (and
optionally per-mtype) subscription table means a row with no interested
sink costs only the tuple append, and a matching sink is handed that
same ring row — nothing is built for it, however many sinks match.
Sinks read fields with :func:`row_get`; clocks stay a read-time
product (no streaming consumer in the library reads clocks online;
causal context is rendered from the trace view).  Nothing here touches
the simulator's RNG or schedules events, so enabling tracing cannot
perturb a run.
"""

from collections import deque
from collections.abc import Sequence

from .events import (
    DELIVER,
    DROP,
    KINDS,
    LOCAL,
    PHASE,
    REQUEST,
    SEND,
    TIMER,
    TraceEvent,
    canonical_detail,
)
from .trace import Trace

#: Slots one row takes in the flat ring.
ROW_WIDTH = 7

#: Message attributes lifted into event ``detail`` when present — the
#: protocol-identifying fields (ballot, view, seq, ...) that causal
#: invariants match on.  Values are stringified, so anything with a
#: deterministic ``str`` works (e.g. :class:`~repro.core.ballot.Ballot`).
DETAIL_ATTRS = ("ballot", "view", "seq", "round", "height", "term", "index",
                "digest", "request_id", "txid")
_DETAIL_KEYS = frozenset(DETAIL_ATTRS)

#: attrs-to-extract per message class, compiled on first instance seen.
#: Message classes are dataclasses with a fixed field set, so one
#: instance's attribute inventory speaks for the class.
_DETAIL_PLANS = {}


def _message_detail(message):
    """``detail`` pairs for a message, via the class's compiled plan."""
    plan = _DETAIL_PLANS.get(message.__class__)
    if plan is None:
        plan = _DETAIL_PLANS[message.__class__] = tuple(
            attr for attr in DETAIL_ATTRS if hasattr(message, attr))
    pairs = []
    for attr in plan:
        value = getattr(message, attr)
        if value is not None:
            pairs.append((attr, str(value)))
    return tuple(pairs)


def _compile_row(entries):
    """Compile ``[(mfilter, sink), ...]`` into ``(catchall, by_mtype)``.

    ``catchall`` is the tuple of unfiltered sinks; ``by_mtype`` maps
    each subscribed mtype to the tuple of sinks filtered onto it.  The
    dispatch hooks then route an event with one dict probe instead of
    testing it against every sink's filter — the difference between
    O(sinks) and O(1) on pbft's ack-heavy deliver stream.  Catchall
    sinks fire before filtered ones; monitors are independent observers
    (each sees only its own subscribed stream), so relative sink order
    within one event is not observable.
    """
    catchall = tuple(sink for mfilter, sink in entries if mfilter is None)
    by_mtype = {}
    for mfilter, sink in entries:
        if mfilter is None:
            continue
        for mtype in mfilter:
            by_mtype.setdefault(mtype, []).append(sink)
    return catchall, {mtype: tuple(sinks)
                      for mtype, sinks in by_mtype.items()}


def _grouped(flat):
    """The row tuples of a flat ring (or of a slice of one), in order."""
    fields = iter(flat)
    return zip(*(fields,) * ROW_WIDTH)


def row_detail(row):
    """``detail`` pairs of a raw row: live send/deliver rows hold the
    message itself, milestone rows the detail dict their node passed,
    every other row its pairs."""
    payload = row[6]
    if payload.__class__ is tuple:
        return payload
    if payload.__class__ is dict:
        return canonical_detail(payload)
    return _message_detail(payload)


def row_get(row, key):
    """``event.get(key)`` answered from the raw row, no event built."""
    payload = row[6]
    if payload.__class__ is tuple:
        for k, v in payload:
            if k == key:
                return v
        return None
    if payload.__class__ is dict:
        return str(payload[key]) if key in payload else None
    value = getattr(payload, key, None) if key in _DETAIL_KEYS else None
    return None if value is None else str(value)


class _RowView(Sequence):
    """The ring's rows as ``(kind, time, node, peer, mtype, msg_id,
    payload)`` tuples, regrouped as they are read; holds nothing."""

    def __init__(self, ring):
        self._ring = ring

    def __len__(self):
        return len(self._ring) // ROW_WIDTH

    def __getitem__(self, index):
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("trace row index out of range")
        ring = self._ring
        start = index * ROW_WIDTH
        return tuple([ring[i] for i in range(start, start + ROW_WIDTH)])

    def __iter__(self):
        return _grouped(self._ring)


class _RingView(Sequence):
    """Read-only sequence of :class:`TraceEvent` over a tracer's ring.

    Holds no event: ``len`` is the ring's, and indexing, slicing and
    iteration inflate exactly the rows they touch.  Only Lamport clocks
    depend on earlier rows, so they live in an integer column extended
    incrementally (a bounded ring replays it from the window start) by
    the eager recorder's rules: send/timer/local/drop tick the acting
    node, deliver runs the receive rule against its send, phase/request
    marks carry 0.
    """

    def __init__(self, tracer):
        self._tracer = tracer
        self._rows = _RowView(tracer._ring)
        self._lamports = []
        self._clocks = {}
        self._sends = {}
        self._stamp = 0

    def _clocked(self):
        """The Lamport column, brought up to the newest recorded row."""
        tracer = self._tracer
        lamports, clocks, sends = self._lamports, self._clocks, self._sends
        if self._stamp == tracer._total:
            return lamports
        ring = tracer._ring
        if tracer.capacity:
            lamports.clear()
            clocks.clear()
            sends.clear()
            rows = _grouped(ring)
        else:
            rows = _grouped(ring[ROW_WIDTH * len(lamports):])
        append = lamports.append
        clock_of, sent_at = clocks.get, sends.pop
        for row in rows:
            kind = row[0]
            if kind is PHASE or kind is REQUEST:
                append(0)
                continue
            node = row[2]
            lamport = clock_of(node, 0)
            if kind is DELIVER:
                sent = sent_at(row[5], 0)
                if sent > lamport:
                    lamport = sent
            lamport = clocks[node] = lamport + 1
            if kind is SEND:
                sends[row[5]] = lamport
            append(lamport)
        self._stamp = tracer._total
        return lamports

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, index):
        rows = self._rows
        if index.__class__ is slice:
            return [self[i] for i in range(*index.indices(len(rows)))]
        row = rows[index]
        if index < 0:
            index += len(rows)
        kind, time, node, peer, mtype, msg_id, _payload = row
        return TraceEvent(self._tracer._total - len(rows) + index, time,
                          kind, node, self._clocked()[index], peer, mtype,
                          msg_id, row_detail(row))

    def __iter__(self):
        rows = self._rows
        seq = self._tracer._total - len(rows)
        for row, lamport in zip(rows, self._clocked()):
            kind, time, node, peer, mtype, msg_id, _payload = row
            yield TraceEvent(seq, time, kind, node, lamport, peer, mtype,
                             msg_id, row_detail(row))
            seq += 1

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) \
            and all(a == b for a, b in zip(self, other))


class _LiveTrace(Trace):
    """The tracer's own :class:`Trace`: holds no TraceEvent, every
    inherited query reads the ring through the three overrides below."""

    def __init__(self, tracer):
        self._tracer = tracer
        self._view = _RingView(tracer)

    @property
    def events(self):
        return self._view

    def rows(self):
        return self._view._rows

    @property
    def base_seq(self):
        return self._tracer._total - len(self._view._rows)

    def append(self, event):
        raise TypeError("a live trace is written by its tracer's hooks only")


class Tracer:
    """Records a :class:`~repro.trace.Trace` from a live simulation.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.Simulator` supplying virtual time.
    capacity:
        Ring-buffer size.  ``None`` (the default) keeps every event —
        required for golden exports and whole-run causal queries.  A
        bounded tracer keeps only the newest ``capacity`` events
        (older ones are evicted; ``len(trace)`` reports the window) —
        the flight-recorder mode for long runs where only recent
        context matters.  Clocks of a bounded window are replayed from
        the window start, so cross-window happens-before queries are
        approximate.
    """

    def __init__(self, sim, capacity=None):
        self.sim = sim
        self.capacity = capacity
        self._ring = deque(maxlen=ROW_WIDTH * capacity) if capacity else []
        self._extend = self._ring.extend
        self._total = 0
        self._next_msg_id = 0
        self.trace = _LiveTrace(self)
        #: kind -> [(mfilter, sink), ...] in registration order; the
        #: source of truth the compiled dispatch rows are rebuilt from.
        self._sub_entries = {}
        #: kind -> (catchall sinks, mtype -> sinks) compiled rows: one
        #: dict probe routes a row instead of scanning every sink's
        #: mtype filter — pbft's ack-heavy deliver stream carries
        #: several filtered monitors, none of which should cost the
        #: thousands of non-matching deliveries a membership test each.
        self._subs = {}
        self._send_subs = None
        self._deliver_subs = None

    def subscribe(self, sink, kinds=None, mtypes=None):
        """Register a streaming sink called with matching recorded rows.

        ``kinds`` limits the sink to those event kinds (default: all);
        ``mtypes`` further limits it to those ``mtype`` values.  Sinks
        observe rows online, in recording order, the moment they are
        appended: ``sink(row)`` gets the ``(kind, time, node, peer,
        mtype, msg_id, payload)`` tuple the ring was extended with, whose
        payload is the live message for send/deliver rows, the detail
        dict for milestones and the detail pairs otherwise (read it with
        :func:`row_get`).  The row being observed is the
        newest, so its seq is ``len`` of everything recorded minus one.
        A sink must treat the row as read-only, must not schedule
        events or touch the RNG; like the tracer itself it is a pure
        observer.
        """
        mfilter = frozenset(mtypes) if mtypes is not None else None
        for kind in (KINDS if kinds is None else kinds):
            entries = self._sub_entries.setdefault(kind, [])
            entries.append((mfilter, sink))
            self._subs[kind] = _compile_row(entries)
        # The two hottest hooks read their row straight off the tracer.
        self._send_subs = self._subs.get(SEND)
        self._deliver_subs = self._subs.get(DELIVER)
        return sink

    def last_event(self):
        """The most recently recorded event, inflated (or ``None``)."""
        events = self.trace.events
        return events[-1] if events else None

    # -- hooks called by the transport (the per-message hooks inline the
    #    dispatch of :meth:`_record`, they run millions of times) ----------

    def on_send(self, src, dst, message):
        """Record a unicast attempt; returns the ``msg_id`` token the
        transport threads through to delivery."""
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        mtype = message.mtype
        row = (SEND, self.sim._now, src, dst, mtype, msg_id, message)
        self._extend(row)
        self._total += 1
        subs = self._send_subs
        if subs is not None:
            for sink in subs[0]:
                sink(row)
            matched = subs[1].get(mtype)
            if matched is not None:
                for sink in matched:
                    sink(row)
        return msg_id

    def on_deliver(self, src, dst, message, token):
        """Record arrival at a live node."""
        mtype = message.mtype
        row = (DELIVER, self.sim._now, dst, src, mtype, token, message)
        self._extend(row)
        self._total += 1
        subs = self._deliver_subs
        if subs is not None:
            for sink in subs[0]:
                sink(row)
            matched = subs[1].get(mtype)
            if matched is not None:
                for sink in matched:
                    sink(row)

    def _record(self, row):
        """Append a rare-kind row and hand it to its sinks."""
        self._extend(row)
        self._total += 1
        subs = self._subs.get(row[0])
        if subs is not None:
            for sink in subs[0]:
                sink(row)
            matched = subs[1].get(row[4])
            if matched is not None:
                for sink in matched:
                    sink(row)

    def on_drop(self, src, dst, message, reason, token=None):
        """Record a lost message: intercepted, partitioned, dropped by the
        delivery model, or delivered to a crashed/unknown node."""
        self._record((DROP, self.sim._now, src, dst, message.mtype,
                      token if token is not None else -1,
                      (("reason", reason),)))

    # -- hooks called by processes and the metrics collector -----------------

    def on_timer(self, node):
        """Record a timer firing on ``node``."""
        self._record((TIMER, self.sim._now, node, "", "timer", -1, ()))

    def on_phase(self, protocol, phase):
        """Record a protocol-wide phase boundary (mirrors ``mark_phase``)."""
        self._record((PHASE, self.sim._now, "", "", phase, -1,
                      (("protocol", str(protocol)),)))

    def on_local(self, node, label, detail=None):
        """Record a protocol-declared milestone (decide, commit, execute).

        ``detail`` (a dict of extras) is kept as passed, so the caller
        hands over a dict it no longer mutates; it is canonicalised
        when read."""
        self._record((LOCAL, self.sim._now, node, "", label, -1,
                      detail or ()))

    def on_request(self, label, edge):
        """Record a request-span boundary; ``edge`` is start or end."""
        self._record((REQUEST, self.sim._now, "", "", label, -1,
                      (("edge", str(edge)),)))

    def __repr__(self):
        window = len(self._ring) // ROW_WIDTH
        if self.capacity and window < self._total:
            return "Tracer(%d events, newest %d ringed)" % (self._total,
                                                            window)
        return "Tracer(%d events)" % self._total
