"""Message, phase and latency accounting.

Every experiment in the paper's property boxes reduces to counting:
how many replicas, how many communication phases, how many messages
(and how that count scales with N).  The collector hangs off the
network transport and records everything passively; protocols mark
phase boundaries and request-level latencies explicitly.

The collector sits *on top of* the telemetry registry: its flat counters
remain the cheap always-on substrate every benchmark reads, and when a
:class:`~repro.telemetry.MetricsRegistry` is attached (via
``Cluster(telemetry=True)``) the same ``mark_phase``/``start_request``
call sites additionally feed labeled series — per-phase latency
histograms (the time from entering a phase to entering the next, i.e.
how long that phase's quorum took to assemble, in message delays) and
per-protocol request-latency histograms.  With no registry attached the
extra work is a single ``is not None`` check per call.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional


def _protocol_from_label(label):
    """Request labels follow ``"<protocol>:<id>"``; default to the whole
    label when no protocol prefix was used."""
    head, sep, _tail = str(label).partition(":")
    return head if sep else str(label)


@dataclass
class LatencyRecord:
    """One request's life: virtual start/end time and phase count.

    ``unmatched`` marks a ``finish_request`` that never saw a matching
    ``start_request``; such records carry no meaningful latency and are
    excluded from the latency aggregates.
    """

    label: str
    started_at: float
    finished_at: Optional[float] = None
    phases: int = 0
    unmatched: bool = False

    @property
    def latency(self):
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class MetricsCollector:
    """Passive counters fed by :class:`~repro.net.Network` and protocols.

    Message counting is *batched*: the transport increments a per-link
    slot (a two-cell list handed out by :meth:`slot_for`) on every send,
    and the aggregate views — :attr:`messages_total`, :attr:`by_type`,
    :attr:`by_sender`, :attr:`by_link` — fold the slots in on read.
    Reads are exact at any point mid-run (slots are updated
    synchronously), but the per-message cost drops to two list-index
    increments instead of five counter updates.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.trace.Tracer`; phase marks and request
        boundaries are mirrored into the trace when present.
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; phase marks
        and request boundaries additionally feed labeled histograms and
        counters when present.
    """

    def __init__(self, tracer=None, registry=None):
        self.tracer = tracer
        self.registry = registry
        self.phase_marks = []
        self.finished_requests = []
        self._open_requests = {}
        #: (src, dst, mtype) -> [count, bytes] accumulation slot.  The
        #: network holds direct references and bumps the cells inline;
        #: :meth:`_flush` folds them into the aggregates below.
        self._slots = {}
        self._messages_total = 0
        self._bytes_total = 0
        self._by_type = Counter()
        self._by_sender = Counter()
        self._by_link = Counter()
        #: Per-protocol (phase, time) of the most recent mark, for phase
        #: latency deltas.
        self._phase_cursor = {}
        #: Pre-resolved registry handles: label sets repeat run-long, so
        #: each is sorted/hashed once and the marks pay a dict hit plus a
        #: call.
        self._mark_handles = {}
        self._latency_handles = {}
        self._request_handles = {}

    # -- fed by the network --------------------------------------------

    def slot_for(self, src, dst, mtype):
        """The ``[count, bytes]`` accumulation slot for one link+mtype.

        The transport resolves this once per (message class, src, dst)
        and then increments the two cells directly on every send.
        """
        key = (src, dst, mtype)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = [0, 0]
        return slot

    def _flush(self):
        """Fold pending slot deltas into the aggregate counters."""
        total = self._messages_total
        total_bytes = self._bytes_total
        by_type, by_sender, by_link = \
            self._by_type, self._by_sender, self._by_link
        for (src, dst, mtype), slot in self._slots.items():
            count = slot[0]
            if count:
                total += count
                total_bytes += slot[1]
                by_type[mtype] += count
                by_sender[src] += count
                by_link[(src, dst)] += count
                slot[0] = 0
                slot[1] = 0
        self._messages_total = total
        self._bytes_total = total_bytes

    @property
    def messages_total(self):
        """Total messages sent (exact — pending slots are folded in)."""
        self._flush()
        return self._messages_total

    @property
    def bytes_total(self):
        self._flush()
        return self._bytes_total

    @property
    def by_type(self):
        self._flush()
        return self._by_type

    @property
    def by_sender(self):
        self._flush()
        return self._by_sender

    @property
    def by_link(self):
        self._flush()
        return self._by_link

    # -- fed by protocols ------------------------------------------------

    def mark_phase(self, protocol, phase, now):
        """Record that ``protocol`` entered communication phase ``phase``."""
        self.phase_marks.append((protocol, phase, now))
        registry = self.registry
        if registry is not None:
            key = (protocol, phase)
            inc = self._mark_handles.get(key)
            if inc is None:
                inc = registry.handle(
                    "counter", "phase_marks_total", protocol=str(protocol),
                    phase=str(phase)).inc
                self._mark_handles[key] = inc
            inc()
            previous = self._phase_cursor.get(protocol)
            if previous is not None:
                prev_phase, prev_time = previous
                prev_key = (protocol, prev_phase)
                observe = self._latency_handles.get(prev_key)
                if observe is None:
                    observe = registry.handle(
                        "histogram", "phase_latency", protocol=str(protocol),
                        phase=str(prev_phase)).observe
                    self._latency_handles[prev_key] = observe
                observe(now - prev_time)
            self._phase_cursor[protocol] = (phase, now)
        if self.tracer is not None:
            self.tracer.on_phase(protocol, phase)

    def phases_for(self, protocol):
        """Distinct phases recorded for a protocol, in first-seen order."""
        seen = []
        for proto, phase, _now in self.phase_marks:
            if proto == protocol and phase not in seen:
                seen.append(phase)
        return seen

    def start_request(self, label, now):
        record = LatencyRecord(label, now)
        self._open_requests[label] = record
        if self.registry is not None:
            self._request_handle("requests_started_total",
                                 _protocol_from_label(label))()
        if self.tracer is not None:
            self.tracer.on_request(label, "start")
        return record

    def _request_handle(self, name, protocol):
        """Cached bound ``inc``/``observe`` for a per-protocol request
        series (created on first use)."""
        key = (name, protocol)
        handle = self._request_handles.get(key)
        if handle is None:
            kind = "histogram" if name == "request_latency" else "counter"
            instrument = self.registry.handle(kind, name, protocol=protocol)
            handle = instrument.observe if kind == "histogram" \
                else instrument.inc
            self._request_handles[key] = handle
        return handle

    def request_open(self, label):
        """True while ``label`` has been started but not finished."""
        return label in self._open_requests

    def finish_request(self, label, now, phases=0):
        record = self._open_requests.pop(label, None)
        if record is None:
            # Never started: keep the record for the audit trail but tag
            # it so it cannot fabricate a zero latency in the aggregates.
            record = LatencyRecord(label, now, unmatched=True)
        record.finished_at = now
        record.phases = phases
        self.finished_requests.append(record)
        if self.registry is not None:
            protocol = _protocol_from_label(label)
            if record.unmatched:
                self._request_handle("requests_unmatched_total", protocol)()
            else:
                self._request_handle("requests_finished_total", protocol)()
                self._request_handle("request_latency",
                                     protocol)(record.latency)
        if self.tracer is not None:
            self.tracer.on_request(label, "end")
        return record

    # -- derived -----------------------------------------------------------

    def latencies(self):
        """Completed request latencies, in completion order.

        Unmatched records (``finish_request`` without a start) are
        excluded — they have no real start time.
        """
        return [r.latency for r in self.finished_requests if not r.unmatched]

    def mean_latency(self):
        values = self.latencies()
        if not values:
            return None
        return sum(values) / len(values)

    def unmatched_requests(self):
        """Count of finish_request calls that never saw a start."""
        return sum(1 for r in self.finished_requests if r.unmatched)

    def messages_of_types(self, *mtypes):
        return sum(self.by_type[t] for t in mtypes)

    def snapshot(self):
        """Plain-dict summary for tables and EXPERIMENTS.md.

        Keys (top-level and within ``by_type``) are emitted in sorted
        order so JSON serialisations are deterministic regardless of
        message first-seen order.
        """
        return {
            "by_type": {mtype: self.by_type[mtype]
                        for mtype in sorted(self.by_type)},
            "bytes_total": self.bytes_total,
            "mean_latency": self.mean_latency(),
            "messages_total": self.messages_total,
            "requests": len(self.finished_requests),
            "unmatched_requests": self.unmatched_requests(),
        }

    def reset(self):
        self._messages_total = 0
        self._bytes_total = 0
        self._by_type.clear()
        self._by_sender.clear()
        self._by_link.clear()
        # Zero slots in place: the network holds direct references.
        for slot in self._slots.values():
            slot[0] = 0
            slot[1] = 0
        self.phase_marks.clear()
        self._open_requests.clear()
        self.finished_requests.clear()
        self._phase_cursor.clear()
