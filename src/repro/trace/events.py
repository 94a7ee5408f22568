"""The structured trace record.

One :class:`TraceEvent` per observable thing that happened in a run:
a message put in flight, delivered or dropped, a timer firing, a
protocol phase boundary, or a protocol-declared local milestone (a
decide, a commit, an execute).  Events are immutable and fully
determined by the simulation, so a same-seed run reproduces the exact
event list byte for byte.
"""

from typing import NamedTuple

#: Event kinds, in the order the layers emit them.
SEND = "send"          #: message handed to the transport (may still drop)
DELIVER = "deliver"    #: message arrived at a live node
DROP = "drop"          #: message lost (interceptor, partition, model, crash)
TIMER = "timer"        #: a process timer fired
PHASE = "phase"        #: protocol-wide phase boundary (from mark_phase)
LOCAL = "local"        #: protocol-declared milestone on one node
REQUEST = "request"    #: request-span boundary (start/end of one request)

KINDS = (SEND, DELIVER, DROP, TIMER, PHASE, LOCAL, REQUEST)


class TraceEvent(NamedTuple):
    """One recorded event (a named tuple: building one is a single
    allocation, which is what exporters and monitors pay per row).

    Attributes
    ----------
    seq:
        Dense global sequence number — total order of recording, which
        is the simulator's execution order.
    time:
        Virtual time of the event.
    kind:
        One of :data:`KINDS`.
    node:
        The acting node (sender for send/drop, receiver for deliver,
        owner for timer/local).  Empty for protocol-wide events
        (phase, request).
    lamport:
        The acting node's Lamport timestamp *after* this event;
        ``0`` for node-less events.
    peer:
        The other endpoint for send/deliver/drop; empty otherwise.
    mtype:
        Message type for send/deliver/drop; phase name, timer label,
        milestone label or request label otherwise.
    msg_id:
        Per-unicast id linking a send to its deliver or drop;
        ``-1`` when not applicable.
    detail:
        Canonicalised extras: a tuple of ``(key, value)`` string pairs,
        sorted by key — deterministic and JSON-friendly.
    """

    seq: int
    time: float
    kind: str
    node: str
    lamport: int = 0
    peer: str = ""
    mtype: str = ""
    msg_id: int = -1
    detail: tuple = ()

    def get(self, key, default=None):
        """Look up one ``detail`` key."""
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def __repr__(self):
        core = "#%d t=%.3f %s %s" % (self.seq, self.time, self.kind,
                                     self.node or "*")
        if self.peer:
            core += "->" + self.peer if self.kind == SEND else "<-" + self.peer
        if self.mtype:
            core += " " + self.mtype
        return "TraceEvent(%s)" % core


def canonical_detail(mapping):
    """Normalise a dict of extras to the sorted string-pair tuple form."""
    return tuple(sorted((str(k), str(v)) for k, v in mapping.items()))
