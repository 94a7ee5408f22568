"""Events and the pending-event queue.

An :class:`Event` is a callback scheduled at a virtual timestamp.  Events
at the same timestamp fire in the order they were scheduled (a strictly
increasing sequence number breaks ties), which keeps every simulation run
fully deterministic for a given seed.

The queue tracks its *live* (non-cancelled) event count so callers can
ask how much real work is pending without scanning, and it compacts the
heap whenever cancelled entries outnumber live ones — retransmit-timer
churn in Raft/PBFT otherwise bloats the heap with corpses that every
push and pop then has to sift past.
"""

import heapq
import itertools


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.sim.Simulator.schedule`; user
    code holds them only to :meth:`cancel` them (e.g. to stop a retransmit
    timer once an ack arrives).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def cancel(self):
        """Prevent the callback from firing.  Safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancel()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return "Event(t=%.6f, seq=%d, %s, %s)" % (self.time, self.seq, name, state)


class EventQueue:
    """Priority queue of :class:`Event` ordered by (time, sequence).

    Heap entries are ``(time, seq, event)`` tuples so ordering is decided
    by C-level tuple comparison — the heap never calls back into Python
    to compare two events.  ``len(queue)`` is the number of *live*
    events; cancelled entries stay in the heap until popped past or
    compacted away, but never count.
    """

    #: Heap size below which cancellation never triggers compaction —
    #: rebuilding a tiny heap costs more than sifting past its corpses.
    COMPACT_MIN = 64

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self):
        return self._live

    def push(self, time, callback, args=()):
        """Enqueue a callback at virtual time ``time`` and return the event."""
        seq = next(self._counter)
        # Event has no __init__: the slots are filled here, without a
        # call frame — push runs once per scheduled callback, i.e.
        # millions of times per benchmark sweep.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._queue = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_transient(self, time, callback, args=()):
        """Enqueue a *non-cancellable* callback without an Event object.

        The hot lane for message deliveries: the heap entry is a bare
        ``(time, seq, callback, args)`` tuple — no per-message Event
        allocation, nothing to cancel, nothing for compaction to
        inspect.  Entries mix freely with :meth:`push` events (the
        unique ``seq`` guarantees tuple comparison never reaches the
        third element).  Returns nothing — callers that may need to
        cancel must use :meth:`push`.
        """
        heapq.heappush(self._heap, (time, next(self._counter), callback,
                                    args))
        self._live += 1

    def pop_entry(self, horizon=None):
        """Remove and return ``(time, callback, args)`` of the earliest
        live entry at or before ``horizon``, or ``None``.

        The event loop's hot-path scan: cancelled events are discarded
        as they surface, transient entries are returned without any
        unwrap cost, and a live entry beyond ``horizon`` stays queued
        (check ``len(queue)`` to distinguish empty from beyond-horizon).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 4:
                if horizon is not None and entry[0] > horizon:
                    return None
                heapq.heappop(heap)
                self._live -= 1
                return (entry[0], entry[2], entry[3])
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if horizon is not None and entry[0] > horizon:
                return None
            heapq.heappop(heap)
            self._live -= 1
            event._queue = None
            return (entry[0], event.callback, event.args)
        return None

    # -- internal ----------------------------------------------------------

    def _note_cancel(self):
        """Bookkeeping hook called by :meth:`Event.cancel` while the event
        is still heaped: keep the live count honest and compact once the
        cancelled majority makes heap operations pay for dead weight."""
        self._live -= 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN and 2 * self._live < len(heap):
            live = [entry for entry in heap
                    if len(entry) == 4 or not entry[2].cancelled]
            heapq.heapify(live)
            self._heap = live
