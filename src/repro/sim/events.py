"""Events and the pending-event queue.

An :class:`Event` is a callback scheduled at a virtual timestamp.  Events
at the same timestamp fire in the order they were scheduled (a strictly
increasing sequence number breaks ties), which keeps every simulation run
fully deterministic for a given seed.

The queue tracks its *live* (non-cancelled) event count so callers can
ask how much real work is pending without scanning, and it compacts the
heap whenever dead entries outnumber live ones — retransmit-timer churn
in Raft/PBFT otherwise bloats the heap with corpses that every push and
pop then has to sift past.

A pending event can also be *rescheduled* (:meth:`EventQueue.reschedule`,
what :meth:`repro.sim.process.Timer.restart` uses to reset an election
timer on every heartbeat).  The event takes a fresh ``(time, seq)`` from
the same counter a new push would have, so it fires exactly where a
cancelled-and-pushed replacement would.  Moving it later is O(1): only
the event's fields change, and its heap entry — now early — is a
*deferral* that :meth:`EventQueue.pop_entry` re-pushes at the stored
time when it surfaces.  Moving it earlier pushes a fresh entry; the
superseded one is an *orphan* that pop and compaction drop like a
cancelled event.  Neither hop counts as a processed event.
"""

import heapq
import itertools


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.sim.Simulator.schedule`; user
    code holds them only to :meth:`cancel` them (e.g. to stop a retransmit
    timer once an ack arrives).  ``time``/``seq`` say when the event
    fires; ``_heap_time``/``_heap_seq`` are the key of the one heap entry
    that stands for it, which is at or before that.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue",
                 "_heap_time", "_heap_seq")

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
    events; cancelled and orphaned entries stay in the heap until popped
    past or compacted away, but never count.
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
        event.time = event._heap_time = time
        event.seq = event._heap_seq = seq
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

    def reschedule(self, event, time):
        """Move the pending, uncancelled ``event`` to virtual time ``time``.

        Equivalent to cancelling it and pushing the same callback anew:
        the event takes the next sequence number, so it fires in exactly
        that replacement's place.  A later time is stored on the event
        only; an earlier one pushes a fresh heap entry and orphans the
        old one.
        """
        seq = next(self._counter)
        event.time = time
        event.seq = seq
        if time < event._heap_time:
            event._heap_time = time
            event._heap_seq = seq
            heapq.heappush(self._heap, (time, seq, event))
            self._compact_if_dead()

    def pop_entry(self, horizon=None):
        """Remove and return ``(time, callback, args)`` of the earliest
        live entry at or before ``horizon``, or ``None``.

        The event loop's hot-path scan: cancelled events and orphans are
        discarded as they surface, a deferred event is re-queued at its
        stored time, transient entries are returned without any unwrap
        cost, and a live entry beyond ``horizon`` stays queued (check
        ``len(queue)`` to distinguish empty from beyond-horizon).
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
            seq = entry[1]
            if seq != event.seq:
                if seq == event._heap_seq:
                    # A deferral: the event was moved later while this
                    # entry waited.  Re-queue it at its stored time.
                    event._heap_time = event.time
                    event._heap_seq = event.seq
                    heapq.heapreplace(heap, (event.time, event.seq, event))
                else:
                    heapq.heappop(heap)  # an orphan
                continue
            heapq.heappop(heap)
            self._live -= 1
            event._queue = None
            return (entry[0], event.callback, event.args)
        return None

    # -- internal ----------------------------------------------------------

    def _note_cancel(self):
        """Bookkeeping hook called by :meth:`Event.cancel` while the event
        is still heaped: keep the live count honest."""
        self._live -= 1
        self._compact_if_dead()

    def _compact_if_dead(self):
        """Rebuild the heap without its dead entries (cancelled events
        and orphans) once they are the majority and heap operations pay
        for dead weight."""
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN and 2 * self._live < len(heap):
            live = [entry for entry in heap
                    if len(entry) == 4 or (not entry[2].cancelled
                                           and entry[1] == entry[2]._heap_seq)]
            heapq.heapify(live)
            self._heap = live
