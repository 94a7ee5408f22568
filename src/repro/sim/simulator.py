"""The deterministic discrete-event simulator.

Every protocol in this library runs on a :class:`Simulator`: a virtual
clock plus a priority queue of events.  Nothing ever sleeps or spawns a
thread — "time" advances only by jumping to the next event's timestamp,
so a run that models minutes of network traffic completes in
milliseconds, and two runs with the same seed replay identically,
including every "random" message delay, crash and fork.
"""

import random

from .errors import ClockError, EventLimitExceeded, SimulationFinished
from .events import EventQueue

#: Default ceiling on processed events; generous enough for every
#: experiment in the benchmark suite while still catching livelocks.
DEFAULT_MAX_EVENTS = 5_000_000


class Simulator:
    """Discrete-event simulation core with a seeded random source.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  All model
        randomness (delays, drops, elections, nonces) must flow through
        :attr:`rng` so runs are reproducible; fault rows draw from their
        plan's own generator, seeded from :attr:`seed`, so adding one
        shifts no delay.
    """

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.seed = seed
        #: Optional :class:`~repro.trace.Tracer`; processes consult it for
        #: timer-fire events.  ``None`` keeps timers on the untraced path.
        self.tracer = None
        #: Optional :class:`~repro.telemetry.MetricsRegistry`, attached
        #: via :meth:`attach_telemetry`.  ``None`` keeps the event loop
        #: and timer wheel on the un-instrumented path.
        self.telemetry = None
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._stop_requested = False

    def attach_telemetry(self, registry):
        """Record event-loop and timer counters into ``registry``.

        Instrument handles are resolved once here so the event loop's
        per-event cost stays one ``is not None`` check plus an integer
        increment.
        """
        self.telemetry = registry
        if registry is not None:
            self._tm_events = registry.counter("sim_events_dispatched_total")
            self._tm_timers_fired = registry.counter("sim_timers_fired_total")
            self._tm_timers_cancelled = registry.counter(
                "sim_timers_cancelled_total")

    @property
    def now(self):
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self):
        """Total events fired since construction."""
        return self._events_processed

    @property
    def pending_events(self):
        """Number of live events currently queued.

        Cancelled events are excluded: the queue tracks its live count
        directly, so stale retransmit timers no longer inflate the
        number.
        """
        return len(self._queue)

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now.

        Returns the :class:`~repro.sim.events.Event`, which the caller may
        ``cancel()``.
        """
        if delay < 0:
            raise ClockError("cannot schedule in the past (delay=%r)" % (delay,))
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ClockError(
                "cannot schedule at %r before now=%r" % (time, self._now)
            )
        return self._queue.push(time, callback, args)

    def call_soon(self, callback, *args):
        """Schedule ``callback(*args)`` at the current time (after pending
        same-time events)."""
        return self._queue.push(self._now, callback, args)

    def stop(self):
        """Request the event loop to stop after the current callback."""
        self._stop_requested = True

    def run(self, until=None, max_events=DEFAULT_MAX_EVENTS, stop_when=None):
        """Drain the event queue.

        Parameters
        ----------
        until:
            Optional virtual-time horizon; events after it stay queued.
        max_events:
            Abort with :class:`EventLimitExceeded` past this many events —
            the guard that turns a protocol livelock into a test failure
            instead of a hang.
        stop_when:
            Optional zero-argument predicate checked before the first
            event and after every event; the loop exits once it returns
            true (used by drivers that run "until a value is decided"),
            so a predicate that already holds fires no event.

        Returns the virtual time at which the loop stopped.
        """
        self._stop_requested = False
        self._running = True
        # Hoist the per-event lookups: the loop below runs millions of
        # times per experiment, so every attribute chase it avoids is a
        # measurable slice of total runtime.
        queue = self._queue
        pop_entry = queue.pop_entry
        tm_events = self._tm_events if self.telemetry is not None else None
        # The processed count and its telemetry mirror are batched in a
        # local and flushed once on exit: they are only *read* after the
        # loop returns (or from callbacks that see a stale-by-a-few value
        # nobody depends on), so per-event bookkeeping buys nothing.
        base = self._events_processed
        processed = 0
        try:
            while True:
                if self._stop_requested or \
                        (stop_when is not None and stop_when()):
                    break
                # One scan: cancelled events are discarded once, and a
                # live event beyond the horizon stays queued.
                entry = pop_entry(until)
                if entry is None:
                    if until is not None and len(queue):
                        self._now = until
                    break
                self._now = entry[0]
                processed += 1
                if base + processed > max_events:
                    raise EventLimitExceeded(max_events)
                try:
                    # pop_entry never returns a cancelled event, so the
                    # callback is called bare: no guard, no extra frame.
                    entry[1](*entry[2])
                except SimulationFinished:
                    break
        finally:
            self._running = False
            self._events_processed = base + processed
            if tm_events is not None:
                tm_events.value += processed
        return self._now

    def run_for(self, duration, **kwargs):
        """Run until ``now + duration`` virtual time units have elapsed."""
        return self.run(until=self._now + duration, **kwargs)

    def __repr__(self):
        return "Simulator(now=%.6f, pending=%d, seed=%r)" % (
            self._now,
            len(self._queue),
            self.seed,
        )
