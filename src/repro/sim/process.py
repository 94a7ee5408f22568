"""Actor-style processes living on a :class:`~repro.sim.Simulator`.

A :class:`Process` is the unit every node, client and miner in the
library builds on: it owns timers, can be crashed and restarted, and is
started once at simulation setup.  Subclasses override :meth:`on_start`
and whatever message handlers their transport dispatches to.
"""

from .errors import ClockError


class Timer:
    """Handle to a (possibly repeating) scheduled callback on a process.

    Timers silently stop firing while their owner is crashed; a restarted
    process must re-arm its own timers, matching how a real process loses
    its in-memory timer wheel on failure.  The owner holds a timer only
    while it can still fire: a one-shot timer leaves ``_timers`` when it
    fires, any timer when it is cancelled.  :meth:`restart` puts it back.
    """

    def __init__(self, process, delay, callback, args, repeat=False):
        self._process = process
        self._delay = delay
        self._callback = callback
        self._args = args
        self._repeat = repeat
        self._event = None
        self._cancelled = False
        self._arm()

    def _arm(self):
        self._event = self._process.sim.schedule(self._delay, self._fire)

    def _fire(self):
        process = self._process
        if not self._repeat or process.crashed:
            # Its last firing: leave the owner, and drop the event (whose
            # callback is this timer) so refcounting alone frees both.
            process._timers.pop(self, None)
            self._event = None
        if self._cancelled or process.crashed:
            return
        sim = process.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.on_timer(process.name)
        if sim.telemetry is not None:
            sim._tm_timers_fired.inc()
        if self._repeat:
            self._arm()
        self._callback(*self._args)

    def cancel(self):
        """Stop the timer; safe to call repeatedly."""
        if not self._cancelled:
            sim = self._process.sim
            if sim.telemetry is not None:
                sim._tm_timers_cancelled.inc()
        self._cancelled = True
        self._process._timers.pop(self, None)
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def restart(self, delay):
        """Re-arm to fire ``delay`` from now, whatever state the timer is in.

        Exactly ``cancel()`` followed by arming a fresh timer with the
        same callback and arguments — the same firing time and sequence
        number, the same ``sim_timers_cancelled_total`` count, the same
        place in the owner's arming order — except that a pending firing
        is moved in the event queue instead of being cancelled and
        pushed again, which for a reset to a later time is O(1).
        """
        if delay < 0:
            raise ClockError("cannot schedule in the past (delay=%r)" % (delay,))
        process = self._process
        sim = process.sim
        if not self._cancelled and sim.telemetry is not None:
            sim._tm_timers_cancelled.inc()
        self._cancelled = False
        timers = process._timers
        timers.pop(self, None)
        timers[self] = None
        self._delay = delay
        event = self._event
        if event is None:
            self._arm()
        else:
            sim._queue.reschedule(event, sim._now + delay)

    @property
    def active(self):
        """True exactly while the timer can still fire."""
        return self._event is not None


class Process:
    """Base class for simulated actors.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.Simulator` this process runs on.
    name:
        Stable identifier, used in logs and metrics.
    """

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        #: Random source for this process's own draws (election jitter,
        #: backoff).  Defaults to the simulator-wide stream; partitioned
        #: runs rebind it to a per-domain stream so a process's draw
        #: sequence does not depend on which worker hosts it.
        self.rng = sim.rng
        self.crashed = False
        #: Timers that can still fire, in arming order (an
        #: insertion-ordered dict used as a set: O(1) removal, and
        #: ``crash()`` cancels in a deterministic order).
        self._timers = {}
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Schedule :meth:`on_start` at the current virtual time."""
        if self._started:
            return
        self._started = True
        self.sim.call_soon(self._run_start)

    def _run_start(self):
        if not self.crashed:
            self.on_start()

    def on_start(self):
        """Hook invoked once when the process starts.  Default: no-op."""

    def crash(self):
        """Fail-stop this process: timers die, future messages are dropped."""
        self.crashed = True
        self.cancel_timers()
        self.on_crash()

    def on_crash(self):
        """Hook invoked when the process crashes.  Default: no-op."""

    def restart(self):
        """Recover from a crash.

        Volatile state handling is the subclass's job (override
        :meth:`on_restart`); the kernel only flips the liveness flag.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.on_restart()

    def on_restart(self):
        """Hook invoked on recovery.  Default: no-op."""

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay, callback, *args):
        """Arm a one-shot timer firing ``delay`` virtual time units from now."""
        timer = Timer(self, delay, callback, args, repeat=False)
        self._timers[timer] = None
        return timer

    def set_periodic_timer(self, interval, callback, *args):
        """Arm a repeating timer firing every ``interval`` time units."""
        timer = Timer(self, interval, callback, args, repeat=True)
        self._timers[timer] = None
        return timer

    def cancel_timers(self):
        """Cancel every timer owned by this process."""
        for timer in list(self._timers):
            timer.cancel()

    def __repr__(self):
        state = "crashed" if self.crashed else "up"
        return "%s(%r, %s)" % (type(self).__name__, self.name, state)
