"""Unit tests for the discrete-event kernel: events, clock, processes."""

import random

import pytest

from repro.core.cluster import Cluster
from repro.sim import (
    ClockError,
    EventLimitExceeded,
    EventQueue,
    Process,
    Simulator,
)
from repro.telemetry import MetricsRegistry


def _drain(queue):
    """Pop every live entry and call it, as the simulator loop does."""
    while (entry := queue.pop_entry()) is not None:
        _time, callback, args = entry
        callback(*args)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        seen = []
        queue.push(2.0, seen.append, (2,))
        queue.push(1.0, seen.append, (1,))
        queue.push(3.0, seen.append, (3,))
        _drain(queue)
        assert seen == [1, 2, 3]

    def test_same_time_fifo(self):
        queue = EventQueue()
        seen = []
        for i in range(5):
            queue.push(1.0, seen.append, (i,))
        _drain(queue)
        assert seen == [0, 1, 2, 3, 4]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        seen = []
        event = queue.push(1.0, seen.append, (1,))
        queue.push(2.0, seen.append, (2,))
        event.cancel()
        _drain(queue)
        assert seen == [2]

    def test_peek_time_skips_cancelled(self):
        # The next entry's time is the earliest *live* one.
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.pop_entry()[0] == 2.0

    def test_len_counts_live_events_only(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None)
        gone = queue.push(2.0, lambda: None)
        assert len(queue) == 2
        gone.cancel()
        assert len(queue) == 1
        gone.cancel()  # repeated cancel must not double-decrement
        assert len(queue) == 1
        queue.pop_entry()
        assert len(queue) == 0
        keep.cancel()  # cancel after pop: no longer queued, no effect
        assert len(queue) == 0
        assert queue.pop_entry() is None  # only the corpse is left

    def test_pop_next_horizon_leaves_future_events_queued(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(10.0, lambda: None)
        assert queue.pop_entry(5.0)[0] == 1.0
        # The 10.0 event is beyond the horizon: not popped, still live.
        assert queue.pop_entry(5.0) is None
        assert len(queue) == 1
        assert queue.pop_entry()[0] == 10.0

    def test_pop_next_discards_cancelled_before_horizon_check(self):
        queue = EventQueue()
        stale = queue.push(1.0, lambda: None)
        live = queue.push(2.0, lambda: None)
        stale.cancel()
        assert queue.pop_entry(5.0) == (2.0, live.callback, ())
        assert len(queue._heap) == 0  # the corpse went with the scan

    def test_compaction_drops_cancelled_majority(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # Compaction fired along the way: the heap has shed the bulk of
        # its corpses (never holding more than 2x the live count once
        # past COMPACT_MIN), and live events plus their order survive.
        assert len(queue._heap) <= 2 * len(queue)
        assert len(queue._heap) < 200
        assert len(queue) == 50
        popped = [queue.pop_entry()[0] for _ in range(50)]
        assert popped == [float(i) for i in range(150, 200)]

    def test_reschedule_later_defers_earlier_orphans(self):
        queue = EventQueue()
        seen = []
        a = queue.push(1.0, seen.append, ("a",))
        b = queue.push(2.0, seen.append, ("b",))
        queue.reschedule(a, 3.0)  # later: stored on the event only
        assert len(queue._heap) == 2 and len(queue) == 2
        queue.reschedule(b, 0.5)  # earlier: a fresh entry, an orphan
        assert len(queue._heap) == 3 and len(queue) == 2
        _drain(queue)
        assert seen == ["b", "a"]
        assert not queue._heap  # deferral and orphan went with the scan

    def test_reschedule_to_the_same_time_goes_behind_later_pushes(self):
        # It takes a fresh sequence number, as a cancel + push would.
        queue = EventQueue()
        seen = []
        a = queue.push(1.0, seen.append, ("a",))
        queue.push(1.0, seen.append, ("b",))
        queue.reschedule(a, 1.0)
        _drain(queue)
        assert seen == ["b", "a"]

    def test_no_compaction_below_min_heap_size(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        # Tiny heaps keep their corpses (rebuild costs more than sifting).
        assert len(queue._heap) == 10
        assert len(queue) == 1


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ClockError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ClockError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        sim.run()  # drain the rest
        assert fired == ["a", "b"]

    def test_stop_when_predicate(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_stop_when_already_true_fires_no_event(self):
        cluster = Cluster(seed=0)
        fired = []
        cluster.sim.schedule(1.0, fired.append, "a")
        assert cluster.run_until(lambda: True, until=5.0) == 0.0
        assert fired == [] and cluster.sim.events_processed == 0

    def test_event_limit_guards_livelock(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(EventLimitExceeded):
            sim.run(max_events=100)

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [(1, None)] or fired[0] is not None
        assert len(fired) == 1

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        stale = sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        stale.cancel()
        # The old implementation reported the raw heap size, so a pile
        # of cancelled retransmit timers inflated the number.
        assert sim.pending_events == 1

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            for _ in range(20):
                sim.schedule(sim.rng.random() * 10, values.append, sim.rng.random())
            sim.run()
            return values

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.0]


class TestProcess:
    def test_on_start_called(self):
        sim = Simulator()

        class P(Process):
            started = False

            def on_start(self):
                self.started = True

        proc = P(sim, "p")
        proc.start()
        sim.run()
        assert proc.started

    def test_double_start_is_idempotent(self):
        sim = Simulator()
        count = []

        class P(Process):
            def on_start(self):
                count.append(1)

        proc = P(sim, "p")
        proc.start()
        proc.start()
        sim.run()
        assert count == [1]

    def test_crash_cancels_timers(self):
        sim = Simulator()
        fired = []
        proc = Process(sim, "p")
        proc.set_timer(5.0, fired.append, 1)
        sim.schedule(1.0, proc.crash)
        sim.run()
        assert fired == []
        assert proc.crashed

    def test_fired_and_cancelled_timers_leave_their_owner(self):
        """An election timer re-armed on every heartbeat must not pile
        up: the owner holds only timers that can still fire."""
        sim = Simulator()
        fired = []
        proc = Process(sim, "p")
        timer = proc.set_timer(1.0, fired.append, "first")
        for cycle in range(10_000):
            timer.cancel()
            timer = proc.set_timer(1.0, fired.append, cycle)
            assert len(proc._timers) <= 1
        sim.run()
        assert fired == [9_999] and not proc._timers
        beat = proc.set_periodic_timer(1.0, fired.append, "beat")
        sim.run(until=sim.now + 3.5)
        assert list(proc._timers) == [beat]  # periodic: still armed
        beat.cancel()
        assert not proc._timers

    def test_spent_timers_are_freed_by_refcount_alone(self):
        """A timer and its queue event reference each other (the event's
        callback is the timer's bound method); the link is cut when the
        timer is spent, so no cyclic-GC pass is needed to free them."""
        import gc
        import weakref
        sim = Simulator()
        proc = Process(sim, "p")
        gc.collect()
        gc.disable()
        try:
            fired = weakref.ref(proc.set_timer(1.0, int))
            cancelled = proc.set_timer(2.0, int)
            cancelled.cancel()
            cancelled = weakref.ref(cancelled)
            sim.run()
            assert fired() is None and cancelled() is None
        finally:
            gc.enable()

    def test_crashed_process_drops_timers_and_none_fires_later(self):
        sim = Simulator()
        fired = []
        proc = Process(sim, "p")
        proc.set_timer(5.0, fired.append, "one-shot")
        proc.set_periodic_timer(2.0, fired.append, "periodic")
        sim.schedule(1.0, proc.crash)
        # Armed while down (a handler racing the crash): dies unfired.
        sim.schedule(1.5, proc.set_timer, 1.0, fired.append, "while down")
        sim.run(until=20.0)
        assert fired == [] and not proc._timers

    def test_periodic_timer_repeats(self):
        sim = Simulator()
        fired = []
        proc = Process(sim, "p")
        proc.set_periodic_timer(1.0, lambda: fired.append(sim.now))
        sim.run(until=4.5)
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_timer_cancel(self):
        sim = Simulator()
        fired = []
        proc = Process(sim, "p")
        timer = proc.set_timer(1.0, fired.append, 1)
        timer.cancel()
        sim.run()
        assert fired == [] and not timer.active

    def test_active_means_the_timer_can_still_fire(self):
        sim = Simulator()
        fired = []
        proc = Process(sim, "p")
        once = proc.set_timer(1.0, fired.append, "once")
        assert once.active
        sim.run()
        assert fired == ["once"] and not once.active  # spent
        once.restart(1.0)
        assert once.active  # re-armed
        sim.run()
        assert fired == ["once"] * 2 and not once.active
        beat = proc.set_periodic_timer(1.0, fired.append, "beat")
        sim.run(until=sim.now + 3.5)
        assert beat.active  # a repeating timer keeps firing
        beat.cancel()
        assert not beat.active
        timers = [proc.set_timer(1.0, int), proc.set_periodic_timer(1.0, int)]
        proc.crash()
        assert not any(timer.active for timer in timers)

    def test_restart_hooks(self):
        sim = Simulator()
        log = []

        class P(Process):
            def on_crash(self):
                log.append("crash")

            def on_restart(self):
                log.append("restart")

        proc = P(sim, "p")
        proc.crash()
        proc.restart()
        proc.restart()  # no-op when not crashed
        assert log == ["crash", "restart"]

    def test_timers_dead_after_crash_restart(self):
        sim = Simulator()
        fired = []
        proc = Process(sim, "p")
        proc.set_periodic_timer(1.0, fired.append, 1)
        sim.schedule(2.5, proc.crash)
        sim.schedule(3.0, proc.restart)
        sim.run(until=6.0)
        # Only the pre-crash firings; restart does not resurrect timers.
        assert len(fired) == 2


class _TimerBench:
    """One simulator driven through a timer script.  ``restart`` picks
    how a live slot is re-armed: ``Timer.restart``, or the idiom it
    replaces, ``cancel()`` followed by a fresh ``set_timer``."""

    SLOTS = 96

    def __init__(self, restart):
        self.restart = restart
        self.sim = Simulator()
        self.registry = MetricsRegistry()
        self.sim.attach_telemetry(self.registry)
        self.procs = [Process(self.sim, "p0"), Process(self.sim, "p1")]
        self.timers = [None] * self.SLOTS
        self.log = []
        self.heaps_seen = [self.sim._queue._heap]

    def arm(self, slot, delay):
        timer = self.timers[slot]
        if timer is not None and self.restart:
            timer.restart(delay)
            return
        if timer is not None:
            timer.cancel()
        proc = self.procs[slot % 2]
        self.timers[slot] = proc.set_timer(delay, self._fire, slot)

    def _fire(self, slot):
        self.log.append((self.sim.now, slot))
        if slot % 5 == 0:  # re-arms itself as it fires, like an election
            self.arm(slot, 0.25 * (1 + slot % 3))

    def apply(self, op):
        kind, target, amount = op
        if kind == "arm":
            self.arm(target, amount)
        elif kind == "cancel":
            if self.timers[target] is not None:
                self.timers[target].cancel()
        elif kind == "crash":
            self.procs[target].crash()
        elif kind == "recover":
            self.procs[target].restart()
        else:
            self.sim.run(until=self.sim.now + amount)
        if self.sim._queue._heap is not self.heaps_seen[-1]:
            self.heaps_seen.append(self.sim._queue._heap)  # compacted

    def counter(self, name):
        return self.registry.counter(name).value


def _timer_script(seed, length):
    """Arm/restart (later, earlier, to the same time, after a firing or
    a cancel), cancel, crash, recover and run-to-horizon steps on a
    quarter-unit grid, so equal deadlines — and tie-breaks — are
    common."""
    rng = random.Random(seed)
    deadline = [0.0] * _TimerBench.SLOTS
    now = 0.0
    for _ in range(length):
        roll = rng.random()
        slot = rng.randrange(_TimerBench.SLOTS)
        if roll < 0.75:
            if deadline[slot] < now:  # spent: a fresh deadline
                delay = 0.25 * rng.randint(0, 160)
            else:  # later, earlier or the same time
                delay = max(0.0, deadline[slot] - now
                            + 0.25 * rng.randint(-16, 16))
            deadline[slot] = now + delay
            yield ("arm", slot, delay)
        elif roll < 0.85:
            yield ("cancel", slot, None)
        elif roll < 0.86:
            yield ("crash", slot % 2, None)
        elif roll < 0.88:
            yield ("recover", slot % 2, None)
        else:
            step = 0.25 * rng.randint(0, 12)
            now += step
            yield ("run", None, step)


class TestTimerRestart:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restart_matches_cancel_then_set_timer(self, seed):
        new, old = _TimerBench(restart=True), _TimerBench(restart=False)
        for op in _timer_script(seed, 4000):
            new.apply(op)
            old.apply(op)
            assert new.sim.pending_events == old.sim.pending_events, op
        for bench in (new, old):
            bench.apply(("run", None, 1000.0))
        assert new.log == old.log and len(new.log) > 1000
        assert new.sim.events_processed == old.sim.events_processed
        for name in ("sim_timers_fired_total", "sim_timers_cancelled_total"):
            assert new.counter(name) == old.counter(name) > 0
        # Enough dead entries piled up for both queues to compact.
        assert len(new.heaps_seen) > 1 and len(old.heaps_seen) > 1

    def test_later_restarts_leave_the_heap_alone(self):
        sim = Simulator()
        timer = Process(sim, "p").set_timer(1.0, int)
        for i in range(10_000):
            timer.restart(2.0 + i)
        assert len(sim._queue._heap) <= 2

    def test_orphans_of_earlier_restarts_are_compacted(self):
        sim = Simulator()
        proc = Process(sim, "p")
        timers = [proc.set_timer(1000.0, int) for _ in range(64)]
        for step in range(1, 50):
            for timer in timers:
                timer.restart(1000.0 - step)
        assert len(sim._queue._heap) <= 2 * len(timers)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        timer = Process(sim, "p").set_timer(1.0, int)
        with pytest.raises(ClockError):
            timer.restart(-1.0)
