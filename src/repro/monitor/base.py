"""Monitor base class, the streaming hub, and zero-cost null twins.

The hub registers each monitor's *declared interest set* with the
:class:`~repro.trace.Tracer`'s typed subscription tables: a monitor
states, via :meth:`Monitor.interests`, exactly which event kinds and
``mtype`` values it evaluates, and the tracer calls it for those events
only — an agreement monitor is invoked for decide milestones, never for
the million sends in between, and events nobody registered for are
never materialized at all.  Invariants are still evaluated *online*,
event by event, while the simulator runs.

Monitors that merely *count* events (the liveness watchdog) ride the
tracer's counter channel instead — a ``tick(kind, node, mtype)`` call
with no event object — so fleet-wide event counting stays a few integer
ops per event.

Mirroring ``telemetry.instruments``, the module ships null twins
(:class:`NullMonitor`, :class:`NullMonitorHub`, :data:`NULL_HUB`) so
code can hold an unconditional hub reference; a monitors-off run never
constructs a tracer sink at all, keeping the no-observer fast path of
the network untouched.

Monitors are pure observers: they must not schedule events, send
messages, or touch the simulator's RNG.  Enabling monitors therefore
cannot perturb a run — same seed, same trace, monitors or not.
"""

from ..trace.events import DELIVER
from .anomaly import SAFETY, Anomaly

#: How many surrounding trace events an anomaly's causal context shows.
CONTEXT_WINDOW = 5


def render_context(trace, node, seq, window=CONTEXT_WINDOW):
    """Render the last ``window`` events involving ``node`` up to ``seq``.

    This is the causal-context snippet attached to anomalies: the trail
    of sends/delivers/milestones that led the offending node to the
    violation.  Purely a function of the recorded trace, so same-seed
    runs render byte-identical context.
    """
    if trace is None:
        return ()
    events = trace.events
    if not events:
        return ()
    # Translate the global seq into a window index: a ring-buffered
    # trace may have evicted its prefix, so its base_seq can be > 0.
    index = seq - trace.base_seq
    if index < 0 or index >= len(events):
        index = len(events) - 1
    # Filter on the raw rows (node, peer); only picked rows are inflated.
    rows = trace.rows()
    picked = []
    while index >= 0 and len(picked) < window:
        row = rows[index]
        if not node or row[2] == node or row[3] == node:
            picked.append(events[index])
        index -= 1
    picked.reverse()
    lines = []
    for event in picked:
        peer = (" <-%s" % event.peer if event.kind == DELIVER and event.peer
                else (" ->%s" % event.peer if event.peer else ""))
        detail = " ".join("%s=%s" % pair for pair in event.detail)
        lines.append("#%d t=%g %s %s%s %s%s" % (
            event.seq, event.time, event.kind, event.node or "-", peer,
            event.mtype, (" [%s]" % detail) if detail else ""))
    return tuple(lines)


class Monitor:
    """Base class for streaming invariant monitors.

    Subclasses set ``name`` and ``category``, declare the trace-event
    ``kinds`` they observe (empty tuple = every kind), and override
    :meth:`observe` (per event) and/or :meth:`finish` (end of run).
    Violations are reported through :meth:`record`, which stamps the
    anomaly with the offending event and its rendered causal context.
    """

    name = "monitor"
    category = SAFETY
    kinds = ()
    #: True for monitors that only count events (liveness watchdogs);
    #: the hub routes them through the tracer's cheap counter channel
    #: (:meth:`tick`) instead of the event-object dispatch path.
    counts_events = False

    def __init__(self):
        self.hub = None
        self.anomalies = []
        self._finish_done = False
        #: Optional group label (shard/group id) stamped on anomalies.
        self.group = None
        #: Optional frozenset of node names this monitor observes; the
        #: hub skips events on other nodes.  ``None`` = fleet-wide.
        self.scope = None

    def attach(self, hub):
        self.hub = hub

    def scope_to(self, group, nodes=None):
        """Restrict this monitor to one group: anomalies are labeled
        ``group`` and (when ``nodes`` is given) only events observed on
        those nodes are dispatched to it.  Returns ``self``.  Call
        *before* registering with a hub — the hub binds the scope into
        its dispatch closure at :meth:`MonitorHub.add` time."""
        self.group = group
        self.scope = frozenset(nodes) if nodes is not None else None
        return self

    def interests(self):
        """The (kind -> mtypes) subscription map this monitor wants.

        ``mtypes=None`` means every mtype of that kind; returning
        ``None`` overall means every event of every kind.  The default
        derives from ``kinds``; monitors that also know their mtypes
        (decide labels, ack message types) override this so the tracer
        never even materializes unrelated events for them.
        """
        if not self.kinds:
            return None
        return {kind: None for kind in self.kinds}

    def raw_interests(self):
        """The (kind -> mtypes) map routed through the tracer's *raw*
        channel to :meth:`observe_raw` — no TraceEvent materialization.
        High-volume streams (per-message quorum acks, proposal scans)
        belong here; anything returned must be excluded from
        :meth:`interests`.  Empty by default.
        """
        return {}

    def observe(self, event):
        """Called for every matching trace event, in recording order."""

    def observe_raw(self, kind, time, node, peer, mtype, msg_id, payload):
        """Called for every :meth:`raw_interests` match with the raw
        recorded fields (payload = message object for SEND/DELIVER)."""

    def finish(self):
        """Called once at run end, for whole-run verdicts."""

    # -- reporting -----------------------------------------------------------

    def record(self, message, event=None, node="", **detail):
        """File an :class:`Anomaly`, rendering causal context if possible."""
        if event is not None:
            node = node or event.node
            time, seq = event.time, event.seq
            if "span" not in detail:
                # Link the offending request span, when the event names
                # one — `repro spans --req <id>` then shows the waterfall
                # the anomaly happened inside.
                for key in ("req", "request_id", "txid"):
                    ref = event.get(key)
                    if ref is not None:
                        detail = dict(detail, span=ref)
                        break
        else:
            time, seq = self._now(), -1
        if self.group is not None:
            # Name the shard/group, not just the node — a fleet report
            # is unreadable when every group's "r0" looks the same.
            message = "[%s] %s" % (self.group, message)
            detail = dict(detail, group=self.group)
        trace = self.hub.trace if self.hub is not None else None
        anomaly = Anomaly(
            monitor=self.name,
            category=self.category,
            message=message,
            node=node,
            time=time,
            seq=seq,
            detail=tuple(sorted((key, str(value))
                                for key, value in detail.items())),
            context=render_context(trace, node, seq),
        )
        self.anomalies.append(anomaly)
        return anomaly

    def _now(self):
        hub = self.hub
        if hub is not None and hub.tracer is not None:
            return hub.tracer.sim.now
        return 0.0

    def _last_event(self):
        """The event being recorded right now (for raw/counter-channel
        handlers that need a full event only when they trip)."""
        hub = self.hub
        if hub is not None and hub.tracer is not None:
            return hub.tracer.last_event()
        return None

    def __repr__(self):
        flag = "TRIPPED(%d)" % len(self.anomalies) if self.anomalies else "ok"
        return "%s(%s, %s)" % (type(self).__name__, self.name, flag)


class MonitorHub:
    """Routes trace events to registered monitors, online.

    Each monitor's declared interest set (:meth:`Monitor.interests`) is
    registered with the tracer's typed subscription tables at
    :meth:`add` time, so the tracer calls a monitor only for the kinds
    and mtypes it evaluates; counting monitors (``counts_events``) ride
    the tracer's per-event counter channel instead.  :meth:`observe`
    remains as a direct full-dispatch path for synthetic events in
    tests and replays.

    Parameters
    ----------
    tracer:
        The :class:`~repro.trace.Tracer` to subscribe to.
    collector:
        Optional :class:`~repro.metrics.MetricsCollector`; monitors that
        read transport counters (message-complexity envelope) find it
        here.
    """

    def __init__(self, tracer, collector=None):
        self.tracer = tracer
        self.collector = collector
        self.monitors = []
        self._dispatch = {}
        self._catchall = ()
        self._watchdogs = ()
        self._wd_routes = {}
        self._counter_live = False

    @property
    def trace(self):
        return self.tracer.trace if self.tracer is not None else None

    def add(self, monitor):
        """Register ``monitor``'s interest set with the tracer."""
        monitor.attach(self)
        self.monitors.append(monitor)
        # Kind-bucket index for the direct observe() path.
        if monitor.kinds:
            for kind in monitor.kinds:
                bucket = self._dispatch.get(kind, self._catchall)
                self._dispatch[kind] = bucket + (monitor,)
        else:
            self._catchall = self._catchall + (monitor,)
            for kind, bucket in self._dispatch.items():
                self._dispatch[kind] = bucket + (monitor,)
        tracer = self.tracer
        if monitor.counts_events:
            if tracer is None:
                pass
            elif monitor.scope is None:
                # Unscoped: its tick IS the sink — no routing layer.
                tracer.subscribe_counters(monitor.tick)
            else:
                # Scoped watchdogs share one routed sink with a
                # per-node route cache.
                self._watchdogs = self._watchdogs + (monitor,)
                self._wd_routes.clear()
                if not self._counter_live:
                    self._counter_live = True
                    tracer.subscribe_counters(self._tick)
        elif tracer is not None:
            raw = monitor.raw_interests()
            if raw:
                raw_sink = self._scoped_raw_sink(monitor)
                for kind, mtypes in raw.items():
                    tracer.subscribe_raw(raw_sink, kinds=(kind,),
                                         mtypes=mtypes)
            sink = self._scoped_sink(monitor)
            interests = monitor.interests()
            if interests is None:
                tracer.subscribe(sink)
            else:
                for kind, mtypes in interests.items():
                    tracer.subscribe(sink, kinds=(kind,), mtypes=mtypes)
        return monitor

    @staticmethod
    def _scoped_sink(monitor):
        observe = monitor.observe
        scope = monitor.scope
        if scope is None:
            return observe

        def sink(event):
            if event.node in scope:
                observe(event)
        return sink

    @staticmethod
    def _scoped_raw_sink(monitor):
        handler = monitor.observe_raw
        scope = monitor.scope
        if scope is None:
            return handler

        def sink(kind, time, node, peer, mtype, msg_id, payload):
            if node in scope:
                handler(kind, time, node, peer, mtype, msg_id, payload)
        return sink

    def _tick(self, kind, node, mtype):
        """Counter-channel fan-out to counting monitors, with a per-node
        route cache so scope checks cost one dict hit per event."""
        route = self._wd_routes.get(node)
        if route is None:
            route = self._wd_routes[node] = tuple(
                wd for wd in self._watchdogs
                if wd.scope is None or node in wd.scope)
        for wd in route:
            wd.tick(kind, node, mtype)

    def extend(self, monitors):
        for monitor in monitors:
            self.add(monitor)
        return self

    def observe(self, event):
        """Dispatch one event to every matching monitor directly.

        The live path goes through the tracer's subscription tables;
        this entry point serves tests and offline replays that push
        synthetic events through the battery by hand.
        """
        node = event.node
        for monitor in self._dispatch.get(event.kind, self._catchall):
            scope = monitor.scope
            if scope is None or node in scope:
                monitor.observe(event)

    def finish(self):
        """Run end-of-run verdicts; returns all anomalies.

        Idempotent *per monitor*: each monitor's ``finish`` runs exactly
        once no matter how many times the hub is finished, and monitors
        added after an earlier ``finish`` still get their verdict on the
        next call — so a second ``finish`` can never double-record, and
        a run that ends mid-view still surfaces its watchdog verdict.
        """
        for monitor in self.monitors:
            if not getattr(monitor, "_finish_done", False):
                monitor._finish_done = True
                monitor.finish()
        return self.anomalies

    @property
    def anomalies(self):
        found = []
        for monitor in self.monitors:
            found.extend(monitor.anomalies)
        found.sort(key=lambda a: (a.seq if a.seq >= 0 else 1 << 60,
                                  a.monitor, a.message))
        return found

    @property
    def ok(self):
        return not self.anomalies

    def __repr__(self):
        return "MonitorHub(%d monitors, %d anomalies)" % (
            len(self.monitors), len(self.anomalies))


class NullMonitor:
    """No-op monitor twin: observe/finish cost nothing, never trips."""

    name = "null"
    category = SAFETY
    kinds = ()
    counts_events = False
    anomalies = ()
    group = None
    scope = None

    def interests(self):
        # Interested in nothing: the hub registers no tracer sink at all.
        return {}

    def attach(self, hub):
        pass

    def observe(self, event):
        pass

    def finish(self):
        pass


class NullMonitorHub:
    """No-op hub twin for unconditional references in monitor-less runs."""

    tracer = None
    collector = None
    trace = None
    monitors = ()
    anomalies = ()
    ok = True

    def add(self, monitor):
        return monitor

    def extend(self, monitors):
        return self

    def observe(self, event):
        pass

    def finish(self):
        return ()


#: Shared null hub instance — safe because it is stateless.
NULL_HUB = NullMonitorHub()
