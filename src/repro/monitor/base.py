"""Monitor base class, the streaming hub, and the null hub.

The hub registers each monitor's *declared interest set* with the
:class:`~repro.trace.Tracer`'s typed subscription table: a monitor
states, via :meth:`Monitor.interests`, exactly which event kinds and
``mtype`` values it evaluates, and the tracer hands it the ring rows of
those events only — an agreement monitor is invoked for decide
milestones, never for the million sends in between.  A monitor has one
row handler, :meth:`Monitor.observe`, and reads fields off the row with
:func:`~repro.trace.tracer.row_get`; nothing is built per event.
Invariants are evaluated *online*, row by row, while the simulator
runs.

Mirroring ``telemetry.instruments``, the module ships a null twin of
the hub (:class:`NullMonitorHub`, :data:`NULL_HUB`) so code can hold an
unconditional hub reference; a monitors-off run never constructs a
tracer sink at all, keeping the no-observer fast path of the network
untouched.

Monitors are pure observers: they must not schedule events, send
messages, or touch the simulator's RNG.  Enabling monitors therefore
cannot perturb a run — same seed, same trace, monitors or not.
"""

from ..trace.events import DELIVER, KINDS
from ..trace.tracer import row_get
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

    Subclasses set ``name`` and ``category``, declare the rows they
    observe with :meth:`interests`, and override :meth:`observe` (per
    row) and/or :meth:`finish` (end of run).  Violations are reported
    through :meth:`record`, which stamps the anomaly with the offending
    row and its rendered causal context.
    """

    name = "monitor"
    category = SAFETY

    def __init__(self):
        self.hub = None
        self.anomalies = []
        self._finish_done = False
        #: Optional group label (shard/group id) stamped on anomalies.
        self.group = None
        #: Optional frozenset of node names this monitor observes; the
        #: hub skips rows on other nodes.  ``None`` = fleet-wide.
        self.scope = None

    def attach(self, hub):
        self.hub = hub

    def scope_to(self, group, nodes=None):
        """Restrict this monitor to one group: anomalies are labeled
        ``group`` and (when ``nodes`` is given) only rows observed on
        those nodes are dispatched to it.  Returns ``self``.  Call
        *before* registering with a hub — the hub reads the scope at
        :meth:`MonitorHub.add` time."""
        self.group = group
        self.scope = frozenset(nodes) if nodes is not None else None
        return self

    def interests(self):
        """The (kind -> mtypes) subscription map this monitor wants.

        ``mtypes=None`` means every mtype of that kind; returning
        ``None`` overall (the default) means every row of every kind.
        """
        return None

    def observe(self, row):
        """Called for every matching ring row, in recording order."""

    def finish(self):
        """Called once at run end, for whole-run verdicts."""

    # -- reporting -----------------------------------------------------------

    def record(self, message, row=None, node="", **detail):
        """File an :class:`Anomaly`, rendering causal context if possible.

        ``row`` is the ring row being observed — always the newest, so
        the anomaly's seq is the newest row's."""
        if row is not None:
            node = node or row[2]
            time, seq = row[1], self._seq()
            if "span" not in detail:
                # Link the offending request span, when the row names
                # one — `repro spans --req <id>` then shows the waterfall
                # the anomaly happened inside.
                for key in ("req", "request_id", "txid"):
                    ref = row_get(row, key)
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

    def _seq(self):
        """The seq of the newest recorded row (-1 without a tracer)."""
        hub = self.hub
        if hub is not None and hub.tracer is not None:
            return hub.tracer._total - 1
        return -1

    def __repr__(self):
        flag = "TRIPPED(%d)" % len(self.anomalies) if self.anomalies else "ok"
        return "%s(%s, %s)" % (type(self).__name__, self.name, flag)


class MonitorHub:
    """Routes ring rows to registered monitors, online.

    Two registration shapes: an unscoped monitor's :meth:`Monitor.observe`
    is subscribed to the tracer directly, once per entry of its
    interest map; a scoped monitor (one group of a fleet) is entered,
    for every ``(kind, mtype)`` it wants, into that pair's node table.
    Each table has one router sink, subscribed to exactly its pair, so
    the tracer's own kind/mtype dispatch picks the table and a row
    costs the router one probe on its node; a row no scoped monitor
    wants never reaches a router.

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
        #: ``(kind, mtype)`` -> node -> handlers of the scoped monitors
        #: of that node that want those rows (``mtype`` ``None``: every
        #: mtype of the kind).
        self._routes = {}

    @property
    def trace(self):
        return self.tracer.trace if self.tracer is not None else None

    def add(self, monitor):
        """Register ``monitor``'s interest set with the tracer."""
        monitor.attach(self)
        self.monitors.append(monitor)
        tracer = self.tracer
        if tracer is None:
            return monitor
        interests = monitor.interests()
        if monitor.scope is not None:
            self._add_scoped(monitor.scope, interests, monitor.observe)
        elif interests is None:
            tracer.subscribe(monitor.observe)
        else:
            for kind, mtypes in interests.items():
                tracer.subscribe(monitor.observe, kinds=(kind,),
                                 mtypes=mtypes)
        return monitor

    def _add_scoped(self, scope, interests, observe):
        """Enter ``observe`` into the node table of every ``(kind,
        mtype)`` in ``interests``, subscribing a router for a new one."""
        if interests is None:
            interests = dict.fromkeys(KINDS)
        for kind, mtypes in interests.items():
            for mtype in (None,) if mtypes is None \
                    else dict.fromkeys(mtypes):
                table = self._routes.get((kind, mtype))
                if table is None:
                    table = self._routes[kind, mtype] = {}
                    self.tracer.subscribe(
                        _node_router(table), kinds=(kind,),
                        mtypes=None if mtype is None else (mtype,))
                for node in scope:
                    table[node] = table.get(node, ()) + (observe,)

    def extend(self, monitors):
        for monitor in monitors:
            self.add(monitor)
        return self

    def finish(self):
        """Run end-of-run verdicts; returns all anomalies.

        Idempotent *per monitor*: each monitor's ``finish`` runs exactly
        once no matter how many times the hub is finished, and monitors
        added after an earlier ``finish`` still get their verdict on the
        next call — so a second ``finish`` can never double-record, and
        a run that ends mid-view still surfaces its watchdog verdict.
        """
        for monitor in self.monitors:
            if not monitor._finish_done:
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


def _node_router(table):
    """The sink of one ``(kind, mtype)`` node table: a row reaches the
    handlers of its node, if any."""
    handlers_of = table.get

    def route(row):
        handlers = handlers_of(row[2])
        if handlers is not None:
            for observe in handlers:
                observe(row)
    return route


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

    def finish(self):
        return ()


#: Shared null hub instance — safe because it is stateless.
NULL_HUB = NullMonitorHub()
