"""The simulated network transport.

:class:`Network` owns the registered nodes, asks its delivery model when
each message arrives, honours partitions, feeds the metrics collector,
and gives fault injectors an interception point for adversarial message
manipulation (drop / delay / duplicate — Byzantine *content* corruption
lives in the Byzantine node behaviours, since honest transports don't
rewrite payloads).

The send path is the hottest loop in the library — quadratic-traffic
protocols (PBFT) push tens of thousands of messages per run — so its
telemetry is served from pre-resolved counter handles cached per
``(message class, src, dst)`` link, and the common case (no tracer, no
interceptors, no partition) takes a short branch straight to the
delivery model.
"""

from ..metrics.collector import MetricsCollector
from ..sim.errors import ClockError
from .delivery import DeliveryModel, UniformDelayModel
from .message import protocol_of
from .partitions import PartitionManager


class Network:
    """Message fabric connecting :class:`~repro.core.node.Node` processes.

    Parameters
    ----------
    sim:
        The simulator supplying the clock, RNG and event queue.
    delivery:
        A :class:`~repro.net.delivery.DeliveryModel`; defaults to mildly
        jittered bounded delay.
    metrics:
        The :class:`~repro.metrics.MetricsCollector` every sent message
        and every phase mark is recorded on; a fresh one by default.
    tracer:
        Optional :class:`~repro.trace.Tracer`; every send, delivery and
        drop is recorded on it.  ``None`` (the default) keeps the send
        path on the untraced fast branch.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; sends, bytes
        and drops are recorded as labeled series — ``(protocol, mtype,
        link)`` for traffic, ``(reason, mtype)`` for drops, per-node
        send/receive counters.  ``None`` (the default) skips it all.
    """

    def __init__(self, sim, delivery=None, metrics=None, tracer=None,
                 telemetry=None):
        self.sim = sim
        self.delivery = delivery if delivery is not None else UniformDelayModel()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.tracer = tracer
        self.telemetry = telemetry
        self.partitions = PartitionManager()
        self._nodes = {}
        self._interceptors = []
        # Membership tuple handed out by :attr:`node_names`, rebuilt on
        # :meth:`register` — protocol loops read it per broadcast, so it
        # must not allocate per access.
        self._names_cache = None
        # Unified per-link fast-path cache, keyed (message class, src,
        # dst): each entry is ``(slot, handles)`` — the collector's
        # [count, bytes] accumulation slot and the pre-resolved telemetry
        # counter handles (None without telemetry).  Resolving a telemetry
        # handle sorts and hashes the label dict; these memos make every
        # later send on the same link a handful of inline increments.
        self._link_handles = {}
        self._drop_handles = {}
        self._recv_handles = {}

    # -- membership --------------------------------------------------------

    def register(self, node):
        """Attach a node to the fabric.  Names must be unique."""
        if node.name in self._nodes:
            raise ValueError("duplicate node name %r" % (node.name,))
        self._nodes[node.name] = node
        self._names_cache = None

    def node(self, name):
        """Look up a registered node by name."""
        return self._nodes[name]

    @property
    def node_names(self):
        """Registered node names, in registration order (immutable tuple,
        cached between registrations)."""
        names = self._names_cache
        if names is None:
            names = self._names_cache = tuple(self._nodes)
        return names

    # -- interception ------------------------------------------------------

    def add_interceptor(self, interceptor):
        """Register ``interceptor(src, dst, message) -> bool``.

        Returning ``False`` suppresses delivery.  A
        :class:`~repro.faults.FaultPlan` ``drop``, ``delay`` or
        ``duplicate`` row installs one while it lasts; a test whose fault
        is a predicate (a randomly lossy link) or that counts messages
        installs its own.
        """
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor):
        self._interceptors.remove(interceptor)

    # -- sending -----------------------------------------------------------

    def send(self, src, dst, message, _size=None):
        """Send ``message`` from node named ``src`` to node named ``dst``.

        Returns ``True`` if the message was put in flight (it may still be
        dropped by the delivery model), ``False`` if suppressed outright.
        ``_size`` lets :meth:`broadcast`/:meth:`multicast` cost the shared
        payload once instead of once per destination.
        """
        if dst not in self._nodes:
            raise KeyError("unknown destination %r" % (dst,))
        cached = self._link_handles.get((message.__class__, src, dst))
        if cached is None:
            cached = self._resolve_link(src, dst, message)
        slot, handles = cached
        size = message.size_estimate() if _size is None else _size
        # Batched collector lane: two list-cell bumps; the collector
        # folds slots into its aggregates on read.
        slot[0] += 1
        slot[1] += size
        if handles is not None:
            # Direct slot stores, not ``inc()`` calls: the amounts are
            # non-negative by construction, so the counter's guard (and
            # the call frame) buys nothing here.
            handles[0].value += 1
            handles[1].value += size
            handles[2].value += 1
        tracer = self.tracer
        # ``partitions._group_of is None`` is the PartitionManager.active
        # check without the property-call overhead — this test runs once
        # per message.
        if tracer is None and not self._interceptors \
                and self.partitions._group_of is None:
            # Fast branch: nothing can suppress the send, so go straight
            # to the delivery model and schedule the delivery inline
            # (bypassing Simulator.schedule's call frame).  Identical
            # observable behaviour (and RNG draw order) to the general
            # path below.
            sim = self.sim
            delay = self.delivery.delay(sim.rng, src, dst, sim.now)
            if delay is DeliveryModel.DROP:
                self._count_drop(message, "lost")
                return False
            if delay < 0:
                raise ClockError(
                    "cannot schedule in the past (delay=%r)" % (delay,))
            sim._queue.push_transient(sim._now + delay, self._deliver,
                                      (src, dst, message))
            return True
        token = tracer.on_send(src, dst, message) if tracer is not None else None
        for interceptor in self._interceptors:
            if interceptor(src, dst, message) is False:
                if tracer is not None:
                    tracer.on_drop(src, dst, message, "intercepted", token)
                self._count_drop(message, "intercepted")
                return False
        if not self.partitions.connected(src, dst):
            if tracer is not None:
                tracer.on_drop(src, dst, message, "partitioned", token)
            self._count_drop(message, "partitioned")
            return False
        sim = self.sim
        delay = self.delivery.delay(sim.rng, src, dst, sim.now)
        if delay is DeliveryModel.DROP:
            if tracer is not None:
                tracer.on_drop(src, dst, message, "lost", token)
            self._count_drop(message, "lost")
            return False
        if delay < 0:
            raise ClockError(
                "cannot schedule in the past (delay=%r)" % (delay,))
        # Deliveries are never cancelled, so they ride the queue's
        # transient lane: no Event object per message.
        if tracer is None:
            sim._queue.push_transient(sim._now + delay, self._deliver,
                                      (src, dst, message))
        else:
            sim._queue.push_transient(sim._now + delay, self._deliver_traced,
                                      (src, dst, message, token))
        return True

    def _resolve_link(self, src, dst, message):
        """Build and memoize the ``(slot, handles)`` pair for one link."""
        slot = self.metrics.slot_for(src, dst, message.mtype)
        handles = None
        telemetry = self.telemetry
        if telemetry is not None:
            link = "%s->%s" % (src, dst)
            proto = protocol_of(message)
            mtype = message.mtype
            handles = (
                telemetry.handle("counter", "net_messages_total",
                                 protocol=proto, mtype=mtype, link=link),
                telemetry.handle("counter", "net_bytes_total",
                                 protocol=proto, mtype=mtype, link=link),
                telemetry.handle("counter", "node_sent_total", node=src),
            )
        cached = (slot, handles)
        self._link_handles[(message.__class__, src, dst)] = cached
        return cached

    def broadcast(self, src, message, include_self=False):
        """Send ``message`` from ``src`` to every registered node.

        Each copy is an independent unicast (the paper's model: two-party
        messages), so each samples its own delay and counts as one message.
        """
        sent = 0
        size = message.size_estimate()
        for name in self._nodes:
            if name == src and not include_self:
                continue
            if self.send(src, name, message, _size=size):
                sent += 1
        return sent

    def multicast(self, src, dsts, message):
        """Unicast ``message`` to each destination in ``dsts``."""
        sent = 0
        # Every copy carries the same bytes: cost the payload once.
        size = message.size_estimate()
        for dst in dsts:
            if self.send(src, dst, message, _size=size):
                sent += 1
        return sent

    def _count_drop(self, message, reason):
        if self.telemetry is not None:
            key = (message.__class__, reason)
            inc = self._drop_handles.get(key)
            if inc is None:
                inc = self.telemetry.handle(
                    "counter", "net_drops_total", reason=reason,
                    mtype=message.mtype).inc
                self._drop_handles[key] = inc
            inc()

    def _count_receive(self, dst):
        if self.telemetry is not None:
            counter = self._recv_handles.get(dst)
            if counter is None:
                counter = self.telemetry.handle(
                    "counter", "node_received_total", node=dst)
                self._recv_handles[dst] = counter
            counter.value += 1

    def _deliver(self, src, dst, message):
        node = self._nodes.get(dst)
        if node is None or node.crashed:
            self._count_drop(message, "crashed")
            return
        # _count_receive inlined: this runs once per delivered message.
        if self.telemetry is not None:
            counter = self._recv_handles.get(dst)
            if counter is None:
                counter = self.telemetry.handle(
                    "counter", "node_received_total", node=dst)
                self._recv_handles[dst] = counter
            counter.value += 1
        node.deliver(message, src)

    def _deliver_traced(self, src, dst, message, token):
        node = self._nodes.get(dst)
        if node is None or node.crashed:
            self.tracer.on_drop(src, dst, message, "crashed", token)
            self._count_drop(message, "crashed")
            return
        self.tracer.on_deliver(src, dst, message, token)
        self._count_receive(dst)
        node.deliver(message, src)
