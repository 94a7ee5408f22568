"""Fault injection: a fault schedule is a list of rows.

A schedule is a plain value, a list (or tuple) of ``(at, action,
*args)`` rows holding only numbers, node names, ``None`` and lists of
names, so ``json.loads(json.dumps(rows))`` replays the same run.
``action`` names one of :class:`FaultPlan`'s ``*_at`` methods:

================  ======================================================
``crash``         ``target``: fail-stop every live node it names
``restart``       ``target``: recover every crashed node it names
``crash_random``  ``candidates``: crash one live node, drawn from the
                  plan's own RNG (never ``sim.rng``)
``partition``     ``*groups``: split the network into these groups
``heal``          undo the partition
``drop``          ``src, dst, mtype, until``: drop matching messages
``delay``         ``by, src, dst, mtype, until``: send matching messages
                  ``by`` later instead of now
``duplicate``     ``copies, src, dst, mtype, until``: send each matching
                  message ``copies`` more times, 0.5 vt apart
================  ======================================================

A node field (``target``, ``candidates``, a partition group, ``src``,
``dst``) is a node name, a list of them, or a role resolved when the row
fires: ``"leader"`` (the cluster's :func:`live_leader`) or, for the
cluster group ``gid``, ``"<gid>/leader"``, ``"<gid>/follower"`` (its
first live member that does not report itself leader) and ``"<gid>/*"``
(every member).  In the message rows ``None`` means any node, any
message type, or (for ``until``) for good.  A role nobody plays when the
row fires makes the row do nothing.  This is how
:data:`repro.scenarios.SCENARIOS` writes "this node fails at t"::

    FaultPlan(cluster).apply([(20.0, "crash", "leader"),
                              (40.0, "partition", ["r0"], ["r1", "r2"]),
                              (60.0, "heal"),
                              (70.0, "drop", "s1/leader", None, None, 90.0)])

Each row fires as one event at its time and counts once in
``fault_injections_total{kind=<action>}`` when it does anything.  Apply
a schedule before the protocol's driver: a row at t=0 then fires before
the nodes' ``on_start``, so the node never starts.
"""

import random

#: The roles a node field may name, alone or after ``"<gid>/"``.
ROLES = ("leader", "follower", "*")


def _leads(node):
    """``node`` reports itself leader: ``is_leader`` where its class has
    one, else ``is_primary``."""
    flag = "is_leader" if hasattr(node, "is_leader") else "is_primary"
    return getattr(node, flag, False)


def live_leader(nodes):
    """The first live node of ``nodes`` that reports itself leader, or
    ``None``."""
    for node in nodes:
        if not node.crashed and _leads(node):
            return node
    return None


def crash_leader(nodes):
    """Crash the :func:`live_leader` of ``nodes``; returns its name, or
    ``None`` when none leads."""
    leader = live_leader(nodes)
    if leader is None:
        return None
    leader.crash()
    return leader.name


def _detail(names):
    return names[0] if len(names) == 1 else tuple(names)


class FaultPlan:
    """Schedule of fault rows bound to one cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.events = []
        # Not ``sim.rng``, which the network's delays draw from: adding
        # or removing a row that draws must not shift every later delay.
        self.rng = random.Random("faults-%s" % (cluster.sim.seed,))
        self._replaying = False

    def _log(self, kind, detail):
        self.events.append((self.cluster.sim.now, kind, detail))
        telemetry = getattr(self.cluster, "telemetry", None)
        if telemetry is not None:
            telemetry.counter("fault_injections_total", kind=kind).inc()

    def apply(self, schedule):
        """Schedule every ``(at, action, *args)`` row of ``schedule`` as
        ``self.<action>_at(at, *args)``; returns the plan."""
        for at, action, *args in schedule:
            getattr(self, action + "_at")(at, *args)
        return self

    def _names(self, target):
        """The node names ``target`` stands for right now (see the module
        docstring); ``None`` stays ``None``.  A plain name is not looked
        up."""
        if target is None:
            return None
        if not isinstance(target, str):
            return [name for entry in target for name in self._names(entry)]
        gid, _, role = target.rpartition("/")
        if role not in ROLES:
            return [target]
        nodes = self.cluster.groups[gid].nodes if gid else self.cluster.nodes
        if role == "*":
            return [node.name for node in nodes]
        if role == "leader":
            leader = live_leader(nodes)
            return [] if leader is None else [leader.name]
        return [node.name for node in nodes
                if not node.crashed and not _leads(node)][:1]

    def _nodes(self, target):
        return [self.cluster.node_named(name) for name in self._names(target)]

    # -- process faults ---------------------------------------------------------

    def crash_at(self, time, target):
        """Fail-stop every live node ``target`` names at virtual ``time``;
        a plain name no node has raises ``KeyError`` when the row fires."""
        def do_crash():
            victims = [node for node in self._nodes(target) if not node.crashed]
            for node in victims:
                node.crash()
            if victims:
                self._log("crash", _detail([node.name for node in victims]))
        self.cluster.sim.schedule_at(time, do_crash)

    def restart_at(self, time, target):
        """Recover every crashed node ``target`` names."""
        def do_restart():
            revived = [node for node in self._nodes(target) if node.crashed]
            for node in revived:
                node.restart()
            if revived:
                self._log("restart", _detail([node.name for node in revived]))
        self.cluster.sim.schedule_at(time, do_restart)

    def crash_random_at(self, time, candidates):
        """Crash one uniformly chosen live node of ``candidates``."""
        def do_crash():
            alive = [node for node in self._nodes(candidates)
                     if not node.crashed]
            if alive:
                victim = self.rng.choice(alive)
                victim.crash()
                self._log("crash_random", victim.name)
        self.cluster.sim.schedule_at(time, do_crash)

    # -- network faults -----------------------------------------------------------

    def partition_at(self, time, *groups):
        def do_split():
            groups_now = [self._names(group) for group in groups]
            self.cluster.network.partitions.split(*groups_now)
            self._log("partition", tuple(groups_now))
        self.cluster.sim.schedule_at(time, do_split)

    def heal_at(self, time):
        def do_heal():
            self.cluster.network.partitions.heal()
            self._log("heal", None)
        self.cluster.sim.schedule_at(time, do_heal)

    def drop_at(self, time, src=None, dst=None, mtype=None, until=None):
        """Drop every message matching ``src, dst, mtype`` from ``time``
        until ``until``."""
        self._link_fault(time, "drop", src, dst, mtype, until,
                         lambda *message: False)

    def delay_at(self, time, by, src=None, dst=None, mtype=None, until=None):
        """Hold every matching message ``by`` before sending it: the send
        is suppressed (a drop with reason ``intercepted``) and an
        identical one leaves ``by`` later, untouched by this plan's
        ``delay`` and ``duplicate`` rows."""
        def hold(*message):
            if self._replaying:
                return None
            self.cluster.sim.schedule(by, self._resend, *message)
            return False
        self._link_fault(time, "delay", src, dst, mtype, until, hold)

    def duplicate_at(self, time, copies, src=None, dst=None, mtype=None,
                     until=None):
        """Send every matching message ``copies`` extra times, the k-th
        ``k * 0.5`` after the original (which still goes through)."""
        def copy(*message):
            if not self._replaying:
                for k in range(1, copies + 1):
                    self.cluster.sim.schedule(k * 0.5, self._resend, *message)
        self._link_fault(time, "duplicate", src, dst, mtype, until, copy)

    def _resend(self, src, dst, message):
        self._replaying = True
        try:
            self.cluster.network.send(src, dst, message)
        finally:
            self._replaying = False

    def _link_fault(self, time, kind, src, dst, mtype, until, effect):
        """At ``time``, install a network interceptor answering
        ``effect(src, dst, message)`` for the messages from ``src`` to
        ``dst`` of type ``mtype``, and remove it at ``until``."""
        def install():
            srcs, dsts = self._names(src), self._names(dst)
            if srcs == [] or dsts == []:
                return

            def interceptor(sender, receiver, message):
                if ((srcs is None or sender in srcs)
                        and (dsts is None or receiver in dsts)
                        and (mtype is None or message.mtype == mtype)):
                    return effect(sender, receiver, message)
                return None
            network = self.cluster.network
            network.add_interceptor(interceptor)
            if until is not None:
                self.cluster.sim.schedule_at(
                    until, network.remove_interceptor, interceptor)
            self._log(kind, (srcs, dsts, mtype, until))
        self.cluster.sim.schedule_at(time, install)
