"""Fault injection: scheduled crashes, restarts, partitions, link faults.

Thin, composable wrappers over the primitives the kernel already has
(``Process.crash``/``restart``, ``PartitionManager``, network
interceptors), so tests and experiments read declaratively::

    faults = FaultPlan(cluster)
    faults.crash_at(5.0, "r0")
    faults.restart_at(50.0, "r0")
    faults.partition_at(10.0, ["r0", "r1"], ["r2", "r3"])
    faults.heal_at(30.0)
    faults.drop_messages(lambda src, dst, msg: src == "r2", between=(12.0, 20.0))

A schedule is also a plain value: a tuple of ``(at, action, *args)``
rows, ``action`` naming one of the ``*_at`` methods.  This is how
:data:`repro.scenarios.SCENARIOS` writes "this node fails at t"::

    FaultPlan(cluster).apply(((20.0, "crash", "leader"),
                              (40.0, "partition", ["r0"], ["r1", "r2"]),
                              (60.0, "heal")))

Apply a schedule before the protocol's driver: a row at t=0 then fires
before the nodes' ``on_start``, so the node never starts.
"""


def live_leader(nodes):
    """The first live node of ``nodes`` that reports itself leader
    (``is_leader`` where its class has one, else ``is_primary``), or
    ``None``."""
    for node in nodes:
        flag = "is_leader" if hasattr(node, "is_leader") else "is_primary"
        if not node.crashed and getattr(node, flag, False):
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


class FaultPlan:
    """Schedule of fault events bound to one cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.events = []

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

    # -- process faults ---------------------------------------------------------

    def crash_at(self, time, target):
        """Fail-stop ``target`` at virtual ``time``: a node name
        (``KeyError`` when no node has it), or ``"leader"``, resolved when
        the row fires to the first live node, in cluster order, that
        reports itself leader (``is_leader`` where its class has one,
        else ``is_primary``).  With no live leader the row does nothing."""
        def do_crash():
            node = (live_leader(self.cluster.nodes) if target == "leader"
                    else self.cluster.node_named(target))
            if node is not None:
                node.crash()
                self._log("crash", node.name)
        self.cluster.sim.schedule_at(time, do_crash)

    def restart_at(self, time, node_name):
        def do_restart():
            self.cluster.node_named(node_name).restart()
            self._log("restart", node_name)
        self.cluster.sim.schedule_at(time, do_restart)

    def crash_random_at(self, time, candidates):
        """Crash one uniformly chosen node from ``candidates``."""
        def do_crash():
            alive = [n for n in candidates
                     if not self.cluster.node_named(n).crashed]
            if alive:
                victim = self.cluster.sim.rng.choice(alive)
                self.cluster.node_named(victim).crash()
                self._log("crash", victim)
        self.cluster.sim.schedule_at(time, do_crash)

    # -- network faults -----------------------------------------------------------

    def partition_at(self, time, *groups):
        def do_split():
            self.cluster.network.partitions.split(*groups)
            self._log("partition", groups)
        self.cluster.sim.schedule_at(time, do_split)

    def heal_at(self, time):
        def do_heal():
            self.cluster.network.partitions.heal()
            self._log("heal", None)
        self.cluster.sim.schedule_at(time, do_heal)

    def drop_messages(self, predicate, between=None):
        """Install an interceptor dropping messages matching
        ``predicate(src, dst, message)``; optionally only within the
        ``between=(start, end)`` virtual-time window."""
        def interceptor(src, dst, message):
            if between is not None:
                now = self.cluster.sim.now
                if not between[0] <= now <= between[1]:
                    return None
            if predicate(src, dst, message):
                return False
            return None
        self.cluster.network.add_interceptor(interceptor)
        return interceptor

    def isolate_node(self, node_name, between=None):
        """Drop everything to and from ``node_name`` (a 'correct but
        partitioned' replica, XFT's p)."""
        return self.drop_messages(
            lambda src, dst, message: node_name in (src, dst),
            between=between,
        )
