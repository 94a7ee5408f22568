"""Cluster — one-stop wiring of simulator, network, metrics and crypto.

Every driver ("run Paxos with 5 acceptors and one crash") starts the
same way: build a simulator, a network with a delivery model, a metrics
collector, a key registry.  :class:`Cluster` bundles that boilerplate so
protocol drivers, examples and benchmarks stay readable.
"""

from ..crypto.signatures import KeyRegistry
from ..crypto.usig import UsigAuthority
from ..metrics.collector import MetricsCollector
from ..net.delivery import UniformDelayModel
from ..net.network import Network
from ..sim.simulator import Simulator
from ..telemetry.registry import MetricsRegistry
from ..trace.tracer import Tracer


class ClusterGroup:
    """One named consensus group inside a :class:`Cluster` fleet.

    A group is a *namespace*: member nodes live on the cluster's shared
    simulator and network but carry scoped names (``s0/r1``), so traces,
    telemetry labels and monitor reports attribute every event to its
    group.  Groups are how one simulation hosts a fleet of independent
    protocol instances — the architecture sharded deployments
    (:mod:`repro.shard`) stand on.
    """

    def __init__(self, cluster, gid):
        self.cluster = cluster
        self.gid = str(gid)
        self.nodes = []

    def member(self, local_name):
        """The fleet-wide name of this group's ``local_name`` member."""
        return "%s/%s" % (self.gid, local_name)

    @property
    def member_names(self):
        """Fleet-wide names of every node added through this group."""
        return tuple(node.name for node in self.nodes)

    def add_node(self, factory, local_name, *args, **kwargs):
        """Add ``factory(sim, network, member(local_name), ...)`` to the
        group (and to the cluster).  Peer lists passed through ``args``
        must already use fleet-wide (:meth:`member`) names."""
        node = self.cluster.add_node(factory, self.member(local_name),
                                     *args, **kwargs)
        self.nodes.append(node)
        return node

    def add_nodes(self, factory, local_names, *args, **kwargs):
        """Add one member per local name; see :meth:`add_node`."""
        return [self.add_node(factory, name, *args, **kwargs)
                for name in local_names]

    def attach_monitors(self, protocol, f=0, n=None):
        """Attach ``protocol``'s monitor battery *scoped to this group*:
        monitors only observe events on member nodes and stamp anomalies
        with the group id, so a fleet of same-protocol groups can be
        watched without slots from different groups colliding."""
        if n is None:
            n = len(self.nodes)
        return self.cluster.attach_monitors(protocol, n, f, group=self.gid,
                                            nodes=self.member_names)

    def start_all(self):
        for node in self.nodes:
            node.start()

    def __repr__(self):
        return "ClusterGroup(%r, %d nodes)" % (self.gid, len(self.nodes))


class Cluster:
    """A ready-to-populate simulated deployment.

    Parameters
    ----------
    seed:
        Simulation seed; identical seeds replay identical runs.
    delivery:
        Network delivery model; defaults to mildly jittered bounded delay.
    trace:
        When true, attach a :class:`~repro.trace.Tracer` recording every
        send/deliver/drop/timer/phase-mark with per-node Lamport clocks.
        Off by default; an untraced cluster pays nothing.
    telemetry:
        When true, attach a :class:`~repro.telemetry.MetricsRegistry` and
        record labeled counters and latency histograms from the network,
        the simulator's event loop and timer wheel, fault injection and
        the metrics collector's phase/request marks.  Off by default; an
        un-instrumented cluster pays nothing, and telemetry only
        *observes* — enabling it never changes a run's behaviour.
    monitors:
        When true, attach a :class:`~repro.monitor.MonitorHub` streaming
        every trace event to online invariant monitors (implies
        ``trace=True`` — monitors watch the trace).  Populate it per
        protocol with :meth:`attach_monitors`.  Off by default, the hub
        is the :data:`~repro.monitor.NULL_HUB` twin and the run pays
        nothing.  Like the tracer, monitors are pure observers: enabling
        them never changes a run's behaviour.
    trace_capacity:
        Optional ring-buffer bound for the tracer: keep only the newest
        N events (flight-recorder mode for long runs).  ``None`` keeps
        everything — required for golden exports and whole-run causal
        queries.
    """

    def __init__(self, seed=0, delivery=None, trace=False, telemetry=False,
                 monitors=False, trace_capacity=None):
        self.sim = Simulator(seed=seed)
        self.tracer = (Tracer(self.sim, capacity=trace_capacity)
                       if (trace or monitors) else None)
        self.sim.tracer = self.tracer
        self.telemetry = MetricsRegistry() if telemetry else None
        if self.telemetry is not None:
            self.sim.attach_telemetry(self.telemetry)
        self.metrics = MetricsCollector(tracer=self.tracer,
                                        registry=self.telemetry)
        self.network = Network(
            self.sim,
            delivery=delivery if delivery is not None else UniformDelayModel(),
            metrics=self.metrics,
            tracer=self.tracer,
            telemetry=self.telemetry,
        )
        self.keys = KeyRegistry(seed=b"cluster-%d" % seed)
        self.usig_authority = UsigAuthority(seed=b"cluster-usig-%d" % seed)
        self.nodes = []
        self.groups = {}
        if monitors:
            from ..monitor import MonitorHub
            self.monitors = MonitorHub(self.tracer, collector=self.metrics)
        else:
            from ..monitor import NULL_HUB
            self.monitors = NULL_HUB

    def group(self, gid):
        """The :class:`ClusterGroup` named ``gid``, created on first use.

        Groups are the fleet API: each is an independent namespace of
        nodes (``<gid>/<local>``) sharing this cluster's simulator,
        network and observers.  One cluster may host any number of
        groups — per-shard consensus groups, a coordinator tier, a
        client tier — all advancing on one virtual clock.
        """
        gid = str(gid)
        grp = self.groups.get(gid)
        if grp is None:
            grp = self.groups[gid] = ClusterGroup(self, gid)
        return grp

    def attach_monitors(self, protocol, n, f=0, group=None, nodes=None):
        """Populate the monitor hub with ``protocol``'s spec battery.

        Requires ``Cluster(monitors=True)``; raises ``ValueError``
        otherwise so a silently-null hub can't masquerade as coverage.
        ``group`` labels every anomaly with the group id and ``nodes``
        scopes the battery to events observed on those nodes — both are
        required when several groups of the same protocol share one
        trace, or their slots/epochs would collide.
        Returns the list of attached monitors.
        """
        from ..monitor import NULL_HUB, build_monitors, spec_for
        if self.monitors is NULL_HUB:
            raise ValueError(
                "attach_monitors needs Cluster(monitors=True)")
        battery = build_monitors(spec_for(protocol), n, f, group=group,
                                 nodes=nodes)
        self.monitors.extend(battery)
        return battery

    def add_node(self, factory, *args, **kwargs):
        """Construct a node via ``factory(sim, network, *args, **kwargs)``,
        track it, and return it."""
        node = factory(self.sim, self.network, *args, **kwargs)
        self.nodes.append(node)
        return node

    def add_nodes(self, factory, names, *args, **kwargs):
        """Construct one node per name: ``factory(sim, network, name, ...)``."""
        return [self.add_node(factory, name, *args, **kwargs) for name in names]

    def start_all(self):
        """Start every tracked node."""
        for node in self.nodes:
            node.start()

    def run(self, **kwargs):
        """Run the simulation (see :meth:`repro.sim.Simulator.run`)."""
        return self.sim.run(**kwargs)

    def run_until(self, predicate, **kwargs):
        """Run until ``predicate()`` is true or the event queue drains."""
        return self.sim.run(stop_when=predicate, **kwargs)

    def node_named(self, name):
        return self.network.node(name)

    @property
    def now(self):
        return self.sim.now

    @property
    def trace(self):
        """The recorded :class:`~repro.trace.Trace`, or ``None`` when the
        cluster was built without ``trace=True``."""
        return self.tracer.trace if self.tracer is not None else None
