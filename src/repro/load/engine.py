"""The open-loop load engine: injectors, per-protocol fleets, sweeps.

Millions of logical clients, each issuing requests on its own schedule,
superpose into one Poisson stream (the superposition theorem) — so the
engine never simulates clients individually.  A bounded set of
*injector* nodes carries the aggregate arrival process split evenly
between them, keeping the event count O(requests) no matter how large
the modeled population is.  Each injector draws its arrivals and keys
from a private :func:`~repro.parallel.streams.named_stream`, so the
traffic a given injector offers is a pure function of ``(seed, name)``
— independent of worker count, protocol timing, or the other injectors.

The serving side runs on :class:`~repro.net.delivery.QueuedDelayModel`:
finite per-replica ingress capacity is what turns offered load into
queueing delay and gives every protocol a measurable saturation knee —
the point where the paper's per-request message complexity (O(n)
leader-based vs O(n²) PBFT broadcast) becomes a latency cliff rather
than a table entry.

:func:`run_loadtest` drives one offered-load point and returns a
deterministic report; :func:`run_sweep` fans points out over
:class:`~repro.parallel.ParallelRunner` workers (byte-identical at any
worker count, since every point is an independent same-seed run) and
locates the knee with :func:`~repro.load.slo.detect_knee`.
"""

from ..core.client import agreed, next_target
from ..core.cluster import Cluster
from ..core.node import Node
from ..core.quorums import primary_of
from ..net.delivery import QueuedDelayModel
from ..parallel.runner import ParallelRunner
from ..parallel.streams import named_stream
from ..scenarios import SCENARIOS, client_row
from ..shard.layout import draw_partner, key_name, transfer_update
from ..sim.process import Process
from ..telemetry.instruments import _finite
from .arrivals import DiurnalArrivals, HotKeyStorm, PoissonArrivals
from .slo import LatencyAccountant, detect_knee
from .workloads import OpMix, ZipfKeys

#: Protocols the engine can drive: every ``SCENARIOS`` row that names a
#: client protocol, plus the fleet compositions (driven through their
#: coordinator; scale comes from ``LoadSpec.shards``/``replicas``).
PROTOCOLS = tuple(name for name, scenario in SCENARIOS.items()
                  if scenario.client is not None
                  or scenario.fleet_claim is not None)

#: Faults every single-group load fleet is sized to tolerate.
_FLEET_F = 1

#: Ring-buffer bound for the tracer under monitors: monitors stream
#: events live, so verdicts never depend on retention — the bound only
#: keeps a long load run's memory flat.
_TRACE_CAPACITY = 4096


class LoadSpec:
    """Plain, picklable description of one load run.

    ``rate`` is the aggregate offered load in requests per virtual time
    unit; ``clients`` is the modeled logical population (documentation
    of scale — the arrival process is its superposition, so the number
    never affects event count).
    """

    def __init__(self, protocol="multi-paxos", rate=1.0, duration=200.0,
                 seed=0, arrivals="poisson", skew=0.99, n_keys=100_000,
                 clients=1_000_000, injectors=4, storm=False,
                 storm_fraction=0.8, slo=None, window=50.0, monitors=False,
                 service=0.05, reads=0.5, writes=0.4, increments=0.1,
                 shards=2, replicas=3, cross_ratio=0.25, key_space=64,
                 drain=300.0, resend_cap=8):
        if protocol not in PROTOCOLS:
            raise ValueError("unknown protocol %r (choices: %s)"
                             % (protocol, ", ".join(sorted(PROTOCOLS))))
        if arrivals not in ("poisson", "diurnal"):
            raise ValueError("arrivals must be 'poisson' or 'diurnal'")
        if rate <= 0:
            raise ValueError("rate must be positive")
        if injectors < 1:
            raise ValueError("need at least one injector")
        self.protocol = protocol
        self.rate = rate
        self.duration = duration
        self.seed = seed
        self.arrivals = arrivals
        self.skew = skew
        self.n_keys = n_keys
        self.clients = clients
        self.injectors = injectors
        self.storm = storm
        self.storm_fraction = storm_fraction
        self.slo = slo
        self.window = window
        self.monitors = monitors
        self.service = service
        self.reads = reads
        self.writes = writes
        self.increments = increments
        self.shards = shards
        self.replicas = replicas
        self.cross_ratio = cross_ratio
        self.key_space = key_space
        self.drain = drain
        self.resend_cap = resend_cap

    def replace(self, **overrides):
        """A copy with the given fields replaced."""
        spec = LoadSpec.__new__(LoadSpec)
        spec.__dict__.update(self.__dict__)
        spec.__dict__.update(overrides)
        return spec

    def describe(self):
        """Deterministic spec digest embedded in every report."""
        return {
            "protocol": self.protocol,
            "duration": _finite(self.duration),
            "seed": self.seed,
            "arrivals": self.arrivals,
            "skew": _finite(self.skew),
            "n_keys": self.n_keys,
            "clients": self.clients,
            "injectors": self.injectors,
            "storm": self.storm,
            "slo": _finite(self.slo),
            "service": _finite(self.service),
            "monitors": self.monitors,
        }


def _arrival_process(spec, per_injector_rate):
    if spec.arrivals == "diurnal":
        return DiurnalArrivals(per_injector_rate, period=spec.duration / 2.0)
    return PoissonArrivals(per_injector_rate)


class InjectorBase:
    """What every injector is, mixed into a simulated process: a slice
    of the aggregate open-loop stream, and the accounting of every
    request it originates.

    The arrival chain is timer-driven: each firing schedules the next
    draw from the injector's private arrival process, so the schedule
    never depends on service behaviour — the open-loop contract.
    Subclasses implement ``_inject(intended)``, recording the request in
    :attr:`outstanding`, and call :meth:`_complete` when it is answered.
    """

    def _open_stream(self, spec, accountant, load_start):
        self.spec = spec
        self.accountant = accountant
        self.rng = named_stream(spec.seed, "loadtest", self.name)
        process = _arrival_process(spec, spec.rate / spec.injectors)
        self._times = process.times(self.rng, spec.duration,
                                    start=load_start)
        self.outstanding = {}  # request key -> intended arrival time

    def on_start(self):
        self._schedule_next()

    def _schedule_next(self):
        arrival = next(self._times, None)
        if arrival is None:
            return
        self.set_timer(max(0.0, arrival - self.sim.now), self._fire, arrival)

    def _fire(self, intended):
        self.accountant.arrive(intended)
        self._inject(intended)
        self._schedule_next()

    def _complete(self, request_key):
        intended = self.outstanding.pop(request_key, None)
        if intended is not None:
            self.accountant.complete(intended, self.sim.now)

    def abandon_outstanding(self):
        """End-of-run accounting for requests that never completed."""
        for request_key in sorted(self.outstanding):
            self.accountant.abandon(self.outstanding[request_key])
        self.outstanding.clear()


class OpenLoopInjector(InjectorBase, Node):
    """Open-loop injector speaking any
    :class:`~repro.core.client.ClientProtocol` row.

    Requests go to the replica last known to lead: a redirect moves the
    target, and where replies carry the view its primary is followed.
    A reply counts once ``row.need`` replicas agree on the result.  Rows
    that retransmit to everyone (backups relay to the primary or force
    a view change) re-send an unanswered request every
    ``retry_timeout``.  Redirect chases and retransmissions share one
    budget per request — past ``spec.resend_cap`` it is left to be
    accounted abandoned — so an election storm cannot amplify offered
    load unboundedly.  Per-request state lives exactly as long as the
    request is outstanding."""

    def __init__(self, sim, network, name, targets, spec, accountant,
                 mix, load_start, row, f):
        super().__init__(sim, network, name)
        self._open_stream(spec, accountant, load_start)
        self.targets = list(targets)
        self.mix = mix
        self.row = row
        self.target = self.targets[0]
        self.view = 0
        self._need = row.need(len(self.targets), f)
        self._seq = 0
        self._requests = {}  # ident -> request message, for resends
        self._replies = {}   # ident -> {replica: result}, while matching
        self.resends = {}    # ident -> resends so far

    def _inject(self, intended):
        row = self.row
        seq = self._seq
        self._seq += 1
        command = self.mix.sample(self.rng)
        ident = row.ident(self.name, seq, command)
        request = row.request(ident, command, self.name)
        self.outstanding[ident] = intended
        self._requests[ident] = request
        self.send(self.target, request)
        if row.retry == "multicast":
            self.set_timer(row.retry_timeout, self._retransmit, ident)

    def _may_resend(self, ident):
        count = self.resends.get(ident, 0)
        if count >= self.spec.resend_cap:
            return False
        self.resends[ident] = count + 1
        return True

    def _retransmit(self, ident):
        if ident not in self.outstanding or not self._may_resend(ident):
            return
        self.multicast(self.targets, self._requests[ident])
        self.set_timer(self.row.retry_timeout, self._retransmit, ident)

    def on_unhandled(self, message, src):
        # A row's mtypes are data, so they cannot be ``handle_<mtype>``.
        if message.mtype == self.row.reply:
            self.on_reply(message, src)
        elif message.mtype == self.row.redirect:
            self.on_redirect(message, src)

    def on_redirect(self, msg, src):
        ident = self.row.key(msg)
        if ident not in self.outstanding:
            return
        self.target = next_target(self.targets, self.target,
                                  msg.leader_hint, src)
        if self._may_resend(ident):
            self.send(self.target, self._requests[ident])

    def on_reply(self, msg, src):
        row = self.row
        if row.view is not None:
            view = row.view(msg)
            if view > self.view:
                self.view = view
                self.target = primary_of(self.targets, view)
        ident = row.key(msg)
        if ident not in self.outstanding:
            return
        if self._need > 1:
            replies = self._replies.setdefault(ident, {})
            replies[src] = msg.result
            if not agreed(replies, self._need):
                return
            del self._replies[ident]
        del self._requests[ident]
        self.resends.pop(ident, None)
        self._complete(ident)


class ShardTxnInjector(InjectorBase, Process):
    """Open-loop transaction injector for the sharded fleet.

    Not a network node: transactions enter through the fleet's
    coordinator API and complete via :attr:`Transaction.on_finish`, so
    the injector only owns the arrival schedule and the accounting.
    A ``cross_ratio`` fraction of transfers deliberately spans shards,
    putting the 2PC-over-consensus path under the same open-loop
    arrivals as the single-shard fast path."""

    def __init__(self, sim, name, sharded, spec, accountant, keys,
                 load_start):
        super().__init__(sim, name)
        self._open_stream(spec, accountant, load_start)
        self.sharded = sharded
        self.keys = keys

    def _pick_keys(self):
        spec = self.spec
        src = key_name(self.keys.sample_rank(self.rng) % spec.key_space)
        want_cross = self.rng.random() < spec.cross_ratio
        return src, draw_partner(self.rng, self.sharded.shard_map,
                                 spec.key_space, src, want_cross, 32)

    def _inject(self, intended):
        src, dst = self._pick_keys()
        if src == dst:
            # Degenerate single-key touch (tiny keyspaces only).
            txn = self.sharded.submit((src,), lambda reads: {})
        else:
            txn = self.sharded.submit((src, dst), transfer_update(src, dst, 1))
        self.outstanding[txn.txid] = intended
        txn.on_finish = lambda txn: self._complete(txn.txid)


def _key_sampler(spec, sim, n_keys, load_start):
    keys = ZipfKeys(n_keys, spec.skew)
    if spec.storm:
        keys = HotKeyStorm(
            keys, clock=lambda: sim.now,
            start=load_start + 0.4 * spec.duration,
            duration=0.2 * spec.duration,
            fraction=spec.storm_fraction)
    return keys


def run_loadtest(spec):
    """Drive one offered-load point; returns a deterministic report.

    Same spec ⇒ byte-identical report: every number is derived from
    virtual time and seeded draws, never the wall clock."""
    from ..monitor import NULL_HUB
    accountant = LatencyAccountant(window=spec.window, slo=spec.slo)
    cluster = Cluster(seed=spec.seed,
                      delivery=QueuedDelayModel(service=spec.service),
                      monitors=spec.monitors,
                      trace_capacity=_TRACE_CAPACITY if spec.monitors
                      else None)
    build = _shards_fleet if SCENARIOS[spec.protocol].client is None \
        else _core_fleet
    load_start, injectors, sharded = build(cluster, spec, accountant)
    for injector in injectors:
        injector.start()
    cluster.run(until=load_start + spec.duration)
    cluster.run_until(
        lambda: not any(injector.outstanding for injector in injectors),
        until=load_start + spec.duration + spec.drain)
    for injector in injectors:
        injector.abandon_outstanding()
    report = _point_report(spec, accountant, cluster.metrics)
    if sharded is not None:
        report["consistent"] = sharded.check_consistency()
    if cluster.monitors is not NULL_HUB:
        anomalies = cluster.monitors.finish()
        report["monitors"] = {"monitors": len(cluster.monitors.monitors),
                              "anomalies": len(anomalies),
                              "ok": not anomalies}
    return report


def _core_fleet(cluster, spec, accountant):
    """One replica group of the row's protocol, settled, and its
    injectors: ``(load start, injectors, None)``."""
    row = client_row(spec.protocol)
    names = ["r%d" % i for i in range(row.nodes_per_fault * _FLEET_F + 1)]
    cluster.add_nodes(row.replica, names,
                      *row.replica_args(names, _FLEET_F))
    if spec.monitors:
        cluster.attach_monitors(spec.protocol, len(names), _FLEET_F)
    cluster.start_all()
    cluster.sim.run_for(row.settle)
    load_start = cluster.now
    keys = _key_sampler(spec, cluster.sim, spec.n_keys, load_start)
    return load_start, [
        cluster.add_node(
            OpenLoopInjector, "inj%d" % index, names, spec, accountant,
            OpMix(keys, spec.reads, spec.writes, spec.increments),
            load_start, row, _FLEET_F)
        for index in range(spec.injectors)], None


def _shards_fleet(cluster, spec, accountant):
    """A sharded fleet and its transaction injectors: ``(load start,
    injectors, fleet)``."""
    from ..shard import ShardedCluster
    sharded = ShardedCluster(
        n_shards=spec.shards, replicas=spec.replicas, seed=spec.seed,
        partitioning="hash", key_space=spec.key_space, cluster=cluster)
    load_start = sharded.now
    keys = _key_sampler(spec, cluster.sim, spec.key_space, load_start)
    return load_start, [
        ShardTxnInjector(cluster.sim, "inj%d" % index, sharded, spec,
                         accountant, keys, load_start)
        for index in range(spec.injectors)], sharded


def _point_report(spec, accountant, metrics):
    return {
        "spec": spec.describe(),
        "rate": _finite(spec.rate),
        "accounting": accountant.report(spec.duration),
        "messages": metrics.messages_total,
    }


def _point_summary(report):
    """The compact per-rate row a sweep keeps (windows dropped)."""
    accounting = report["accounting"]
    latency = accounting["latency"]
    row = {
        "rate": report["rate"],
        "offered": accounting["offered"],
        "completed": accounting["completed"],
        "abandoned": accounting["abandoned"],
        "completed_rate": accounting["completed_rate"],
        "goodput_rate": accounting["goodput_rate"],
        "p50": latency["p50"],
        "p99": latency["p99"],
        "p999": latency["p999"],
        "messages": report["messages"],
    }
    if "slo" in accounting:
        row["slo_violations"] = accounting["slo"]["violations"]
    if "monitors" in report:
        row["monitors_ok"] = report["monitors"]["ok"]
    if "consistent" in report:
        row["consistent"] = report["consistent"]
    return row


def run_point(item):
    """Top-level sweep worker (picklable for the fork pool)."""
    spec, rate = item
    return _point_summary(run_loadtest(spec.replace(rate=rate)))


def run_sweep(spec, rates, workers=1):
    """Sweep offered load over ``rates``; returns the knee report.

    Every point is an independent same-seed simulation, so the result
    is byte-identical at any worker count — the fork pool only changes
    the wall clock."""
    rates = sorted(float(rate) for rate in rates)
    runner = ParallelRunner(workers)
    points = runner.map(run_point, [(spec, rate) for rate in rates])
    return {
        "spec": spec.describe(),
        "points": points,
        "knee": _finite(detect_knee(points)),
    }
