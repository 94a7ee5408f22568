"""One worker's slice of a partitioned fleet.

A :class:`FleetWorker` owns a private :class:`~repro.sim.Simulator`
hosting the shard groups (and, on worker 0, the transaction coordinator
plus the workload driver) of its assigned domains.  The engine drives
it epoch by epoch: inject the barrier-exchanged messages, run to the
epoch horizon, hand back the cross-domain outbox.  At the end it ships
everything the merge phase needs — trace rows, telemetry series,
monitor verdicts, consistency checks, workload summaries — as plain
picklable data.

Determinism notes:

* every process's ``rng`` is rebound to its domain's named stream
  before the simulation starts, so no draw depends on worker placement;
* the collector is a :class:`ParallelCollector`: identical to the
  sequential one except the cross-group ``phase_latency`` histogram
  lane, whose inter-arrival samples depend on how *other* groups'
  events interleave — the one observable that cannot survive
  partitioning (suppressed at every worker count, including one);
* the workload driver replays a precomputed plan at virtual-time
  boundaries (settle delay, 1-unit polls), never at "when the queue
  drained" — queue states are worker-local, virtual times are global.
"""

import time

from ..core.cluster import Cluster
from ..core.exceptions import LivenessFailure
from ..dtxn.coordinator import Transaction, TxnCoordinator
from ..metrics.collector import MetricsCollector
from ..monitor.conformance import monitor_data
from ..scenarios import client_row
from ..shard.group import ShardGroup
from ..shard.layout import transfer_update
from ..sim.process import Process
from ..trace.events import DELIVER, DROP, SEND
from ..trace.tracer import row_detail
from .gateway import FleetNetwork
from .spec import CTL_DOMAIN, build_plan, domain_of

__all__ = ["FleetWorker", "ParallelCollector", "WorkerCluster"]


class ParallelCollector(MetricsCollector):
    """Collector variant for partitioned runs.

    ``phase_latency`` measures the gap between *consecutive phase marks
    across the whole fleet* — a property of global event interleaving,
    which a partitioned run deliberately does not define.  Everything
    else (phase mark list, counters, tracer rows) is kept; the
    histogram lane is skipped at every worker count so one-worker runs
    stay byte-identical to eight-worker runs.
    """

    def mark_phase(self, protocol, phase, now):
        self.phase_marks.append((protocol, phase, now))
        registry = self.registry
        if registry is not None:
            key = (protocol, phase)
            inc = self._mark_handles.get(key)
            if inc is None:
                inc = registry.handle(
                    "counter", "phase_marks_total",
                    protocol=str(protocol), phase=str(phase)).inc
                self._mark_handles[key] = inc
            inc()
        if self.tracer is not None:
            self.tracer.on_phase(protocol, phase)


class WorkerCluster(Cluster):
    """A :class:`Cluster` whose fabric is a :class:`FleetNetwork`.

    Built empty, then re-wires metrics/network/monitors *before any
    node registers* — the stock constructor's instances hold no state
    yet, so swapping them is safe.
    """

    def __init__(self, spec, fleet_names):
        super().__init__(seed=spec.seed, trace=spec.trace,
                         telemetry=spec.telemetry, monitors=spec.monitors)
        self.metrics = ParallelCollector(tracer=self.tracer,
                                         registry=self.telemetry)
        self.network = FleetNetwork(
            self.sim, spec.seed, fleet_names,
            spec.cross_low, spec.cross_high, spec.in_low, spec.in_high,
            metrics=self.metrics, tracer=self.tracer,
            telemetry=self.telemetry)
        if spec.monitors:
            from ..monitor import MonitorHub
            self.monitors = MonitorHub(self.tracer, collector=self.metrics)


class _GroupStub:
    """The coordinator-facing face of a *remote* shard group: member
    names and the protocol's client-protocol row — nothing else."""

    __slots__ = ("members", "_row")

    def __init__(self, members, row):
        self.members = tuple(members)
        self._row = row

    def request(self, command, request_id):
        return self._row.request(request_id, command)


class _WorkloadDriver(Process):
    """Replays the precomputed transfer plan against the coordinator.

    The legacy path advances waves by running the simulator until every
    outcome lands; inside a partitioned run the driver *is* a simulated
    process, so it polls outcomes on a fixed virtual-time cadence
    instead.  All of its decision points are virtual-time boundaries —
    identical at any worker count.
    """

    POLL_INTERVAL = 1.0

    def __init__(self, sim, name, coordinator, shard_map, plan, settle,
                 op_timeout):
        super().__init__(sim, name)
        self.coordinator = coordinator
        self.shard_map = shard_map
        self.plan = plan
        self.settle = settle
        self.op_timeout = op_timeout
        self.done = False
        self.done_at = None
        self.summaries = []
        self._segment = 0
        self._wave_index = 0
        self._wave = []
        self._finished = []
        self._segment_started = None
        self._deadline = None

    def on_start(self):
        self.set_timer(self.settle, self._begin_segment)

    def _begin_segment(self):
        if self._segment >= len(self.plan):
            self.done = True
            self.done_at = self.sim.now
            return
        self._segment_started = self.sim.now
        self._finished = []
        self._wave_index = 0
        self._next_wave()

    def _next_wave(self):
        waves = self.plan[self._segment]
        if self._wave_index >= len(waves):
            self._close_segment()
            return
        plan_wave = waves[self._wave_index]
        self._wave_index += 1
        wave = []
        for txid, src, dst, delta in plan_wave:
            txn = Transaction(txid, (src, dst),
                              transfer_update(src, dst, delta))
            self.coordinator.submit(txn)
            wave.append(txn)
        self._wave = wave
        self._deadline = self.sim.now + self.op_timeout
        self.set_timer(self.POLL_INTERVAL, self._poll)

    def _poll(self):
        wave = self._wave
        if all(txn.outcome is not None for txn in wave):
            self._finished.extend(wave)
            self._next_wave()
            return
        if self.sim.now >= self._deadline:
            hung = [txn.txid for txn in wave if txn.outcome is None]
            raise LivenessFailure("workload transactions hung: %s"
                                  % ", ".join(hung))
        self.set_timer(self.POLL_INTERVAL, self._poll)

    def _close_segment(self):
        finished = self._finished
        duration = self.sim.now - self._segment_started
        committed = sum(1 for txn in finished
                        if txn.outcome == "committed")
        shard_of = self.shard_map.shard_of
        self.summaries.append({
            "txns": len(finished),
            "committed": committed,
            "aborted": len(finished) - committed,
            "cross_shard": sum(
                1 for txn in finished
                if len({shard_of(k) for k in txn.keys}) > 1),
            "fast_commits": self.coordinator.fast_commits,
            "virtual_time": duration,
            "committed_per_vtime": committed / duration
            if duration > 0 else 0.0,
        })
        self._segment += 1
        self._begin_segment()


class FleetWorker:
    """Hosts one worker's domains and runs them epoch by epoch."""

    def __init__(self, spec, widx, domains):
        self.spec = spec
        self.widx = widx
        self.domains = list(domains)
        cluster = WorkerCluster(spec, spec.fleet_names())
        self.cluster = cluster
        self.sim = cluster.sim
        local = set(self.domains)
        self.groups = {}
        for index, gid in enumerate(spec.shard_ids()):
            if gid not in local:
                continue
            group = ShardGroup(cluster, gid, spec.replicas,
                               protocol=spec.protocol_for(index))
            self.groups[gid] = group
            if spec.monitors:
                group.attach_monitors(f=(spec.replicas - 1) // 2)
        self.coordinator = None
        self.driver = None
        if CTL_DOMAIN in local:
            shard_map = spec.shard_map()
            stubs = {
                gid: _GroupStub(spec.members_of(gid),
                                client_row(spec.protocol_for(index)))
                for index, gid in enumerate(spec.shard_ids())
            }
            self.coordinator = cluster.add_node(
                TxnCoordinator, "txn-coord", shard_map, stubs)
            self.driver = _WorkloadDriver(
                self.sim, "driver", self.coordinator, shard_map,
                build_plan(spec), spec.settle, spec.op_timeout)
            cluster.nodes.append(self.driver)
        # Placement-independent randomness: every process draws from its
        # domain's stream, never the worker simulator's.
        network = cluster.network
        for node in cluster.nodes:
            node.rng = network.domain_rng(domain_of(node.name))
        cluster.start_all()

    # -- epoch protocol ------------------------------------------------

    def run_epoch(self, epoch_index, horizon, injected):
        """Inject barrier messages, run to ``horizon``, return status."""
        fail = self.spec.fail_worker
        if fail is not None and fail[0] == self.widx \
                and fail[1] == epoch_index:
            raise RuntimeError(
                "injected fault: worker %d failing at epoch %d"
                % (self.widx, epoch_index))
        sim = self.sim
        network = self.cluster.network
        deliver = network.deliver_cross
        for entry in injected:
            deliver_time, src_domain, dst_domain, link_seq, src, dst, \
                message = entry
            sim.schedule_at(deliver_time, deliver, src, dst, message,
                            (src_domain, dst_domain, link_seq))
        start = time.process_time()
        sim.run(until=horizon)
        cpu = time.process_time() - start
        outbox = network.outbox
        network.outbox = []
        return {
            "outbox": outbox,
            "cpu": cpu,
            "driver_done": self.driver.done if self.driver is not None
            else True,
        }

    # -- final results -------------------------------------------------

    def finalize(self, virtual_time):
        """Ship everything the merge needs, as plain picklable data."""
        spec = self.spec
        cluster = self.cluster
        payload = {
            "widx": self.widx,
            "events": self.sim.events_processed,
            "summary": cluster.metrics.snapshot(),
            "consistency": {gid: group.check_consistency()
                            for gid, group in sorted(self.groups.items())},
            "per_shard": {gid: group.stats()
                          for gid, group in sorted(self.groups.items())},
        }
        if cluster.telemetry is not None:
            payload["series"] = [
                (name, labels, instrument.value)
                for name, labels, instrument in cluster.telemetry.series()
                if instrument.kind == "counter"
            ]
        if cluster.tracer is not None:
            payload["trace"] = self._trace_rows()
        if spec.monitors:
            cluster.monitors.finish()
            payload["monitors"] = [monitor_data(monitor)
                                   for monitor in cluster.monitors.monitors]
        if self.coordinator is not None:
            payload["coordinator"] = self.coordinator.stats()
        if self.driver is not None:
            payload["workload"] = list(self.driver.summaries)
            payload["driver_done_at"] = self.driver.done_at
        return payload

    def _trace_rows(self):
        """Worker-local trace rows with cross-worker message identity.

        Each row carries a ``ref`` naming its message independently of
        worker placement: local messages as ``("l", widx, msg_id)``
        (sender and receiver share a worker, so the local id is already
        an identity), cross-domain ones as ``("x", src_domain,
        dst_domain, link_seq)`` (the link identity both sides recorded).
        """
        network = self.cluster.network
        send_refs = network.cross_send_refs
        recv_refs = network.cross_recv_refs
        widx = self.widx
        rows = []
        for index, row in enumerate(self.cluster.trace.rows()):
            kind, time, node, peer, mtype, msg_id, _payload = row
            ref = None
            if kind in (SEND, DELIVER, DROP) and msg_id != -1:
                link = send_refs.get(msg_id)
                if link is None:
                    link = recv_refs.get(msg_id)
                if link is not None:
                    ref = ("x",) + link
                elif msg_id >= 0:
                    ref = ("l", widx, msg_id)
            rows.append((kind, time, node, peer, mtype, row_detail(row),
                         ref, index))
        return rows
