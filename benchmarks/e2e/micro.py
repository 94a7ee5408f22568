"""Isolated micro-benchmarks: what one call into each layer costs.

Every benchmark is a function ``(n) -> seconds`` that makes ``n`` calls
to one *public* function of ``repro`` and times only those calls (its
own set-up is outside the clock; the ``for`` loop around the call, some
20 ns, is inside).  :func:`run_all` calibrates ``n`` until a batch lasts
at least :data:`BATCH_SECONDS`, times :data:`BATCHES` batches and
reports the median as nanoseconds per call.

These numbers do not depend on the workload or its seed; they are
printed beside every workload's traced layer times because the probe's
wrappers inflate exactly the small functions measured here.
"""

import functools
import random
import statistics
import time

from repro.core.cluster import Cluster
from repro.core.node import Node
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import ThresholdScheme
from repro.load.arrivals import PoissonArrivals
from repro.load.slo import LatencyAccountant
from repro.load.workloads import ZipfKeys
from repro.net.delivery import QueuedDelayModel
from repro.obs.spans import SpanBuilder
from repro.parallel.engine import run_parallel_shards
from repro.parallel.merge import merge_registry, merge_trace
from repro.parallel.spec import FleetSpec
from repro.protocols.multipaxos import ClientRequest, run_multipaxos
from repro.sim.events import EventQueue
from repro.smr.state_machine import KVStateMachine
from repro.telemetry.registry import MetricsRegistry

BATCH_SECONDS = 0.05
BATCHES = 5

#: Tracer ring size for the traced micro-benchmarks (the bound
#: ``repro loadtest --monitors`` runs with): an unbounded trace grows
#: with the batch, and the collector's passes over it with it.
RING = 4096

_perf = time.perf_counter

_MESSAGE = ClientRequest(("put", "key-17", 42), "inj0-1234")


def _noop(*_args):
    pass


class _Sink(Node):
    """A node whose only handler does nothing: the cheapest receiver."""

    def handle_clientrequest(self, msg, src):
        pass


def _in_chunks(n, chunk, timed, between):
    """Seconds spent in ``timed(count)`` calls that add up to ``n``,
    with ``between()`` run off the clock before each: keeps queues and
    rings at a working depth instead of growing with ``n``."""
    elapsed = 0.0
    while n > 0:
        count = min(n, chunk)
        between()
        start = _perf()
        timed(count)
        elapsed += _perf() - start
        n -= count
    return elapsed


# -- sim ---------------------------------------------------------------------

class _Heap:
    """An :class:`EventQueue` refilled to ``depth`` random entries."""

    def __init__(self, depth):
        self.depth = depth
        self.rng = random.Random(1)
        self.queue = None

    def refill(self):
        self.queue = EventQueue()
        for _ in range(self.depth):
            self.queue.push_transient(self.rng.random() * 1000.0, _noop, ())


def queue_push(n):
    """``push_transient`` (the message lane) at random times into a
    heap 1000 to 2000 entries deep."""
    heap = _Heap(1000)
    times = [heap.rng.random() * 1000.0 for _ in range(1000)]

    def push(count):
        push_transient = heap.queue.push_transient
        for at in times[:count]:
            push_transient(at, _noop, ())
    return _in_chunks(n, 1000, push, heap.refill)


def _pop(n, depth):
    heap = _Heap(depth)

    def pop(count):
        pop_entry = heap.queue.pop_entry
        for _ in range(count):
            pop_entry()
    return _in_chunks(n, depth // 2, pop, heap.refill)


def queue_pop(n):
    """``pop_entry`` from a heap between 1000 and 500 entries deep."""
    return _pop(n, 1000)


def queue_pop_deep(n):
    """``pop_entry`` from a heap between 100k and 50k entries deep."""
    return _pop(n, 100_000)


def timer_cancel(n):
    """``push`` then ``cancel`` of the same event beside 64 live ones,
    which is how a reset election timer behaves; compaction included."""
    queue = EventQueue()
    for i in range(64):
        queue.push(1e9 + i, _noop)
    start = _perf()
    for i in range(n):
        queue.push(float(i), _noop).cancel()
    return _perf() - start


# -- net, core, trace, monitor -----------------------------------------------

def _cluster(names=("a", "b"), **cluster_options):
    cluster = Cluster(seed=3, **cluster_options)
    cluster.add_nodes(_Sink, list(names))
    return cluster


def _time_sends(cluster, n):
    """1000 sends at a time, delivered off the clock in between."""
    send = cluster.network.send

    def sends(count):
        for _ in range(count):
            send("a", "b", _MESSAGE)
    return _in_chunks(n, 1000, sends, cluster.sim.run)


def send_fast(n):
    """``Network.send`` on its fast branch: no tracer, no interceptor,
    no partition; the delay draw and the queue push are part of it."""
    return _time_sends(_cluster(), n)


def send_traced(n):
    """``Network.send`` on its general branch, a ring tracer attached."""
    return _time_sends(_cluster(trace=True, trace_capacity=RING), n)


def multicast_per_dst(n):
    """``Network.multicast`` to 7 peers, per destination."""
    names = ["n%d" % i for i in range(8)]
    cluster = _cluster(names)
    multicast, peers = cluster.network.multicast, names[1:]
    calls = -(-n // len(peers))

    def multicasts(count):
        for _ in range(count):
            multicast("n0", peers, _MESSAGE)
    elapsed = _in_chunks(calls, 150, multicasts, cluster.sim.run)
    return elapsed * n / (calls * len(peers))


def delay_queued(n):
    """``QueuedDelayModel.delay`` over three destinations."""
    model, rng = QueuedDelayModel(), random.Random(4)
    dsts = ("r0", "r1", "r2")
    start = _perf()
    for i in range(n):
        model.delay(rng, "c", dsts[i % 3], i * 0.1)
    return _perf() - start


def size_estimate(n):
    """``Message.size_estimate`` of a client request."""
    start = _perf()
    for _ in range(n):
        _MESSAGE.size_estimate()
    return _perf() - start


def deliver_dispatch(n):
    """``Node.deliver`` to a handler that does nothing."""
    node = _cluster().node_named("b")
    start = _perf()
    for _ in range(n):
        node.deliver(_MESSAGE, "a")
    return _perf() - start


def _time_trace_pairs(tracer, message, n):
    start = _perf()
    for _ in range(n):
        tracer.on_deliver("a", "b", message, tracer.on_send("a", "b", message))
    return _perf() - start


def _ring_tracer(**cluster_options):
    return _cluster(trace_capacity=RING, **cluster_options).tracer


def trace_append(n):
    """``Tracer.on_send`` + ``on_deliver`` of one message, no sinks."""
    return _time_trace_pairs(_ring_tracer(trace=True), _MESSAGE, n)


def monitor_dispatch(n):
    """What the Multi-Paxos monitor battery adds to recording one
    send + deliver of a message it subscribes to: the same pair as
    ``trace_append`` with monitors attached, minus without."""
    from repro.core.ballot import Ballot
    from repro.protocols.multipaxos import MPAccepted
    message = MPAccepted(Ballot(1, "a"), 7)
    monitored = _cluster(monitors=True, trace_capacity=RING)
    monitored.attach_monitors("multi-paxos", 3, 1)
    with_monitors = _time_trace_pairs(monitored.tracer, message, n)
    return max(0.0, with_monitors
               - _time_trace_pairs(_ring_tracer(trace=True), message, n))


# -- obs, parallel -----------------------------------------------------------

def span_derive(n):
    """``SpanBuilder.build`` over a 100-request Multi-Paxos trace, per
    span derived."""
    cluster = Cluster(seed=5, trace=True)
    run_multipaxos(cluster, n_replicas=3, n_clients=2, commands_per_client=50)
    trace = cluster.trace
    trace.events
    spans = len(SpanBuilder(trace).build())
    builds = -(-n // spans)
    start = _perf()
    for _ in range(builds):
        SpanBuilder(trace).build()
    return (_perf() - start) * n / (builds * spans)


@functools.lru_cache(maxsize=1)
def _merge_run():
    """A small traced, instrumented parallel run to merge."""
    return run_parallel_shards(FleetSpec(
        seed=6, n_shards=4, replicas=3, txns=16, workers=2, inline=True,
        trace=True, telemetry=True))


def _per_item(merge, items, n):
    run = _merge_run()
    merges = -(-n // items)
    start = _perf()
    for _ in range(merges):
        merge(run)
    return (_perf() - start) * n / (merges * items)


def merge_trace_row(n):
    """``merge_trace`` of a two-worker run, per trace row."""
    rows = sum(len(res["trace"]) for res in _merge_run().results)
    return _per_item(merge_trace, rows, n)


def merge_registry_series(n):
    """``merge_registry`` of a two-worker run, per counter series."""
    series = sum(len(res["series"]) for res in _merge_run().results)
    return _per_item(merge_registry, series, n)


# -- load --------------------------------------------------------------------

def arrival_draw(n):
    """One arrival time from ``PoissonArrivals.times``."""
    times = PoissonArrivals(1.0).times(random.Random(7), float("inf"))
    start = _perf()
    for _ in range(n):
        next(times)
    return _perf() - start


def zipf_sample(n):
    """``ZipfKeys.sample`` over 100k keys at skew 0.99."""
    keys, rng = ZipfKeys(100_000, 0.99), random.Random(8)
    start = _perf()
    for _ in range(n):
        keys.sample(rng)
    return _perf() - start


def account(n):
    """``LatencyAccountant.complete`` with an objective set."""
    accountant = LatencyAccountant(window=50.0, slo=30.0)
    start = _perf()
    for i in range(n):
        accountant.complete(i * 0.25, i * 0.25 + 6.0)
    return _perf() - start


# -- crypto, smr, telemetry --------------------------------------------------

def sign(n):
    """``Signer.sign`` of a PBFT-request-sized tuple."""
    signer = KeyRegistry(b"micro").signer("c0")
    start = _perf()
    for i in range(n):
        signer.sign("pbft-request", "op-0-17", float(i), "c0")
    return _perf() - start


def verify(n):
    """``KeyRegistry.verify`` of a valid signature."""
    keys = KeyRegistry(b"micro")
    values = ("pbft-request", "op-0-17", 17.0, "c0")
    signature = keys.signer("c0").sign(*values)
    start = _perf()
    for _ in range(n):
        keys.verify(signature, *values)
    return _perf() - start


def threshold_combine(n):
    """``ThresholdScheme.combine`` of 3 shares of 4 (f = 1)."""
    names = ["r0", "r1", "r2", "r3"]
    scheme = ThresholdScheme(3, names)
    partials = [scheme.sign_share(name, 9, "blockhash") for name in names[:3]]
    start = _perf()
    for _ in range(n):
        scheme.combine(partials, 9, "blockhash")
    return _perf() - start


def apply(n):
    """``KVStateMachine.apply`` of puts over 1000 keys."""
    machine = KVStateMachine()
    commands = [("put", "key-%d" % (i % 1000), i) for i in range(n)]
    start = _perf()
    for command in commands:
        machine.apply(command)
    return _perf() - start


def handle_inc(n):
    """``MetricsRegistry.handle`` resolution plus ``inc``: what a call
    site without a cached handle pays per event."""
    registry = MetricsRegistry()
    start = _perf()
    for _ in range(n):
        registry.handle("counter", "net_messages_total", protocol="mp",
                        mtype="clientrequest", link="a->b").inc()
    return _perf() - start


#: metric name -> benchmark.
MICRO = {
    "sim.queue_push_ns": queue_push,
    "sim.queue_pop_ns": queue_pop,
    "sim.queue_pop_deep_ns": queue_pop_deep,
    "sim.timer_cancel_ns": timer_cancel,
    "net.send_fast_ns": send_fast,
    "net.send_traced_ns": send_traced,
    "net.multicast_per_dst_ns": multicast_per_dst,
    "net.delay_queued_ns": delay_queued,
    "net.size_estimate_ns": size_estimate,
    "core.deliver_dispatch_ns": deliver_dispatch,
    "trace.append_ns": trace_append,
    "monitor.dispatch_ns": monitor_dispatch,
    "obs.derive_us_per_span": span_derive,
    "parallel.merge_trace_ns": merge_trace_row,
    "parallel.merge_registry_ns": merge_registry_series,
    "load.arrival_draw_ns": arrival_draw,
    "load.zipf_sample_ns": zipf_sample,
    "load.account_ns": account,
    "crypto.sign_ns": sign,
    "crypto.verify_ns": verify,
    "crypto.threshold_combine_ns": threshold_combine,
    "smr.apply_ns": apply,
    "telemetry.handle_inc_ns": handle_inc,
}


def measure(bench, batch_seconds=BATCH_SECONDS, batches=BATCHES):
    """Median nanoseconds per call over ``batches`` calibrated batches."""
    n = 64
    while True:
        elapsed = bench(n)
        if elapsed >= batch_seconds:
            break
        n = int(n * min(16.0, 1.25 * batch_seconds / max(elapsed, 1e-6))) + 1
    samples = [elapsed / n] + [bench(n) / n for _ in range(batches - 1)]
    return statistics.median(samples) * 1e9


def run_all(batch_seconds=BATCH_SECONDS, batches=BATCHES):
    """``{metric name: value}`` for every micro-benchmark, in the unit
    the name ends with (``_ns``, or ``_us_per_span``)."""
    values = {}
    for name, bench in MICRO.items():
        ns = measure(bench, batch_seconds, batches)
        values[name] = ns / 1000.0 if "_us_" in name else ns
    return values
