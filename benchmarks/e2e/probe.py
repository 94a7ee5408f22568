"""Spans recorded from outside the program.

:class:`Probe` replaces public functions of ``repro`` -- at class or
module level, before any cluster is built -- with wrappers that time
each call and keep a stack of open spans, so that every layer's *self*
time (its spans minus the spans they enclose) and call counts come out
of one traced run with nothing added to the library.  Layers are the
packages under ``src/repro``; a function belongs to the layer of the
module that defines it, except state-machine ``apply`` (always ``smr``)
and the parallel engine's network subclass (``net``).

Event callbacks are attributed too: the wrapper around
``EventQueue.pop_entry`` hands the simulator a trampoline that opens a
span in the layer owning the callback (``Network._deliver`` -> ``net``,
a protocol's timer -> ``protocols``), and ``Process.set_timer`` wraps the
callback it is given the same way.

What the numbers are good for: shares, counts and growth.  Every span
costs about a microsecond of wrapper, charged to the enclosing span, so
absolute self times of layers made of very small functions read high;
``bench.trace_overhead_x`` says by how much overall, and ``micro.py``
has the undisturbed per-call costs.

There is no uninstall: a process that installs a probe is a traced
process from then on.
"""

import functools
import itertools
import json
import sys
import time

from repro.core.cluster import Cluster
from repro.core.node import Node
from repro.crypto import hashing
from repro.crypto.signatures import KeyRegistry, Signer
from repro.crypto.threshold import ThresholdScheme
from repro.load import engine
from repro.load.slo import LatencyAccountant
from repro.load.workloads import OpMix, ZipfKeys
from repro.metrics.collector import MetricsCollector
from repro.monitor.base import Monitor, MonitorHub
from repro.net.delivery import QueuedDelayModel
from repro.net.network import Network
from repro.obs import spans as obs_spans
from repro.parallel import engine as parallel_engine
from repro.parallel import merge as parallel_merge
from repro.parallel.gateway import FleetNetwork
from repro.parallel.worker import FleetWorker
from repro.protocols import hotstuff, pbft
from repro.shard.cluster import ShardedCluster
from repro.sim.events import EventQueue
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.telemetry import report as telemetry_report
from repro.telemetry.instruments import Counter, Histogram
from repro.telemetry.registry import MetricsRegistry
from repro.trace.tracer import Tracer, _LiveTrace

_clock = time.perf_counter_ns

#: Spans kept in full for the span file; totals cover every span.
SPAN_CAP = 100_000

#: Public methods wrapped at class level: ``(layer, class, names)``.
_METHODS = [
    ("sim", Simulator, ("run",)),
    ("sim", EventQueue, ("push", "push_transient")),
    ("net", Network, ("multicast", "broadcast")),
    ("core", Node, ("on_unhandled",)),
    ("core", Cluster, ("add_node", "attach_monitors")),
    ("shard", ShardedCluster, ("__init__", "run_workload", "submit",
                               "settle", "check_consistency", "stats")),
    ("trace", Tracer, ("on_send", "on_deliver", "on_drop", "on_timer",
                       "on_phase", "on_local", "on_request")),
    ("metrics", MetricsCollector, ("mark_phase", "start_request",
                                   "finish_request", "slot_for",
                                   "latencies", "snapshot")),
    ("telemetry", MetricsRegistry, ("handle", "counter", "histogram",
                                    "series")),
    ("telemetry", Counter, ("inc",)),
    ("telemetry", Histogram, ("observe", "summary")),
    ("load", LatencyAccountant, ("complete", "abandon", "report")),
    ("load", OpMix, ("sample",)),
    ("load", ZipfKeys, ("sample_rank",)),
    ("crypto", Signer, ("sign",)),
    ("crypto", KeyRegistry, ("verify", "signer")),
    ("crypto", ThresholdScheme, ("sign_share", "verify_share", "combine",
                                 "verify")),
    ("obs", obs_spans.SpanBuilder, ("build",)),
    ("monitor", MonitorHub, ("finish",)),
    ("parallel", FleetWorker, ("__init__", "run_epoch", "finalize")),
]

#: Public module-level functions, patched wherever ``repro`` or the
#: benchmark bound them by name: ``(layer, module, name)``.
_FUNCTIONS = [
    ("load", engine, "run_loadtest"),
    ("protocols", pbft, "run_pbft"),
    ("protocols", hotstuff, "run_chained_hotstuff"),
    ("crypto", hashing, "sha256_hex"),
    ("obs", obs_spans, "spans_report"),
    ("telemetry", telemetry_report, "run_report"),
    ("parallel", parallel_engine, "run_parallel_shards"),
    ("parallel", parallel_merge, "merged_workload"),
    ("parallel", parallel_merge, "merged_consistency"),
    ("parallel", parallel_merge, "merged_stats"),
    ("parallel", parallel_merge, "merged_summary"),
]


def _subclasses(cls):
    """``cls`` and every loaded subclass of it."""
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _layer_of(func):
    parts = (getattr(func, "__module__", None) or "").split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "bench"


def _request_of(args):
    """The request a delivered message belongs to: ``deliver(self,
    message, src)`` -> the tracer's own correlation attributes."""
    message = args[1]
    return getattr(message, "request_id", None) \
        or getattr(message, "txid", None)


class Probe:
    """One traced run's spans, totals and counters."""

    def __init__(self):
        #: Open spans, innermost last: ``[child_ns, span_id, request]``.
        self.stack = [[0, -1, None]]
        #: ``(layer, name) -> [calls, self_ns]`` over *every* span.
        self.slots = {}
        #: ``(id, parent, layer, name, start_ns, end_ns, request)`` for
        #: the first :data:`SPAN_CAP` spans to finish.
        self.spans = []
        #: Self ns of each protocol-handler call, in call order, per
        #: defining module: the input of ``protocols.cost_growth_x``.
        self.handler_self_ns = {}
        self.clusters = []
        self.events = 0
        self.peak_pending = 0
        self.max_queue_depth = 0.0
        self.drops = 0
        self.generator_lag_vt = 0.0
        self.total_ns = 0
        self.unattributed_ns = 0
        self._ids = itertools.count()
        self._by_func = {}

    # -- the wrapper ---------------------------------------------------------

    def traced(self, layer, name, fn, series=None, request_of=None):
        """``fn`` wrapped to record one span per call."""
        slot = self.slots.setdefault((layer, name), [0, 0])
        stack, spans, next_id = self.stack, self.spans, self._ids.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            request = parent[2] if request_of is None \
                else request_of(args) or parent[2]
            frame = [0, next_id(), request]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                took = end - start
                parent[0] += took
                own = took - frame[0]
                slot[0] += 1
                slot[1] += own
                if series is not None:
                    series.append(own)
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent[1], layer, name, start,
                                  end, request))
        return wrapper

    def _traced_func(self, func):
        """The cached wrapper of a plain function met at run time (an
        event callback or a timer callback)."""
        wrapper = self._by_func.get(func)
        if wrapper is None:
            name = getattr(func, "__qualname__", repr(func))
            wrapper = self._by_func[func] = \
                self.traced(_layer_of(func), name, func)
        return wrapper

    def _traced_callback(self, callback):
        func = getattr(callback, "__func__", None)
        if func is None:
            return self._traced_func(callback)
        return functools.partial(self._traced_func(func), callback.__self__)

    def run(self, fn):
        """Call ``fn()`` as the root of the span tree; time spent in no
        layer span is :attr:`unattributed_ns` of :attr:`total_ns`."""
        root = self.stack[0]
        start = _clock()
        result = fn()
        self.total_ns = _clock() - start
        self.unattributed_ns = self.total_ns - root[0]
        return result

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap everything.  Call before the traced cluster is built."""
        for layer, cls, names in _METHODS:
            for name in names:
                self._wrap_method(layer, cls, name)
        for layer, module, name in _FUNCTIONS:
            self._wrap_function(layer, module, name)
        for cls in _subclasses(Node):
            for name, attr in list(vars(cls).items()):
                if name.startswith("handle_") and callable(attr):
                    layer = _layer_of(attr)
                    series = None
                    if layer == "protocols":
                        series = self.handler_self_ns.setdefault(
                            attr.__module__, [])
                    self._wrap_method(layer, cls, name, series=series)
            # Handlers resolved by an earlier, untraced run are cached
            # per class; drop them so the wrappers are picked up.
            cls._dispatch.clear()
        for cls in _subclasses(Monitor):
            for name in ("observe", "observe_raw", "tick", "finish"):
                if name in vars(cls):
                    self._wrap_method("monitor", cls, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro."):
                for cls in list(vars(module).values()):
                    if isinstance(cls, type) and "apply" in vars(cls) \
                            and cls.__module__ == module.__name__ \
                            and cls.__name__.endswith("StateMachine"):
                        self._wrap_method("smr", cls, "apply")
        self._wrap_method("core", Node, "deliver", request_of=_request_of)
        # Read-only properties that do work: the trace's lazy
        # materialisation and the collector's fold-on-read aggregates.
        self._wrap_property("trace", _LiveTrace, "events")
        for name in ("messages_total", "bytes_total", "by_type"):
            self._wrap_property("metrics", MetricsCollector, name)
        self._wrap_method("sim", EventQueue, "pop_entry",
                          post=self._after_pop)
        for name in ("set_timer", "set_periodic_timer"):
            self._wrap_set_timer(name)
        self._wrap_method("core", Cluster, "__init__",
                          post=self._after_cluster_init)
        self._wrap_method("load", LatencyAccountant, "arrive",
                          post=self._after_arrive)
        self._wrap_method("net", QueuedDelayModel, "delay",
                          post=self._after_queued_delay)
        for cls in (Network, FleetNetwork):
            self._wrap_method("net", cls, "send", post=self._after_send)

    def _wrap_method(self, layer, cls, name, post=None, **options):
        """Replace ``cls.name`` by its traced self; ``post(args,
        result)``, when given, runs after the span closed and its
        return value replaces the result."""
        fn = vars(cls)[name]
        traced = self.traced(layer, fn.__qualname__, fn, **options)
        if post is None:
            setattr(cls, name, traced)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return post(args, traced(*args, **kwargs))
        setattr(cls, name, wrapper)

    def _wrap_property(self, layer, cls, name):
        getter = vars(cls)[name].fget
        setattr(cls, name, property(self.traced(
            layer, "%s.%s" % (cls.__name__, name), getter)))

    def _wrap_function(self, layer, module, name):
        fn = getattr(module, name)
        wrapper = self.traced(layer, name, fn)
        for holder in list(sys.modules.values()):
            holder_name = getattr(holder, "__name__", "")
            if holder_name.startswith(("repro.", "benchmarks.e2e.")):
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)

    def _wrap_set_timer(self, name):
        traced = self.traced("sim", "Process." + name, vars(Process)[name])
        traced_callback = self._traced_callback

        def set_timer(process, delay, callback, *args):
            return traced(process, delay, traced_callback(callback), *args)
        setattr(Process, name, set_timer)

    def _dispatch(self, callback, args):
        """What the simulator calls in place of an event's callback."""
        func = getattr(callback, "__func__", None)
        if func is None:
            self._traced_func(callback)(*args)
        else:
            self._traced_func(func)(callback.__self__, *args)

    def _after_pop(self, args, entry):
        if entry is None:
            return None
        self.events += 1
        pending = len(args[0]) + 1
        if pending > self.peak_pending:
            self.peak_pending = pending
        return (entry[0], self._dispatch, (entry[1], entry[2]))

    def _after_cluster_init(self, args, result):
        self.clusters.append(args[0])

    def _after_arrive(self, args, result):
        # How far behind its intended time an open-loop arrival was
        # injected: zero while the timer-driven generator keeps up.
        lag = self.clusters[-1].sim.now - args[1]
        if lag > self.generator_lag_vt:
            self.generator_lag_vt = lag

    def _after_queued_delay(self, args, result):
        # A backlog only grows inside delay(), so sampling it after
        # each call finds the true maximum.
        model, _rng, _src, dst, now = args
        depth = model.queue_depth(dst, now)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        return result

    def _after_send(self, args, result):
        if result is False:
            self.drops += 1
        return result

    def reset(self):
        """Forget the previous traced run (wrappers stay installed)."""
        del self.stack[1:]
        self.stack[0][0] = 0
        self.spans.clear()
        self.clusters.clear()
        for slot in self.slots.values():
            slot[0] = slot[1] = 0
        for series in self.handler_self_ns.values():
            series.clear()
        self.events = 0
        self.peak_pending = 0
        self.max_queue_depth = 0.0
        self.drops = 0
        self.generator_lag_vt = 0.0

    # -- reading -------------------------------------------------------------

    def layer_self_s(self):
        """``layer -> self seconds`` over every span."""
        totals = {}
        for (layer, _name), (_calls, self_ns) in self.slots.items():
            totals[layer] = totals.get(layer, 0.0) + self_ns / 1e9
        return totals

    def _matching(self, layer, suffix):
        return [slot for (lyr, name), slot in self.slots.items()
                if (layer is None or lyr == layer) and name.endswith(suffix)]

    def calls(self, layer=None, suffix=""):
        """Spans in ``layer`` (all layers if ``None``) whose name ends
        with ``suffix``."""
        return sum(slot[0] for slot in self._matching(layer, suffix))

    def self_s(self, layer, suffix):
        """Self seconds of the spans :meth:`calls` would count."""
        return sum(slot[1] for slot in self._matching(layer, suffix)) / 1e9

    def cost_growth_x(self):
        """Mean handler self time in the last tenth of a module's calls
        over the first tenth, for the module where it is largest."""
        worst = 0.0
        for series in self.handler_self_ns.values():
            tenth = len(series) // 10
            if tenth >= 50:
                first = sum(series[:tenth])
                if first > 0:
                    worst = max(worst, sum(series[-tenth:]) / first)
        return worst

    def write(self, path, header):
        """The span file: one header line, then one span per line."""
        header = dict(header, clock="perf_counter_ns",
                      columns=["id", "parent", "layer", "name", "start_ns",
                               "end_ns", "request"],
                      spans_total=self.calls(), spans_written=len(self.spans),
                      layer_self_s=self.layer_self_s())
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, default=str) + "\n")
