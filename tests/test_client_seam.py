"""The client seam: one ``ClientProtocol`` row per protocol, one
closed-loop client, one open-loop injector (``repro.core.client``)."""

from importlib import import_module

import pytest

from repro.core import Cluster
from repro.core.client import ClosedLoopClient
from repro.faults import FaultPlan
from repro.load import engine
from repro.scenarios import SCENARIOS, _load
from repro.shard import ShardedCluster
from repro.smr import LockService, ReplicatedKV

#: Every protocol module that declares a row, with the driver that runs
#: its closed-loop client: a ``SCENARIOS`` name, or ``(function, kwargs)``
#: where the scenario of that name drives something else (the
#: ``hotstuff`` row is chained HotStuff, which has no client).
ROWS = {
    "multipaxos": "multi-paxos",
    "raft": "raft",
    "pbft": "pbft",
    "minbft": "minbft",
    "seemore": "seemore",
    "xft": "xft",
    "hotstuff": ("run_basic_hotstuff", {"f": 1, "operations": 3}),
}

CASES = [(module, None) for module in ROWS] + [
    (module, "crash") for module, driver in ROWS.items()
    if isinstance(driver, str) and "crash" in SCENARIOS[driver].faults]


def _run(module, faults, cluster):
    driver = ROWS[module]
    if isinstance(driver, str):
        scenario = SCENARIOS[driver]
        if faults:
            FaultPlan(cluster).apply(scenario.faults[faults])
        return _load(scenario.entry)(cluster, **scenario.kwargs)
    function, kwargs = driver
    return getattr(import_module("repro.protocols." + module),
                   function)(cluster, **kwargs)


def test_every_row_is_bound_to_its_client():
    for module in ROWS:
        row = import_module("repro.protocols." + module).CLIENT
        clients = [cls for cls in ClosedLoopClient.__subclasses__()
                   if cls.__dict__.get("ROW") is row]
        assert len(clients) == 1, module
        assert getattr(clients[0], "handle_" + row.reply) \
            is ClosedLoopClient.on_reply
        if row.redirect is not None:
            assert getattr(clients[0], "handle_" + row.redirect) \
                is ClosedLoopClient.on_redirect


def test_crash_cases_cover_the_three_fleet_rows():
    assert sorted(m for m, faults in CASES if faults) == \
        ["multipaxos", "pbft", "raft"]


@pytest.mark.parametrize("module,faults", CASES)
def test_closed_loop_latencies_sum_to_the_run(module, faults):
    cluster = Cluster(seed=0)
    row = import_module("repro.protocols." + module).CLIENT
    replies = []

    def tap(src, dst, msg):
        if dst == "c0" and msg.mtype == row.reply:
            replies.append((msg, src))

    cluster.network.add_interceptor(tap)
    result = _run(module, faults, cluster)
    (client,) = result.clients
    ops = len(client.commands)
    assert client.done and ops >= 3
    assert len(client.results) == len(client.latencies) == ops
    # One request at a time from t=0: the latencies tile the run, and
    # only if a request's clock starts at its *first* transmission.
    assert sum(client.latencies) == pytest.approx(result.duration, rel=1e-9)

    # Every reply seen so far is now a duplicate: ignored when idle...
    for msg, src in replies:
        client.deliver(msg, src)
    assert len(client.results) == ops and client.done
    # ...and ignored while a later request is in flight.
    client.submit("late-op")
    for msg, src in replies:
        client.deliver(msg, src)
    assert len(client.results) == ops and not client.done
    cluster.run_until(lambda: client.done, until=cluster.now + 500.0)
    assert len(client.results) == ops + 1


@pytest.mark.parametrize("protocol,rate", [("multi-paxos", 2.0),
                                           ("raft", 2.0), ("pbft", 0.3)])
def test_drained_injectors_hold_no_request_state(protocol, rate,
                                                 monkeypatch):
    clusters = []

    class Spy(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(engine, "Cluster", Spy)
    report = engine.run_loadtest(engine.LoadSpec(
        protocol, rate=rate, duration=100.0, seed=3))
    accounting = report["accounting"]
    assert accounting["completed"] == accounting["offered"] > 20
    (cluster,) = clusters
    injectors = [node for node in cluster.nodes
                 if isinstance(node, engine.InjectorBase)]
    assert len(injectors) == 4
    for injector in injectors:
        # Every dict but the process's own timer set (a retransmit
        # timer outlives its request until it next fires).
        held = {name: value for name, value in vars(injector).items()
                if isinstance(value, dict) and value and name != "_timers"}
        assert not held, (injector.name, sorted(held))


def test_live_split_of_raft_shards_under_traffic():
    sharded = ShardedCluster(n_shards=2, replicas=3, seed=11,
                             partitioning="range", key_space=64,
                             protocol="raft", monitors=True)
    assert {group.protocol for group in sharded.shard_groups.values()} \
        == {"raft"}
    keys = [sharded.key(i) for i in range(64)]
    funded = keys[::4]
    for key in funded:
        sharded.put(key, 10)
    assert sharded.run_workload(txns=10, cross_ratio=0.5)["committed"] == 10
    split = sharded.split_shard("s1")
    assert split["done"] and split["new_sid"] == "s2"
    assert split["moved_keys"] > 0 and sharded.shard_map.epoch == 1
    # The orchestrator chased Raft redirects to each group's leader.
    for sid in ("s1", "s2"):
        assert sharded.rebalancer.leader_hint[sid] == \
            sharded.shard_groups[sid].leader().name
    assert not sharded.rebalancer._pending
    assert sharded.run_workload(txns=10, cross_ratio=0.5)["committed"] == 10
    assert sharded.total_of(keys) == 10 * len(funded)
    sharded.settle()
    assert sharded.check_consistency()
    sharded.monitors.finish()
    assert sharded.monitors.ok, sharded.monitors.anomalies


@pytest.mark.parametrize("protocol,n", [("multi-paxos", 3), ("raft", 3),
                                        ("pbft", 4)])
def test_replicated_kv_goes_through_submit(protocol, n):
    kv = ReplicatedKV(n_replicas=n, protocol=protocol, seed=5)
    assert kv.put("a", 1) is None
    # Two writes in flight, then a synchronous read queued behind them:
    # it must return *its own* result, not the first one to arrive.
    kv._client.submit(("put", "a", 2))
    kv._client.submit(("incr", "n", 5))
    assert not kv._client.done
    assert kv.get("a") == 2
    assert kv.get("n") == 5
    assert kv._client.done and len(kv._client.results) == 5
    kv.settle()
    assert kv.check_consistency()


def test_lock_service_goes_through_submit():
    svc = LockService(seed=1, lease=30.0)
    svc._client.submit(("acquire", "L", "alice", svc.cluster.now, 30.0))
    assert not svc._client.done
    assert svc.holder("L") == "alice"
    assert svc.acquire("L", "bob") is False
    assert svc.check_consistency()
