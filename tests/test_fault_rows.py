"""A fault schedule is a value: rows of names and numbers that replay
from JSON, resolve their role targets when they fire, count once each,
and draw from no stream the run itself uses."""

import json
from dataclasses import dataclass

import pytest

from repro.core import Cluster, Node
from repro.faults import FaultPlan
from repro.net import Message
from repro.protocols.raft import run_raft
from repro.shard import ShardedCluster
from repro.trace.export import to_jsonl

#: One schedule per row kind, on a 5-node Raft run (n0..n4) whose first
#: leader is elected by t=10 at seed 0.
SCHEDULES = {
    "crash": ((12.0, "crash", "leader"),),
    "restart": ((12.0, "crash", "n1"), (30.0, "restart", "n1")),
    "crash_random": ((12.0, "crash_random", ("n1", "n2", "n4")),),
    "partition": ((12.0, "partition", ("n0", "n1", "n2"), ("n3", "n4")),),
    "heal": ((12.0, "partition", ("leader",), ("n0", "n1")),
             (25.0, "heal")),
    "drop": ((12.0, "drop", "leader", None, None, 30.0),
             (12.0, "drop", None, "n2", "appendentries", None)),
    "delay": ((0.0, "delay", 2.0, "n1", None, None, 40.0),),
    "duplicate": ((12.0, "duplicate", 2, "leader", ("n1", "n2"), None, 30.0),),
}


def _raft_under(rows):
    cluster = Cluster(seed=0, trace=True, telemetry=True)
    plan = FaultPlan(cluster).apply(rows)
    run_raft(cluster, n_nodes=5, commands_per_client=5)
    return cluster, plan


@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_a_schedule_replays_from_json(kind):
    rows = SCHEDULES[kind]
    as_tuples, plan = _raft_under(rows)
    as_json, _ = _raft_under(json.loads(json.dumps(rows)))
    assert [event[1] for event in plan.events].count(kind) >= 1
    assert as_json.metrics.messages_total == as_tuples.metrics.messages_total
    assert to_jsonl(as_json.trace) == to_jsonl(as_tuples.trace)


def test_every_row_counts_once_and_a_group_row_once_for_all_its_nodes():
    cluster = Cluster(seed=0, telemetry=True)
    start = ShardedCluster(n_shards=2, replicas=3, cluster=cluster).now
    rows = [(start + 1.0, "crash", "s1/*"),
            (start + 2.0, "drop", "s0/leader"),
            (start + 2.0, "delay", 1.0, "s0/follower"),
            (start + 2.0, "duplicate", 1, None, "s0/r0"),
            (start + 3.0, "restart", "s1/*"),
            (start + 4.0, "partition", ["s0/*"], ["s1/*"]),
            (start + 5.0, "heal"),
            (start + 6.0, "crash_random", "s0/*")]
    plan = FaultPlan(cluster).apply(rows)
    cluster.sim.run(until=start + 10.0)
    assert plan.events[0][1:] == ("crash", ("s1/r0", "s1/r1", "s1/r2"))
    for _at, action, *_args in rows:
        assert cluster.telemetry.value("fault_injections_total",
                                       kind=action) == 1, action
    assert cluster.telemetry.total("fault_injections_total") == len(rows)


class Claimant(Node):
    is_leader = False


def test_group_roles_resolve_when_the_row_fires():
    cluster = Cluster(seed=0)
    nodes = cluster.group("g").add_nodes(Claimant, ["r0", "r1", "r2"])
    nodes[0].is_leader = True
    cluster.sim.schedule_at(5.0, setattr, nodes[0], "is_leader", False)
    cluster.sim.schedule_at(5.0, setattr, nodes[2], "is_leader", True)
    plan = FaultPlan(cluster).apply([(10.0, "crash", "g/follower"),
                                     (11.0, "crash", "g/leader"),
                                     (12.0, "crash", "g/follower")])
    cluster.sim.run(until=20.0)
    # At t=10 r0 no longer leads, so it is the first follower; then r2
    # leads, and r1 is the only follower left.
    assert [detail for _at, _kind, detail in plan.events] == \
        ["g/r0", "g/r2", "g/r1"]


def test_a_role_nobody_plays_installs_no_link_fault():
    cluster = Cluster(seed=0, telemetry=True)
    cluster.add_nodes(Node, ["n0", "n1"])
    plan = FaultPlan(cluster).apply([(1.0, "drop", "leader"),
                                     (1.0, "delay", 2.0, None, "leader")])
    cluster.sim.run(until=5.0)
    assert plan.events == [] and not cluster.network._interceptors
    assert cluster.telemetry.total("fault_injections_total") == 0


@dataclass(frozen=True)
class Volley(Message):
    hits: int


class Player(Node):
    def __init__(self, sim, network, name, peer):
        super().__init__(sim, network, name)
        self.peer = peer

    def on_start(self):
        if self.name == "a":
            self.send(self.peer, Volley(0))

    def handle_volley(self, msg, src):
        if msg.hits < 40:
            self.send(self.peer, Volley(msg.hits + 1))


def _rally(crash_random):
    cluster = Cluster(seed=0, trace=True)
    cluster.add_nodes(Node, ["n0", "n1", "n2"])
    cluster.add_node(Player, "a", "b")
    cluster.add_node(Player, "b", "a")
    if crash_random:
        FaultPlan(cluster).crash_random_at(5.0, ["n0", "n1", "n2"])
    cluster.start_all()
    cluster.run()
    return [(event.time, event.kind, event.node, event.peer, event.mtype)
            for event in cluster.trace if event.node in ("a", "b")]


def test_a_crash_random_row_leaves_the_other_nodes_trace_unchanged():
    # The row's draw comes from the plan's own RNG: the network's delays,
    # drawn from ``sim.rng``, are the same with the row and without it.
    assert _rally(crash_random=True) == _rally(crash_random=False)


def test_every_scenario_schedule_is_plain_json():
    from repro.scenarios import SCENARIOS
    schedules = [rows for scenario in SCENARIOS.values()
                 for rows in scenario.faults.values() if isinstance(rows, tuple)]
    assert schedules
    for rows in schedules:
        json.dumps(rows)  # a callable field raises TypeError
