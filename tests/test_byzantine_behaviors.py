"""Tests for the Byzantine network behaviours a fault row mounts (drop,
delay, duplicate), including their effect on live protocols
(idempotency under duplication, liveness under selective silence within
the fault budget)."""

from repro.core import Cluster
from repro.faults import FaultPlan
from repro.protocols.minbft import run_minbft
from repro.protocols.pbft import run_pbft


class TestBehaviorMechanics:
    def test_silence_drops_everything(self):
        from dataclasses import dataclass
        from repro.core import Node
        from repro.net import Message

        @dataclass(frozen=True)
        class Ping(Message):
            k: int

        class Sink(Node):
            def __init__(self, sim, network, name):
                super().__init__(sim, network, name)
                self.got = []

            def handle_ping(self, msg, src):
                self.got.append(msg.k)

        cluster = Cluster(seed=0, telemetry=True)
        a = cluster.add_node(Sink, "a")
        b = cluster.add_node(Sink, "b")
        # Everything "a" sends, until t=5.
        FaultPlan(cluster).apply([(0.0, "drop", "a", None, None, 5.0)])
        cluster.sim.call_soon(lambda: a.send("b", Ping(1)))
        cluster.run()
        assert not b.got
        assert cluster.telemetry.value("net_drops_total", reason="intercepted",
                                       mtype="ping") == 1
        cluster.sim.call_soon(lambda: a.send("b", Ping(2)))
        cluster.run()
        assert b.got == [2]

    def test_duplicator_replays(self, cluster):
        from dataclasses import dataclass
        from repro.core import Node
        from repro.net import Message

        @dataclass(frozen=True)
        class Ping(Message):
            k: int

        class Sink(Node):
            def __init__(self, sim, network, name):
                super().__init__(sim, network, name)
                self.got = []

            def handle_ping(self, msg, src):
                self.got.append(msg.k)

        a = cluster.add_node(Sink, "a")
        b = cluster.add_node(Sink, "b")
        FaultPlan(cluster).apply([(0.0, "duplicate", 2, "a")])
        cluster.sim.call_soon(lambda: a.send("b", Ping(7)))
        cluster.run()
        assert b.got == [7, 7, 7]

    def test_delayer_defers_delivery(self, make_cluster):
        from dataclasses import dataclass
        from repro.core import Node
        from repro.net import Message, SynchronousModel

        @dataclass(frozen=True)
        class Ping(Message):
            k: int

        class Sink(Node):
            def __init__(self, sim, network, name):
                super().__init__(sim, network, name)
                self.at = None

            def handle_ping(self, msg, src):
                self.at = self.sim.now

        cluster = make_cluster(seed=0, delivery=SynchronousModel(1.0))
        a = cluster.add_node(Sink, "a")
        b = cluster.add_node(Sink, "b")
        FaultPlan(cluster).apply([(0.0, "delay", 10.0, "a")])
        cluster.sim.call_soon(lambda: a.send("b", Ping(1)))
        cluster.run()
        assert b.at == 11.0  # 10 held + 1 transit


class TestProtocolsUnderBehaviors:
    def test_pbft_survives_duplicating_replica(self, make_cluster):
        cluster = make_cluster(seed=3, monitors=True)
        cluster.attach_monitors("pbft", n=4, f=1)
        FaultPlan(cluster).apply([(0.0, "duplicate", 2, "r2")])
        result = run_pbft(cluster, f=1, n_clients=1, operations_per_client=3)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        # Replayed messages must not read as equivocation or double
        # executes — the monitors stay quiet under pure duplication.
        cluster.monitors.finish()
        assert cluster.monitors.ok, cluster.monitors.anomalies

    def test_pbft_survives_selectively_silent_backup(self, make_cluster):
        cluster = make_cluster(seed=4)
        # r3 starves half the cluster — within the f=1 budget.
        FaultPlan(cluster).apply([(0.0, "drop", "r3", ["r1", "r2"])])
        result = run_pbft(cluster, f=1, n_clients=1, operations_per_client=3)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()

    def test_minbft_survives_delaying_replica(self, make_cluster):
        cluster = make_cluster(seed=5)
        FaultPlan(cluster).apply([(0.0, "delay", 8.0, "r2")])
        result = run_minbft(cluster, f=1, operations=3)
        assert result.clients[0].done
        assert result.logs_consistent()

    def test_pbft_fails_liveness_beyond_budget_but_stays_safe(self,
                                                              make_cluster):
        cluster = make_cluster(seed=6, monitors=True)
        cluster.attach_monitors("pbft", n=4, f=1)
        # Two silent replicas exceed f=1: liveness gone, safety intact.
        FaultPlan(cluster).apply([(0.0, "drop", "r2"), (0.0, "drop", "r3")])
        result = run_pbft(cluster, f=1, n_clients=1,
                          operations_per_client=2, horizon=400.0)
        assert not all(c.done for c in result.clients)
        assert result.logs_consistent()
        # The monitors draw the same line the theory does: the liveness
        # watchdog trips (no decisions), every safety monitor stays ok.
        cluster.monitors.finish()
        categories = {a.category for a in cluster.monitors.anomalies}
        assert "liveness" in categories
        assert "safety" not in categories

    def test_equivocating_primary_trips_the_monitor(self, make_cluster):
        from repro.protocols.pbft import EquivocatingPrimary
        cluster = make_cluster(seed=4, monitors=True)
        cluster.attach_monitors("pbft", n=4, f=1)
        result = run_pbft(cluster, f=1, n_clients=1,
                          operations_per_client=2,
                          primary_class=EquivocatingPrimary)
        assert result.logs_consistent()  # the protocol masks the attack...
        cluster.monitors.finish()
        tripped = [a for a in cluster.monitors.anomalies
                   if a.monitor == "equivocation"]
        assert tripped  # ...but the monitor still names the attacker
        assert tripped[0].node == "r0"
        assert tripped[0].context  # with its causal trail
