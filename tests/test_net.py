"""Unit tests for the network substrate: delivery models, partitions,
transport, message sizing."""

from dataclasses import dataclass

import pytest

from repro.core import Node
from repro.net import (
    AsynchronousModel,
    DeliveryModel,
    Message,
    Network,
    PartialSynchronyModel,
    PartitionManager,
    PerLinkModel,
    SynchronousModel,
    UniformDelayModel,
)
from repro.sim import Simulator


@dataclass(frozen=True)
class Ping(Message):
    payload: str


class Recorder(Node):
    def __init__(self, sim, network, name):
        super().__init__(sim, network, name)
        self.received = []

    def handle_ping(self, msg, src):
        self.received.append((src, msg.payload, self.sim.now))


class TestDeliveryModels:
    def test_synchronous_constant_delay(self):
        model = SynchronousModel(step=2.0)
        sim = Simulator()
        assert model.delay(sim.rng, "a", "b", 0.0) == 2.0

    def test_synchronous_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SynchronousModel(step=0)

    def test_uniform_within_bounds(self):
        model = UniformDelayModel(0.5, 1.5)
        sim = Simulator(seed=1)
        for _ in range(200):
            delay = model.delay(sim.rng, "a", "b", 0.0)
            assert 0.5 <= delay <= 1.5

    def test_uniform_drop_rate(self):
        model = UniformDelayModel(0.5, 1.5, drop_rate=0.5)
        sim = Simulator(seed=1)
        outcomes = [model.delay(sim.rng, "a", "b", 0.0) for _ in range(400)]
        drops = sum(1 for o in outcomes if o is DeliveryModel.DROP)
        assert 120 < drops < 280

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformDelayModel(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelayModel(drop_rate=1.0)

    def test_asynchronous_has_heavy_tail(self):
        model = AsynchronousModel(mean=1.0, tail_prob=0.2, tail_factor=50.0)
        sim = Simulator(seed=2)
        delays = [model.delay(sim.rng, "a", "b", 0.0) for _ in range(500)]
        assert max(delays) > 20.0  # stragglers exist
        assert min(delays) < 2.0

    def test_partial_synchrony_stabilises_after_gst(self):
        model = PartialSynchronyModel(gst=100.0, post_low=0.5, post_high=1.0)
        sim = Simulator(seed=3)
        post = [model.delay(sim.rng, "a", "b", 150.0) for _ in range(100)]
        assert all(0.5 <= d <= 1.0 for d in post)
        pre = [model.delay(sim.rng, "a", "b", 10.0) for _ in range(200)]
        assert max(pre) > 1.0  # unbounded-ish before GST

    def test_per_link_overrides(self):
        slow = SynchronousModel(10.0)
        fast = SynchronousModel(1.0)
        model = PerLinkModel(fast, {("a", "b"): slow})
        sim = Simulator()
        assert model.delay(sim.rng, "a", "b", 0.0) == 10.0
        assert model.delay(sim.rng, "b", "a", 0.0) == 1.0
        model.set_link("b", "a", slow)
        assert model.delay(sim.rng, "b", "a", 0.0) == 10.0


class TestPartitions:
    def test_no_partition_all_connected(self):
        pm = PartitionManager()
        assert pm.connected("a", "b")
        assert not pm.active

    def test_split_blocks_cross_group(self):
        pm = PartitionManager()
        pm.split(["a", "b"], ["c"])
        assert pm.connected("a", "b")
        assert not pm.connected("a", "c")
        assert not pm.connected("c", "b")
        pm.heal()
        assert pm.connected("a", "c")

    def test_unnamed_nodes_isolated(self):
        pm = PartitionManager()
        pm.split(["a"], ["b"])
        assert not pm.connected("a", "ghost")
        assert not pm.connected("ghost", "other_ghost")

    def test_duplicate_membership_rejected(self):
        pm = PartitionManager()
        with pytest.raises(ValueError):
            pm.split(["a", "b"], ["b", "c"])

    def test_isolate_helper(self):
        pm = PartitionManager()
        pm.isolate("x", ["x", "y", "z"])
        assert not pm.connected("x", "y")
        assert pm.connected("y", "z")


class TestNetwork:
    def test_unicast_delivery(self, cluster):
        a = cluster.add_node(Recorder, "a")
        b = cluster.add_node(Recorder, "b")
        cluster.sim.call_soon(lambda: a.send("b", Ping("hi")))
        cluster.run()
        assert b.received and b.received[0][:2] == ("a", "hi")

    def test_duplicate_names_rejected(self, cluster):
        cluster.add_node(Recorder, "a")
        with pytest.raises(ValueError):
            cluster.add_node(Recorder, "a")

    def test_unknown_destination_raises(self, cluster):
        a = cluster.add_node(Recorder, "a")
        with pytest.raises(KeyError):
            a.send("nope", Ping("x"))

    def test_broadcast_excludes_self_by_default(self, cluster):
        nodes = [cluster.add_node(Recorder, "n%d" % i) for i in range(4)]
        cluster.sim.call_soon(lambda: nodes[0].broadcast(Ping("all")))
        cluster.run()
        assert not nodes[0].received
        assert all(n.received for n in nodes[1:])

    def test_broadcast_counts_unicasts_in_metrics(self, cluster):
        nodes = [cluster.add_node(Recorder, "n%d" % i) for i in range(5)]
        cluster.sim.call_soon(lambda: nodes[0].broadcast(Ping("x")))
        cluster.run()
        assert cluster.metrics.messages_total == 4

    def test_crashed_node_does_not_send_or_receive(self, cluster):
        a = cluster.add_node(Recorder, "a")
        b = cluster.add_node(Recorder, "b")
        b.crash()
        cluster.sim.call_soon(lambda: a.send("b", Ping("x")))
        cluster.run()
        assert not b.received
        a.crash()
        assert a.send("b", Ping("y")) is False

    def test_interceptor_can_drop(self, cluster):
        a = cluster.add_node(Recorder, "a")
        b = cluster.add_node(Recorder, "b")
        cluster.network.add_interceptor(
            lambda src, dst, msg: False if dst == "b" else None
        )
        cluster.sim.call_soon(lambda: a.send("b", Ping("x")))
        cluster.run()
        assert not b.received

    def test_interceptor_removal(self, cluster):
        a = cluster.add_node(Recorder, "a")
        b = cluster.add_node(Recorder, "b")
        drop = lambda src, dst, msg: False
        cluster.network.add_interceptor(drop)
        cluster.network.remove_interceptor(drop)
        cluster.sim.call_soon(lambda: a.send("b", Ping("x")))
        cluster.run()
        assert b.received

    def test_partition_blocks_traffic(self, cluster):
        a = cluster.add_node(Recorder, "a")
        b = cluster.add_node(Recorder, "b")
        cluster.network.partitions.split(["a"], ["b"])
        cluster.sim.call_soon(lambda: a.send("b", Ping("x")))
        cluster.run()
        assert not b.received

    def test_unhandled_message_ignored(self, cluster):
        @dataclass(frozen=True)
        class Mystery(Message):
            x: int

        a = cluster.add_node(Recorder, "a")
        b = cluster.add_node(Recorder, "b")
        cluster.sim.call_soon(lambda: a.send("b", Mystery(1)))
        cluster.run()  # must not raise
        assert not b.received

    def test_multicast(self, cluster):
        nodes = [cluster.add_node(Recorder, "n%d" % i) for i in range(4)]
        cluster.sim.call_soon(
            lambda: nodes[0].multicast(["n1", "n3"], Ping("m"))
        )
        cluster.run()
        assert nodes[1].received and nodes[3].received and not nodes[2].received


class TestMessageSizing:
    def test_size_estimate_grows_with_content(self):
        small = Ping("x")
        large = Ping("x" * 500)
        assert large.size_estimate() > small.size_estimate()

    def test_mtype_is_lowercased_class_name(self):
        assert Ping("x").mtype == "ping"

    def test_mtype_is_cached_on_the_class(self):
        # Stamped by __init_subclass__, not computed per instance.
        assert "mtype" in Ping.__dict__
        assert Ping.mtype == "ping"

    def test_explicit_mtype_survives_subclassing(self):
        @dataclass(frozen=True)
        class Renamed(Message):
            mtype = "wire-name"

        assert Renamed().mtype == "wire-name"

    def test_size_estimate_stable_across_calls(self):
        # The per-class field plan must not drift between invocations.
        message = Ping("hello")
        assert message.size_estimate() == message.size_estimate()

    def test_memoised_field_classes_price_as_the_ladder_does(self):
        # A field class is memoised only when its size cannot depend on
        # the value: subclasses of str and of containers are re-priced.
        # A sequence's items are priced by the same rule as fields.
        from collections import namedtuple

        class Opaque:
            pass

        class Count(int):
            pass

        class Name(str):
            pass

        Pair = namedtuple("Pair", "a b")

        @dataclass(frozen=True)
        class Mixed(Message):
            opaque: object
            count: object
            name: object
            pair: object
            items: object

        class Late:  # first seen inside a sequence
            pass

        for _ in range(2):
            assert Mixed(Opaque(), Count(3), Name("ab"), Pair(1, 2),
                         (Late(), Count(4), Name("abc"), Pair(1, 2))
                         ).size_estimate() == \
                16 + 32 + 8 + 2 + 20 + (4 + 32 + 8 + 3 + 20)
            assert Mixed(Opaque(), Count(3), Name("abcd"), Pair("xyz", None),
                         (Opaque(), Late(), Name("a"), Pair("xyz", None))
                         ).size_estimate() == \
                16 + 32 + 8 + 4 + 8 + (4 + 32 + 32 + 1 + 8)


class TestDispatchCache:
    def test_handler_resolved_once_per_class(self):
        sim = Simulator()
        network = Network(sim)

        class CachedRecorder(Recorder):
            pass

        node = CachedRecorder(sim, network, "n")
        assert CachedRecorder._dispatch == {}
        node.deliver(Ping("x"), "peer")
        assert CachedRecorder._dispatch["ping"] is CachedRecorder.handle_ping
        node.deliver(Ping("y"), "peer")
        assert [payload for _src, payload, _t in node.received] == ["x", "y"]

    def test_unhandled_mtype_cached_as_none(self):
        sim = Simulator()

        @dataclass(frozen=True)
        class Mystery(Message):
            pass

        class Deaf(Node):
            def __init__(self, sim, network, name):
                super().__init__(sim, network, name)
                self.unhandled = []

            def on_unhandled(self, message, src):
                self.unhandled.append(message)

        node = Deaf(sim, Network(sim), "n")
        node.deliver(Mystery(), "peer")
        node.deliver(Mystery(), "peer")
        assert len(node.unhandled) == 2
        assert Deaf._dispatch["mystery"] is None

    def test_subclasses_get_independent_caches(self):
        # A subclass must not inherit (or pollute) its parent's cache —
        # each class resolves its own handlers.
        sim = Simulator()
        network = Network(sim)

        class Parent(Recorder):
            pass

        class Child(Parent):
            def handle_ping(self, msg, src):
                self.received.append(("child", msg.payload, self.sim.now))

        parent = Parent(sim, network, "p")
        child = Child(sim, network, "c")
        parent.deliver(Ping("a"), "peer")
        child.deliver(Ping("b"), "peer")
        assert Parent._dispatch["ping"] is Parent.handle_ping
        assert Child._dispatch["ping"] is Child.handle_ping
        assert parent.received[0][0] == "peer"
        assert child.received[0][0] == "child"


class TestEnvelope:
    def test_latency_property(self):
        from repro.net import Envelope
        envelope = Envelope("a", "b", Ping("x"), sent_at=1.0, deliver_at=3.5)
        assert envelope.latency == 2.5
        assert envelope.src == "a" and envelope.dst == "b"
