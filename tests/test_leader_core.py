"""The leader-replica core Multi-Paxos and Raft share
(``repro.protocols.leader``): one heartbeat timer per leadership and the
heartbeat rule it runs, crash and restart, and what a deposed leader
tells a client."""

import copy
import random

import pytest

from repro.core import Cluster, Node
from repro.net import UniformDelayModel
from repro.protocols.multipaxos import ClientRequest, MultiPaxosReplica
from repro.protocols.raft import RaftClientRequest, RaftNode

NAMES = ["r0", "r1", "r2"]


class _MultiPaxos:
    replica = MultiPaxosReplica
    request = ClientRequest
    heartbeat = "heartbeat"
    #: Heartbeats per peer in 20 idle vt at the capped gap, 5.0 / 2.
    idle_heartbeats = 8

    @staticmethod
    def epoch(replica):
        return replica.ballot_num

    @staticmethod
    def campaigns(replicas):
        return sum(r.view_changes for r in replicas)

    @staticmethod
    def campaign(replica):
        replica._start_prepare()

    @staticmethod
    def holds(replica, request_id):
        return any(entry.value.request_id == request_id
                   for entry in replica.log.values())


class _Raft:
    replica = RaftNode
    request = RaftClientRequest
    heartbeat = "appendentries"  # an idle Raft leader's heartbeat
    #: Heartbeats per peer in 20 idle vt at the capped gap, 6.0 / 2.
    idle_heartbeats = 6

    @staticmethod
    def epoch(replica):
        return replica.current_term

    @staticmethod
    def campaigns(replicas):
        return sum(r.elections_started for r in replicas)

    @staticmethod
    def campaign(replica):
        replica._start_election()

    @staticmethod
    def holds(replica, request_id):
        return any(entry.request_id == request_id for entry in replica.log)


both = pytest.mark.parametrize("proto", [_MultiPaxos, _Raft],
                               ids=["multi-paxos", "raft"])


class _Sink(Node):
    """A client that records the replies and redirects it is sent."""

    def __init__(self, sim, network, name):
        super().__init__(sim, network, name)
        self.replies = []
        self.redirects = []

    def handle_clientreply(self, msg, src):
        self.replies.append((msg.request_id, msg.result))

    def handle_redirect(self, msg, src):
        self.redirects.append((msg.request_id, msg.leader_hint))

    handle_raftclientreply = handle_clientreply
    handle_raftredirect = handle_redirect


def _await(cluster, predicate, within=200.0):
    cluster.run_until(predicate, until=cluster.now + within)
    assert predicate()


def _leader_of(cluster, replicas):
    _await(cluster, lambda: any(r.is_leader for r in replicas))
    return next(r for r in replicas if r.is_leader)


def _deposed_while_alive(cluster, proto, request=None):
    """Three replicas and clients c0, c1: the first leader is cut off,
    with c0 only (which sends it ``request``, if any), while the other
    two elect a new one; then the partition heals and the old leader,
    never crashed, follows it.  Returns ``(replicas, old, new)``."""
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    c0, _ = cluster.add_nodes(_Sink, ["c0", "c1"])
    cluster.start_all()
    old = _leader_of(cluster, replicas)
    others = [r for r in replicas if r is not old]
    cluster.network.partitions.split(
        [old.name, "c0"], [r.name for r in others] + ["c1"])
    if request is not None:
        c0.send(old.name, request)
    new = _leader_of(cluster, others)
    assert old.is_leader  # cut off, it has heard of no one better
    cluster.network.partitions.heal()
    _await(cluster, lambda: not old.is_leader)
    cluster.sim.run_for(10.0)  # the new leader catches the old one up
    assert new.is_leader and not old.is_leader
    return replicas, old, new


@both
def test_a_deposed_leader_holds_only_its_election_timer(cluster, proto):
    _, old, _ = _deposed_while_alive(cluster, proto)
    assert list(old._timers) == [old._election_timer]


@both
def test_re_elected_leader_heartbeats_once_per_peer_per_interval(cluster,
                                                                 proto):
    _, old, new = _deposed_while_alive(cluster, proto)
    new.crash()
    proto.campaign(old)
    _await(cluster, lambda: old.is_leader, within=50.0)
    sent = {}

    def tap(src, dst, msg):
        if src == old.name and msg.mtype == proto.heartbeat:
            sent[dst] = sent.get(dst, 0) + 1

    # Let log repair finish and the idle gap stretch to its cap,
    # election_timeout / 2; start the count off the gap's phase.
    cluster.sim.run_for(10.25)
    cluster.network.add_interceptor(tap)
    cluster.sim.run_for(20.0)
    assert sent == {peer: proto.idle_heartbeats for peer in old.other_peers}


@both
def test_crash_and_restart_keep_the_log_and_drop_leadership(cluster, proto):
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    cluster.add_node(_Sink, "c0")
    cluster.start_all()
    leader = _leader_of(cluster, replicas)
    leader.deliver(proto.request("op", "x"), "c0")
    _await(cluster, lambda: all("x" in r._applied_requests for r in replicas))
    durable = (copy.deepcopy(leader.log), proto.epoch(leader),
               dict(leader._applied_requests))

    leader.crash()
    assert not leader.is_leader and not leader._timers
    others = [r for r in replicas if r is not leader]
    _leader_of(cluster, others)
    leader.restart()
    assert (leader.log, proto.epoch(leader), leader._applied_requests) \
        == durable
    assert not leader.is_leader and leader.leader_hint is None
    assert list(leader._timers) == [leader._election_timer]
    assert leader._election_timer.active


@both
def test_a_deposed_leader_redirects_to_the_new_leader(cluster, proto):
    _, old, new = _deposed_while_alive(cluster, proto)
    sink = cluster.node_named("c0")
    old.deliver(proto.request("op", "y"), "c0")
    cluster.sim.run_for(5.0)
    assert sink.redirects == [("y", new.name)]


@both
def test_a_reused_slot_answers_only_its_own_request(cluster, proto):
    """Cut off, the old leader takes x into a slot that, after the heal,
    the new leader fills with y: applying y there must not acknowledge
    x."""
    replicas, _, new = _deposed_while_alive(
        cluster, proto, proto.request("op-x", "x"))
    c0, c1 = cluster.node_named("c0"), cluster.node_named("c1")
    c1.send(new.name, proto.request("op-y", "y"))
    _await(cluster, lambda: all("y" in r._applied_requests for r in replicas))
    cluster.sim.run_for(10.0)
    assert c1.replies == [("y", 0)] and c0.replies == []
    assert all(r.state_machine.history == ["op-y"] for r in replicas)


# -- the heartbeat rule -------------------------------------------------------


def _count_heartbeats(leader):
    """Count the heartbeats ``leader`` decides to send from now on."""
    sent = []
    send = leader._send_heartbeat

    def counted():
        sent.append(leader.sim.now)
        send()

    leader._send_heartbeat = counted
    return sent


def _feed(cluster, leader, proto, times):
    """Hand ``leader`` new request ``q<i>`` at ``times[i]`` from now
    (directly: the network would blur the spacing)."""
    for i, at in enumerate(times):
        cluster.sim.schedule(at, leader.deliver,
                             proto.request("op-%d" % i, "q%d" % i), "c0")


@both
def test_no_heartbeat_while_replication_covers_every_interval(cluster,
                                                              proto):
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    cluster.add_node(_Sink, "c0")
    cluster.start_all()
    leader = _leader_of(cluster, replicas)
    cluster.sim.run_for(20.0)  # idle: the gap is at its cap
    idle = _count_heartbeats(leader)
    cluster.sim.run_for(30.0)
    assert len(idle) == 30.0 / (leader.election_timeout / 2)

    # A request every half interval: from the first on, each due time
    # finds a broadcast.
    _feed(cluster, leader, proto, [0.5 * k for k in range(1, 61)])
    cluster.sim.run_for(0.5)
    busy = _count_heartbeats(leader)
    cluster.sim.run_for(29.5)  # up to the last request
    assert busy == []
    # Idle again, it skips the due time the last broadcast covered and
    # heartbeats one interval later.
    cluster.sim.run_for(2.0)
    assert len(busy) == 1
    _await(cluster, lambda: all("q59" in r._applied_requests
                                for r in replicas))


@both
def test_a_follower_waits_at_most_half_the_election_timeout_and_a_beat(
        proto):
    """Bursts and lulls of requests: between two messages from the
    leader a follower waits at most election_timeout / 2 (the capped
    gap) plus one interval (a skip after a broadcast)."""
    cluster = Cluster(seed=4)
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    cluster.add_node(_Sink, "c0")
    cluster.start_all()
    leader = _leader_of(cluster, replicas)
    start = cluster.now
    sends = {peer: [start] for peer in leader.other_peers}

    def tap(src, dst, msg):
        if src == leader.name and dst in sends:
            sends[dst].append(cluster.now)

    cluster.network.add_interceptor(tap)
    draw = random.Random(4)
    times, at = [], 0.0
    while at < 400.0:
        at += draw.choice((0.3, 0.9, 1.7, 2.6, 3.4, 6.0))
        times.append(at)
    _feed(cluster, leader, proto, times)
    cluster.sim.run_for(420.0)
    assert leader.is_leader and proto.campaigns(replicas) == 1
    bound = leader.election_timeout / 2 + leader.HEARTBEAT_INTERVAL
    gaps = [b - a for sent in sends.values()
            for a, b in zip(sent, sent[1:])]
    assert max(gaps) <= bound + 1e-9


@both
@pytest.mark.parametrize("seed", range(20))
def test_an_idle_group_keeps_its_first_leader(proto, seed):
    cluster = Cluster(seed=seed)
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    cluster.start_all()
    leader = _leader_of(cluster, replicas)
    campaigns, epoch = proto.campaigns(replicas), proto.epoch(leader)
    cluster.sim.run_for(500.0)
    assert [r for r in replicas if r.is_leader] == [leader]
    assert proto.campaigns(replicas) == campaigns
    assert proto.epoch(leader) == epoch


def _drained_after_lossy_burst(proto, seed, rate):
    """The committed logs of three replicas after 60 requests at
    ``rate`` per vt with 5% of messages lost, then 100 vt of quiet."""
    cluster = Cluster(seed=seed,
                      delivery=UniformDelayModel(0.5, 1.5, drop_rate=0.05))
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    cluster.add_node(_Sink, "c0")
    cluster.start_all()
    leader = _leader_of(cluster, replicas)
    _feed(cluster, leader, proto, [k / rate for k in range(1, 61)])
    cluster.sim.run_for(60 / rate + 100.0)
    return [r.committed_log() for r in replicas]


@pytest.mark.parametrize("proto, rate", [
    pytest.param(_MultiPaxos, 2.5, id="multi-paxos"),
    pytest.param(_Raft, 2.5, id="raft"),
    pytest.param(_MultiPaxos, 12.0, id="multi-paxos-12"),
    pytest.param(_Raft, 12.0, id="raft-12"),
])
def test_followers_converge_after_a_lossy_burst(proto, rate):
    """At 2.5 req/vt nothing is held; at 12 the window holds requests
    back, and runs of slots are lost and re-sent together."""
    for seed in range(10):
        logs = _drained_after_lossy_burst(proto, seed, rate)
        assert len(logs[0]) == 60 and logs[1] == logs[0] == logs[2], seed


# -- the batching window ------------------------------------------------------


def _backlog(cluster, proto, requests=100):
    """Three replicas whose elected leader is handed ``requests``
    requests ``q<i>`` from c0 at one instant; returns the replicas, the
    leader and the batch sizes its ``_append`` is called with from
    then on."""
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    cluster.add_nodes(_Sink, ["c0", "c1"])
    cluster.start_all()
    leader = _leader_of(cluster, replicas)
    cluster.sim.run_for(10.0)  # Raft's no-op is applied
    batches = []
    append = leader._append

    def counted(batch):
        batches.append(len(batch))
        return append(batch)

    leader._append = counted
    for i in range(requests):
        leader.deliver(proto.request("op-%d" % i, "q%d" % i), "c0")
    return replicas, leader, batches


def _history(requests):
    return ["op-%d" % i for i in requests]


@both
def test_a_backlog_fills_the_window_and_the_rest_leaves_as_one_run(cluster,
                                                                   proto):
    replicas, leader, batches = _backlog(cluster, proto)
    window = leader.WINDOW
    assert batches == [1] * window
    assert leader._last_index() - leader.last_applied == window
    assert list(leader._held_requests) == \
        ["q%d" % i for i in range(window, 100)]
    applied = leader.last_applied
    _await(cluster, lambda: leader.last_applied > applied)
    assert batches == [1] * window + [100 - window]
    _await(cluster, lambda: all("q99" in r._applied_requests
                                for r in replicas))
    cluster.sim.run_for(10.0)
    assert all(r.state_machine.history == _history(range(100))
               for r in replicas)
    assert len(cluster.node_named("c0").replies) == 100


@both
def test_held_requests_are_appended_in_arrival_order(cluster, proto):
    replicas, leader, batches = _backlog(cluster, proto, requests=40)
    # Arriving later, with the window full: held behind q32..q39.
    for i in (45, 41, 43):
        leader.deliver(proto.request("op-%d" % i, "q%d" % i), "c0")
    _await(cluster, lambda: all(not r._held_requests and
                                r.last_applied == leader.last_applied
                                for r in replicas))
    order = list(range(40)) + [45, 41, 43]
    assert all(r.state_machine.history == _history(order)
               for r in replicas)


@both
def test_a_retried_held_request_is_appended_once(cluster, proto):
    replicas, leader, batches = _backlog(cluster, proto, requests=40)
    c0, c1 = cluster.node_named("c0"), cluster.node_named("c1")
    for src in ("c1", "c0", "c1"):
        leader.deliver(proto.request("op-35", "q35"), src)
    assert list(leader._held_requests).count("q35") == 1
    assert leader._held_requests["q35"] == ("op-35", "c1")
    _await(cluster, lambda: all("q39" in r._applied_requests
                                for r in replicas))
    cluster.sim.run_for(10.0)
    assert all(r.state_machine.history == _history(range(40))
               for r in replicas)
    assert c1.replies == [("q35", leader._applied_requests["q35"])]
    assert len(c0.replies) == 39 and "q35" not in dict(c0.replies)


class _Chaser(_Sink):
    """A sink that re-sends each redirected request ``q<i>`` to the
    leader the redirect names."""

    def handle_redirect(self, msg, src):
        super().handle_redirect(msg, src)
        request = self.request(
            "op-" + msg.request_id[1:], msg.request_id)
        self.send(msg.leader_hint, request)

    handle_raftredirect = handle_redirect


@both
def test_a_deposed_leader_redirects_what_it_held_to_the_new_leader(cluster,
                                                                   proto):
    replicas = cluster.add_nodes(proto.replica, NAMES, NAMES)
    chaser = cluster.add_node(_Chaser, "c0")
    chaser.request = proto.request
    cluster.start_all()
    old = _leader_of(cluster, replicas)
    cluster.sim.run_for(10.0)
    others = [r for r in replicas if r is not old]
    # Cut off before the backlog arrives: it can commit nothing, so it
    # never appends what it holds.
    cluster.network.partitions.split([old.name],
                                     [r.name for r in others] + ["c0"])
    for i in range(100):
        old.deliver(proto.request("op-%d" % i, "q%d" % i), "c0")
    held = list(old._held_requests)
    assert len(held) == 100 - old.WINDOW
    new = _leader_of(cluster, others)
    cluster.network.partitions.heal()
    _await(cluster, lambda: not old.is_leader)
    assert not old._held_requests
    _await(cluster, lambda: all(request_id in r._applied_requests
                                for r in replicas for request_id in held))
    assert sorted(chaser.redirects) == sorted(
        (request_id, new.name) for request_id in held)
    assert dict(chaser.replies).keys() >= set(held)
    assert all(r.state_machine.history == new.state_machine.history
               for r in replicas)
    assert sorted(new.state_machine.history) == sorted(
        "op-" + request_id[1:] for request_id in held)


@both
def test_a_crash_forgets_what_the_leader_held(cluster, proto):
    """Crashed while holding requests, restarted and re-elected, the
    leader never appends them: the client was never told they were
    taken, and a retry may have completed them elsewhere meanwhile."""
    replicas, leader, _ = _backlog(cluster, proto)
    held = list(leader._held_requests)
    assert held
    leader.crash()
    cluster.sim.run_for(1.0)
    leader.restart()
    proto.campaign(leader)
    _await(cluster, lambda: leader.is_leader, within=50.0)
    _await(cluster, lambda: all("q%d" % (leader.WINDOW - 1)
                                in r._applied_requests for r in replicas))
    cluster.sim.run_for(20.0)
    assert all(r.state_machine.history == _history(range(leader.WINDOW))
               for r in replicas)
    assert not any(proto.holds(r, request_id)
                   for r in replicas for request_id in held)
