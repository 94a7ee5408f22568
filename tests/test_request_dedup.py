"""Client-retry deduplication at the Multi-Paxos and Raft leaders.

A request id is looked up first in ``_applied_requests`` and then only
in the un-applied tail of the log.  These tests pin both branches, the
cases where that tail was inherited or rewritten, and that neither
lookup walks the whole log.
"""

import pytest

from repro.core import Node
from repro.protocols.multipaxos import ClientRequest, LogCommand, MultiPaxosReplica
from repro.protocols.raft import RaftClientRequest, RaftNode, Role


class _MultiPaxos:
    replica = MultiPaxosReplica
    request = ClientRequest

    @staticmethod
    def is_leader(replica):
        return replica.is_leader and not replica.crashed

    @staticmethod
    def end(leader):
        """One past the last log index the leader has assigned."""
        return leader.next_index

    @staticmethod
    def holds(replica, request_id):
        return any(isinstance(entry.value, LogCommand)
                   and entry.value.request_id == request_id
                   for entry in replica.log.values())


class _Raft:
    replica = RaftNode
    request = RaftClientRequest

    @staticmethod
    def is_leader(replica):
        return replica.role is Role.LEADER and not replica.crashed

    @staticmethod
    def end(leader):
        return leader.last_log_index() + 1

    @staticmethod
    def holds(replica, request_id):
        return any(entry.request_id == request_id for entry in replica.log)


both = pytest.mark.parametrize("proto", [_MultiPaxos, _Raft],
                               ids=["multi-paxos", "raft"])


class _Sink(Node):
    """A client that only records the replies it is sent."""

    def __init__(self, sim, network, name):
        super().__init__(sim, network, name)
        self.replies = []

    def handle_clientreply(self, msg, src):
        self.replies.append((msg.request_id, msg.result))

    handle_raftclientreply = handle_clientreply


def _start(cluster, proto):
    """Three replicas with an elected leader, and two clients."""
    names = ["r0", "r1", "r2"]
    replicas = cluster.add_nodes(proto.replica, names, names)
    clients = cluster.add_nodes(_Sink, ["c0", "c1"])
    cluster.start_all()
    return replicas, _await_leader(cluster, proto, replicas), clients


def _await_leader(cluster, proto, replicas):
    cluster.run_until(lambda: any(proto.is_leader(r) for r in replicas),
                      until=cluster.now + 200.0)
    return next(r for r in replicas if proto.is_leader(r))


def _await_applied(cluster, request_id, replicas):
    cluster.run_until(
        lambda: all(request_id in r._applied_requests for r in replicas),
        until=cluster.now + 200.0)
    assert all(request_id in r._applied_requests for r in replicas)


@both
def test_retry_of_applied_request_re_replies_and_appends_nothing(cluster, proto):
    replicas, leader, (c0, c1) = _start(cluster, proto)
    leader.deliver(proto.request("op", "x"), "c0")
    _await_applied(cluster, "x", replicas)
    end = proto.end(leader)
    leader.deliver(proto.request("op", "x"), "c1")
    assert proto.end(leader) == end
    cluster.sim.run_for(10.0)
    assert c0.replies == c1.replies == [("x", 0)]


@both
def test_retry_while_committing_redirects_the_reply(cluster, proto):
    replicas, leader, (c0, c1) = _start(cluster, proto)
    leader.deliver(proto.request("op", "x"), "c0")
    end = proto.end(leader)
    assert "x" not in leader._applied_requests
    leader.deliver(proto.request("op", "x"), "c1")
    assert proto.end(leader) == end
    _await_applied(cluster, "x", replicas)
    cluster.sim.run_for(10.0)
    assert c0.replies == [] and c1.replies == [("x", 0)]
    assert leader.state_machine.history == ["op"]


@both
def test_new_leader_dedups_an_entry_it_inherited(cluster, proto):
    replicas, old, (c0, c1) = _start(cluster, proto)
    others = [r for r in replicas if r is not old]
    old.deliver(proto.request("op", "x"), "c0")
    # Crash the leader once a follower holds the entry: no ack is back
    # yet, so the entry outlives its leader uncommitted.
    cluster.run_until(lambda: any(proto.holds(r, "x") for r in others),
                      until=cluster.now + 50.0)
    old.crash()
    new = _await_leader(cluster, proto, others)
    assert proto.holds(new, "x") and "x" not in new._applied_requests
    end = proto.end(new)
    new.deliver(proto.request("op", "x"), "c1")
    assert proto.end(new) == end
    _await_applied(cluster, "x", others)
    cluster.sim.run_for(10.0)
    assert c0.replies == [] and c1.replies == [("x", 0)]
    assert all(r.state_machine.history == ["op"] for r in others)


def test_raft_retry_after_truncation_is_appended_once(cluster):
    proto = _Raft
    replicas, first, (c0, c1) = _start(cluster, proto)
    others = [r for r in replicas if r is not first]
    first.deliver(proto.request("op-w", "w"), "c0")
    _await_applied(cluster, "w", replicas)

    # Cut off, the old leader appends x, which can never commit...
    cluster.network.partitions.isolate(
        first.name, [n.name for n in cluster.nodes])
    first.deliver(proto.request("op-x", "x"), "c0")
    assert proto.holds(first, "x")
    # ...while the majority moves on and commits y in its place.
    second = _await_leader(cluster, proto, others)
    second.deliver(proto.request("op-y", "y"), "c0")
    _await_applied(cluster, "y", others)
    cluster.network.partitions.heal()
    _await_applied(cluster, "y", [first])
    assert not proto.holds(first, "x")

    # The node whose copy of x was truncated leads again and sees the retry.
    second.crash()
    first._start_election()
    assert _await_leader(cluster, proto, replicas) is first
    end = proto.end(first)
    first.deliver(proto.request("op-x", "x"), "c1")
    assert proto.end(first) == end + 1
    first.deliver(proto.request("op-x", "x"), "c0")
    assert proto.end(first) == end + 1
    alive = [r for r in replicas if r is not second]
    _await_applied(cluster, "x", alive)
    assert all(r.state_machine.history == ["op-w", "op-y", "op-x"]
               for r in alive)
    assert ("x", 2) in c0.replies and c1.replies == []


def _no_scan():
    raise AssertionError("whole-log scan on the request path")


class _NoScanDict(dict):
    """A Multi-Paxos log that refuses to be iterated."""

    def __iter__(self):
        _no_scan()

    keys = values = items = __iter__


class _NoScanList(list):
    """A Raft log that refuses to be iterated or sliced wide."""

    def __iter__(self):
        _no_scan()

    def __getitem__(self, key):
        if isinstance(key, slice) and \
                len(range(*key.indices(len(self)))) > 32:
            _no_scan()
        return list.__getitem__(self, key)


@both
def test_request_path_never_walks_the_whole_log(cluster, proto):
    replicas, leader, (c0, c1) = _start(cluster, proto)
    for i in range(300):
        c0.send(leader.name, proto.request("op-%d" % i, "q%d" % i))
    _await_applied(cluster, "q299", replicas)
    guard = _NoScanDict if proto is _MultiPaxos else _NoScanList
    for replica in replicas:
        replica.log = guard(replica.log)

    end = proto.end(leader)
    leader.deliver(proto.request("op-new", "new"), "c0")
    leader.deliver(proto.request("op-new", "new"), "c1")
    assert proto.end(leader) == end + 1
    _await_applied(cluster, "new", replicas)
    cluster.sim.run_for(10.0)
    assert c1.replies == [("new", 300)]
    assert len(c0.replies) == 300
