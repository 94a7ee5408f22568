"""Client-retry deduplication at the Multi-Paxos and Raft leaders.

A request id is looked up first in ``_applied_requests`` and then in the
request index, which names the log indices the id was written at; each
candidate is checked against the live log.  These tests pin both
branches, the cases where the un-applied tail was inherited or
rewritten, that neither lookup walks the log, that the index answers
what a walk of the un-applied tail would, and that it does not leak.
"""

import pytest

from repro.core import Cluster, Node
from repro.load import engine
from repro.load.engine import LoadSpec, run_loadtest
from repro.net import UniformDelayModel
from repro.protocols.leader import LeaderReplica
from repro.protocols.multipaxos import (ClientRequest, LogCommand,
                                        MPCatchUpReply, MultiPaxosClient,
                                        MultiPaxosReplica)
from repro.protocols.raft import (AppendEntries, LogEntry, RaftClient,
                                  RaftClientRequest, RaftNode, Role)


class _MultiPaxos:
    replica = MultiPaxosReplica
    request = ClientRequest
    client = MultiPaxosClient
    options = {}

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

    @staticmethod
    def tail(replica):
        """``(index, request_id)`` of each entry a leader's lookup once
        walked: the un-applied tail, up to the next index it assigns."""
        for index in range(replica.last_applied + 1, replica.next_index):
            entry = replica.log.get(index)
            if entry is not None:
                yield index, entry.value.request_id

    @staticmethod
    def unapplied(replica):
        """``(index, request_id)`` of every entry after ``last_applied``."""
        return [(index, entry.value.request_id)
                for index, entry in replica.log.items()
                if index > replica.last_applied]


class _Raft:
    replica = RaftNode
    request = RaftClientRequest
    client = RaftClient
    # Compact often, so a lagging replica is sent InstallSnapshot.
    options = {"snapshot_threshold": 4}

    @staticmethod
    def is_leader(replica):
        return replica.role is Role.LEADER and not replica.crashed

    @staticmethod
    def end(leader):
        return leader.last_log_index() + 1

    @staticmethod
    def holds(replica, request_id):
        return any(entry.request_id == request_id for entry in replica.log)

    @staticmethod
    def tail(replica):
        first = replica.last_applied + 1
        for index, entry in enumerate(replica.log[first - replica.log_base:],
                                      first):
            yield index, entry.request_id

    @staticmethod
    def unapplied(replica):
        return list(_Raft.tail(replica))


both = pytest.mark.parametrize("proto", [_MultiPaxos, _Raft],
                               ids=["multi-paxos", "raft"])


def _scan(proto, replica, request_id):
    """The lookup the request index replaced: the first un-applied
    entry holding ``request_id``, found by walking the tail."""
    return next((index for index, held in proto.tail(replica)
                 if held == request_id), None)


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


class _CountingDict(dict):
    """A Multi-Paxos log that counts the entries read from it."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)

    def __iter__(self):
        self.reads += len(self)
        return dict.__iter__(self)

    def values(self):
        self.reads += len(self)
        return dict.values(self)

    def items(self):
        self.reads += len(self)
        return dict.items(self)


class _CountingList(list):
    """A Raft log that counts the entries read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += len(range(*key.indices(len(self)))) \
            if isinstance(key, slice) else 1
        return list.__getitem__(self, key)

    def __iter__(self):
        self.reads += len(self)
        return list.__iter__(self)


@pytest.mark.parametrize("proto, backlog", [
    pytest.param(_MultiPaxos, False, id="multi-paxos"),
    pytest.param(_Raft, False, id="raft"),
    pytest.param(_MultiPaxos, True, id="multi-paxos-backlog"),
    pytest.param(_Raft, True, id="raft-backlog"),
])
def test_request_path_never_walks_the_whole_log(cluster, proto, backlog):
    replicas, leader, (c0, c1) = _start(cluster, proto)
    if backlog:
        _retries_read_a_bounded_number_of_entries(cluster, proto, replicas,
                                                  leader, c0, c1)
        return
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


def _retries_read_a_bounded_number_of_entries(cluster, proto, replicas,
                                              leader, c0, c1):
    """300 requests reach the leader with the simulator held, so none is
    applied: the window's worth is appended and the rest held back; a
    retry of any of them still costs a few log reads, and a retry of a
    held one none."""
    end = proto.end(leader)
    for i in range(300):
        leader.deliver(proto.request("op-%d" % i, "q%d" % i), "c0")
    appended = proto.end(leader) - end
    assert proto.end(leader) - 1 - leader.last_applied == \
        LeaderReplica.WINDOW
    assert appended + len(leader._held_requests) == 300
    assert not any(r._applied_requests for r in replicas)
    leader.log = (_CountingDict if proto is _MultiPaxos
                  else _CountingList)(leader.log)

    for i, most in ((0, 4), (150, 0), (299, 0)):
        reads = leader.log.reads
        leader.deliver(proto.request("op-%d" % i, "q%d" % i), "c1")
        assert leader.log.reads - reads <= most
        assert proto.end(leader) == end + appended  # re-addressed
    assert leader._client_of[end] == ("c1", "q0")
    assert leader._held_requests["q150"] == ("op-150", "c1")

    _await_applied(cluster, "q299", replicas)
    cluster.sim.run_for(10.0)
    assert sorted(c1.replies) == [("q0", 0), ("q150", 150), ("q299", 299)]
    assert len(c0.replies) == 297
    assert all(r.state_machine.history == ["op-%d" % i for i in range(300)]
               for r in replicas)


# -- the request index ------------------------------------------------------


class _Duplicator(Node):
    """Sends one request id to two replicas at once."""

    def send_twice(self, proto, request_id, first, second):
        for replica in (first, second):
            self.send(replica, proto.request("op-" + request_id, request_id))


def _faulty_schedule(proto, seed, tick):
    """Closed-loop clients on three replicas through two leader crashes
    and restarts, a partition that deposes a live leader while one
    client can still reach it, and request ids sent to two replicas at
    once, one of them across the partition; ``tick(replicas)`` runs
    every time unit."""
    cluster = Cluster(seed=seed, delivery=UniformDelayModel(0.5, 2.5))
    names = ["r0", "r1", "r2"]
    replicas = cluster.add_nodes(proto.replica, names, names,
                                 **proto.options)
    for i in range(2):
        cluster.add_node(proto.client, "c%d" % i, names,
                         ["cmd-%d-%d" % (i, j) for j in range(12)],
                         retry_timeout=4.0)
    dup = cluster.add_node(_Duplicator, "dup")

    def leader():
        return next((r for r in replicas if r.is_leader and not r.crashed),
                    None)

    def crash():
        doomed = leader()
        if doomed is not None:
            doomed.crash()
            cluster.sim.schedule(15.0, doomed.restart)

    def partition():
        cut = leader()
        if cut is None:
            return
        rest = [r.name for r in replicas if r is not cut]
        cluster.network.partitions.split([cut.name, "c0", "dup"],
                                         rest + ["c1"])
        cluster.sim.schedule(2.0, dup.send_twice, proto, "across",
                             cut.name, rest[0])
        cluster.sim.schedule(20.0, cluster.network.partitions.heal)

    cluster.sim.schedule(12.0, crash)
    cluster.sim.schedule(45.0, partition)
    cluster.sim.schedule(68.0, crash)
    for k, at in enumerate((5.0, 20.0, 38.0, 70.0, 95.0)):
        first, second = names[k % 3], names[(k + 1) % 3]
        cluster.sim.schedule(at, dup.send_twice, proto, "dup%d" % k,
                             first, second)
    # Once more to everyone, after the replica that took it first was
    # deposed: whoever leads then may hold it only in a rewritten slot.
    for at in (85.0, 110.0):
        for first, second in (names[:2], names[1:]):
            cluster.sim.schedule(at, dup.send_twice, proto, "across",
                                 first, second)

    def every_unit():
        tick(replicas)
        cluster.sim.schedule(1.0, every_unit)

    cluster.sim.schedule(1.0, every_unit)
    cluster.start_all()
    cluster.run(until=200.0)


def _retry_of_a_rewritten_slot(proto):
    """A leader cut off by a partition writes ``lost``; the majority's
    leader fills that slot with something else, which reaches the old
    leader after the heal; re-elected, the old leader is sent ``lost``
    again while its index still names the rewritten slot."""
    cluster = Cluster(seed=0)
    names = ["r0", "r1", "r2"]
    replicas = cluster.add_nodes(proto.replica, names, names)
    cluster.add_nodes(_Sink, ["c0", "c1"])
    cluster.start_all()
    old = _await_leader(cluster, proto, replicas)
    others = [r for r in replicas if r is not old]
    cluster.network.partitions.split([old.name, "c0"],
                                     [r.name for r in others] + ["c1"])
    old.deliver(proto.request("op-lost", "lost"), "c0")
    new = _await_leader(cluster, proto, others)
    cluster.network.partitions.heal()
    cluster.run_until(lambda: not old.is_leader, until=cluster.now + 50.0)
    new.deliver(proto.request("op-y", "y"), "c1")
    _await_applied(cluster, "y", replicas)
    assert not proto.holds(old, "lost") and "lost" in old._written_at
    new.crash()
    old._start_election()
    assert _await_leader(cluster, proto, replicas) is old
    old.deliver(proto.request("op-lost", "lost"), "c0")
    _await_applied(cluster, "lost", [old])


@both
def test_the_index_answers_what_a_walk_of_the_tail_would(monkeypatch, proto):
    lookups = {"committing": 0, "new": 0, "rewritten": 0}
    indexed = LeaderReplica._in_flight

    def checked(replica, request_id):
        expected = _scan(proto, replica, request_id)
        was_indexed = request_id in replica._written_at
        answer = indexed(replica, request_id)
        assert answer == expected, (replica.name, request_id)
        lookups["committing" if answer is not None else
                "rewritten" if was_indexed else "new"] += 1
        return answer

    def every_held_id(replicas):
        # Every replica has indexed each un-applied entry it holds...
        for replica in replicas:
            for index, request_id in proto.unapplied(replica):
                if request_id is not None and \
                        request_id not in replica._applied_requests:
                    held = replica._written_at[request_id]
                    assert index in ([held] if isinstance(held, int)
                                     else held)
        # ...and between requests, each leader is asked about every id
        # in its tail that a retry would look up (one not applied yet).
        for replica in replicas:
            if replica.is_leader and not replica.crashed:
                for _, request_id in list(proto.tail(replica)):
                    if request_id is not None and \
                            request_id not in replica._applied_requests:
                        checked(replica, request_id)

    monkeypatch.setattr(LeaderReplica, "_in_flight", checked)
    for seed in range(20):
        _faulty_schedule(proto, seed, every_held_id)
    _retry_of_a_rewritten_slot(proto)
    # Retries still committing, new ids, and ids the leader holds only
    # in slots since overwritten or truncated were all asked about.
    assert all(lookups.values()), lookups


def test_an_id_written_at_several_slots_is_found_at_its_lowest_live_one(
        cluster):
    _, leader, _ = _start(cluster, _MultiPaxos)
    first = leader.next_index
    # Written past the lookup, as inherited duplicates are.
    leader._append([("op", "x"), ("op", "y"), ("op", "x")])
    assert leader._in_flight("x") == first
    leader._propose(first + 1, (LogCommand("op", "x"),))
    leader._propose(first, (LogCommand("op", "z"),))
    assert leader._written_at["x"] == [first, first + 2, first + 1]
    assert leader._in_flight("x") == first + 1 == \
        _scan(_MultiPaxos, leader, "x")


def test_multipaxos_skips_a_slot_past_the_next_it_assigns(cluster):
    # A decision for a slot this leader has not reached yet: its own
    # next proposal there will overwrite it.
    _, leader, _ = _start(cluster, _MultiPaxos)
    leader.handle_mpcatchupreply(MPCatchUpReply(leader.ballot_num, (
        (leader.next_index + 3, leader.ballot_num, LogCommand("op", "x")),)),
        "r1")
    assert "x" in leader._written_at
    assert leader._in_flight("x") is None is _scan(_MultiPaxos, leader, "x")


def test_raft_indexes_the_entry_that_replaces_a_truncated_suffix(cluster):
    names = ["r0", "r1", "r2"]
    _, follower, _ = cluster.add_nodes(RaftNode, names, names)
    first = AppendEntries(1, -1, 0, (LogEntry(1, "op-a", "a"),
                                     LogEntry(1, "op-b", "b")), -1)
    second = AppendEntries(2, -1, 0, (LogEntry(2, "op-c", "c"),), -1)
    follower.deliver(first, "r0")
    follower.deliver(second, "r2")
    assert [entry.request_id for entry in follower.log] == ["c"]
    for request_id in "abc":
        assert follower._in_flight(request_id) == \
            _scan(_Raft, follower, request_id)
    assert follower._in_flight("c") == 0


@pytest.mark.parametrize("protocol", ["multi-paxos", "raft"])
def test_a_drained_open_loop_run_leaves_the_index_empty(monkeypatch,
                                                        protocol):
    clusters = []
    fleet = engine._core_fleet

    def keep(cluster, spec, accountant):
        clusters.append(cluster)
        return fleet(cluster, spec, accountant)

    monkeypatch.setattr(engine, "_core_fleet", keep)
    report = run_loadtest(LoadSpec(protocol=protocol, rate=12.0,
                                   duration=30.0, seed=0))
    accounting = report["accounting"]
    assert accounting["completed"] == accounting["offered"] > 300
    (cluster,) = clusters
    cluster.sim.run_for(10.0)  # followers hear of the last commits
    replicas = [n for n in cluster.nodes if isinstance(n, LeaderReplica)]
    assert len(replicas) == 3
    assert all(r._written_at == {} and r.last_applied == r.commit_index
               for r in replicas)


def test_install_snapshot_drops_the_index_below_log_base(cluster):
    proto = _Raft
    names = ["r0", "r1", "r2"]
    replicas = cluster.add_nodes(RaftNode, names, names, snapshot_threshold=3)
    cluster.add_nodes(_Sink, ["c0", "c1"])
    cluster.start_all()
    old = _await_leader(cluster, proto, replicas)
    others = [r for r in replicas if r is not old]
    old.deliver(proto.request("op-w", "w"), "c0")
    _await_applied(cluster, "w", replicas)

    # Cut off, the old leader indexes x, which can never commit...
    cluster.network.partitions.isolate(old.name, [n.name for n in cluster.nodes])
    old.deliver(proto.request("op-x", "x"), "c0")
    assert "x" in old._written_at
    # ...while the majority commits and compacts well past it.
    new = _await_leader(cluster, proto, others)
    for i in range(10):
        new.deliver(proto.request("op-%d" % i, "y%d" % i), "c1")
    _await_applied(cluster, "y9", others)
    assert new.log_base > old.last_log_index()
    cluster.network.partitions.heal()
    _await_applied(cluster, "y9", [old])

    assert old.snapshots_installed == 1
    assert "x" not in old._written_at
    for held in old._written_at.values():
        assert all(index >= old.log_base
                   for index in ([held] if isinstance(held, int) else held))
