"""Per-commit cost of the BFT pair must not depend on how long the log is.

PBFT's checkpoint digest is a hash chain over checkpoint-to-checkpoint
segments, and chained HotStuff picks the next command from a per-block
entry derived from the parent's.  These tests pin that both still say
what the history-walking versions said, and that neither walks history.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Cluster
from repro.crypto import ThresholdScheme
from repro.net import UniformDelayModel
from repro.protocols.hotstuff import GENESIS, Block, ChainedHotStuffReplica
from repro.protocols.pbft import EquivocatingPrimary, PbftClient, PbftReplica

NAMES = ["r0", "r1", "r2", "r3"]


# -- chained HotStuff: command selection -------------------------------------

QUEUE_POOL = ["a", "b", "c", "d"]
COMMAND_POOL = QUEUE_POOL + ["x", "y", "noop-0", "noop-1", "noop-2", "genesis"]


def walk_next_command(blocks, commands, tip_hash):
    """The oracle: collect every command on the chain below ``tip_hash``
    by walking it, stopping at genesis or at a parent not held."""
    on_chain = set()
    current = blocks.get(tip_hash)
    while current is not None and current.hash != GENESIS.hash:
        on_chain.add(current.command)
        current = blocks.get(current.parent)
    for command in commands:
        if command not in on_chain:
            return command
    return "noop-%d" % len(on_chain)


@st.composite
def forests(draw):
    """A queue, a block forest over it, an arrival order that may deliver
    children before parents, and the tips to ask about after each arrival
    (delivered or not)."""
    queue = draw(st.lists(st.sampled_from(QUEUE_POOL), max_size=5))
    size = draw(st.integers(1, 14))
    blocks = []
    for i in range(size):
        parent = draw(st.integers(-1, i - 1))
        parent_hash = GENESIS.hash if parent < 0 else blocks[parent].hash
        blocks.append(Block(i + 1, parent_hash,
                            draw(st.sampled_from(COMMAND_POOL)), i, None))
    order = draw(st.permutations(range(size)))
    asks = draw(st.lists(
        st.lists(st.integers(0, size - 1), max_size=3),
        min_size=size, max_size=size))
    return queue, blocks, order, asks


@settings(max_examples=300, deadline=None)
@given(forests())
def test_next_command_equals_the_chain_walk(forest):
    queue, blocks, order, asks = forest
    replica = Cluster(seed=0).add_node(
        ChainedHotStuffReplica, "r0", NAMES, 1, ThresholdScheme(3, NAMES),
        queue)

    def check(tip):
        replica.high_qc = (tip.view, tip.hash, None)
        assert replica._next_command() == walk_next_command(
            replica.blocks, queue, tip.hash)

    check(GENESIS)
    for arriving, tips in zip(order, asks):
        replica.blocks[blocks[arriving].hash] = blocks[arriving]
        for tip in tips:
            check(blocks[tip])
    for tip in blocks:
        check(tip)


class _CountingDict(dict):
    """A block store that counts lookups and remembers the count at
    each insertion, i.e. at each proposal received."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.at_insert = []

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        self.lookups += 1
        return dict.__contains__(self, key)

    def __setitem__(self, key, value):
        self.at_insert.append(self.lookups)
        dict.__setitem__(self, key, value)


def test_block_lookups_per_proposal_do_not_grow_with_the_chain():
    # The jitter the benchmark uses: no view ever times out, so every
    # view is one proposal and the chain grows by one block per view.
    cluster = Cluster(seed=0, delivery=UniformDelayModel(0.75, 1.25))
    commands = ["cmd-%d" % i for i in range(600)]
    replicas = cluster.add_nodes(ChainedHotStuffReplica, NAMES, NAMES, 1,
                                 ThresholdScheme(3, NAMES), commands)
    for replica in replicas:
        replica.blocks = _CountingDict(replica.blocks)
    cluster.start_all()
    cluster.run_until(
        lambda: all(len(r.decided) >= 600 for r in replicas), until=5000.0)
    assert all(r.decided[:600] == commands for r in replicas)

    def per_proposal(store, at):
        # Each replica leads every fourth view: the busiest of eight
        # consecutive views contains a proposal of its own.
        counts = store.at_insert
        return max(counts[i + 1] - counts[i] for i in range(at, at + 8))

    for replica in replicas:
        store = replica.blocks
        assert len(store.at_insert) > 520
        assert per_proposal(store, 500) <= per_proposal(store, 50) + 4


# -- PBFT: checkpoint digest --------------------------------------------------

def _pbft_group(cluster, operations, checkpoint_interval,
                primary_class=PbftReplica):
    """Four replicas (f=1) and one client, not yet started; each replica's
    checkpoint digests are recorded as ``digests[seq][name]``."""
    replicas = [
        cluster.add_node(primary_class if name == "r0" else PbftReplica,
                         name, NAMES, 1,
                         checkpoint_interval=checkpoint_interval)
        for name in NAMES
    ]
    client = cluster.add_node(
        PbftClient, "c0", NAMES, ["op-%d" % i for i in range(operations)], 1)
    digests = {}
    for replica in replicas:
        def recording(seq, digest, sender, replica=replica,
                      record=replica._record_checkpoint_vote):
            if sender == replica.name:
                digests.setdefault(seq, {})[sender] = digest
            record(seq, digest, sender)
        replica._record_checkpoint_vote = recording
    return replicas, client, digests


def test_honest_replicas_agree_on_every_checkpoint_digest(cluster):
    replicas, client, digests = _pbft_group(cluster, 21, 4)
    cluster.start_all()
    cluster.run_until(lambda: client.done, until=3000.0)
    cluster.sim.run_for(10.0)
    assert client.done
    assert sorted(digests) == [3, 7, 11, 15, 19]
    for by_replica in digests.values():
        assert sorted(by_replica) == NAMES
        assert len(set(by_replica.values())) == 1
    # A chain: no two checkpoints share a digest.
    assert len({d["r0"] for d in digests.values()}) == 5
    assert all(r.last_stable_seq == 19 for r in replicas)


def _run_through_view_change(cluster, client, replicas):
    cluster.start_all()
    cluster.run_until(lambda: client.done, until=3000.0)
    cluster.sim.run_for(10.0)
    assert client.done
    backups = replicas[1:]
    assert all(r.view >= 1 for r in backups)
    return backups


def _assert_agreed_and_stable(digests, backups, taken):
    assert len(taken) >= 2
    for seq in taken:
        assert len({digests[seq][r.name] for r in backups}) == 1
    assert all(r.last_stable_seq == taken[-1] for r in backups)


def test_checkpoints_agree_through_a_view_change(cluster):
    replicas, client, digests = _pbft_group(cluster, 14, 4)
    cluster.sim.schedule(12.0, replicas[0].crash)
    backups = _run_through_view_change(cluster, client, replicas)
    # Checkpoints the crashed primary never took.
    taken = [seq for seq in sorted(digests) if "r0" not in digests[seq]]
    _assert_agreed_and_stable(digests, backups, taken)


def test_checkpoints_agree_when_null_requests_fill_slots(cluster):
    # An equivocating primary leaves r2 and r3 prepared on seq 1 and
    # nobody on seq 0; the next primary fills seq 0 with a null request.
    replicas, client, digests = _pbft_group(cluster, 14, 4,
                                            primary_class=EquivocatingPrimary)
    backups = _run_through_view_change(cluster, client, replicas)
    # A null slot executes no operation, so checkpoint seqs no longer
    # line up with the count of executed operations.
    executed = backups[0].executed_requests
    assert executed[-1][0] > len(executed) - 1
    _assert_agreed_and_stable(digests, backups, sorted(digests))


def test_histories_that_differ_in_one_operation_never_agree_again(cluster):
    a, b = [cluster.add_node(PbftReplica, name, NAMES, 1,
                             checkpoint_interval=4) for name in NAMES][:2]
    held = []

    def execute(ops_a, ops_b, seq):
        for replica, ops in ((a, ops_a), (b, ops_b)):
            start = len(replica.executed_requests)
            replica.executed_requests.extend(
                (start + i, op) for i, op in enumerate(ops))
            replica._take_checkpoint(seq)
        held.append((a._checkpoint_votes[seq][a.name],
                     b._checkpoint_votes[seq][b.name]))

    same = ["w", "x", "y", "z"]
    execute(same, same, 3)
    execute(same, ["w", "x", "Y", "z"], 7)
    execute(same, same, 11)
    execute(same, same, 15)
    assert held[0][0] == held[0][1]
    assert all(da != db for da, db in held[1:])


class _RecentOnlyList(list):
    """An executed-request log that may be read only from ``floor`` on."""

    floor = 0

    def __iter__(self):
        raise AssertionError("whole-history iteration at a checkpoint")

    def __getitem__(self, key):
        if isinstance(key, slice) \
                and key.indices(len(self))[0] < self.floor:
            raise AssertionError("slice from before the last checkpoint")
        return list.__getitem__(self, key)


def test_checkpoint_reads_nothing_from_before_the_previous_one(cluster):
    interval = 16
    replicas, client, _digests = _pbft_group(cluster, 340, interval)
    cluster.start_all()
    cluster.run_until(
        lambda: all(len(r.executed_requests) >= 300 for r in replicas),
        until=20000.0)
    stable_before = []
    for replica in replicas:
        done = len(replica.executed_requests)
        assert done >= 300
        # No null slots on this run: entry i is sequence number i, so the
        # latest checkpoint covered a whole number of intervals.
        assert list.__getitem__(replica.executed_requests, -1)[0] == done - 1
        guarded = _RecentOnlyList(replica.executed_requests)
        guarded.floor = done - done % interval
        replica.executed_requests = guarded
        stable_before.append(replica.last_stable_seq)
    cluster.run_until(lambda: client.done, until=20000.0)
    cluster.sim.run_for(10.0)
    assert client.done
    for replica, before in zip(replicas, stable_before):
        assert replica.last_stable_seq >= before + 2 * interval
