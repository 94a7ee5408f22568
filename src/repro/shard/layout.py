"""Fleet layout: what follows from a fleet's construction parameters.

Key names, the initial routing table, which protocol each shard runs,
how long elections need before traffic, and how a workload transfer is
drawn.  All pure functions of their arguments (no simulator), so the
live :class:`~repro.shard.cluster.ShardedCluster` and the picklable
:class:`~repro.parallel.spec.FleetSpec` — which precomputes the same
fleet for worker processes — derive identical fleets from one
implementation.
"""

from ..dtxn.coordinator import KeyLocal
from .keyspace import HashPartitioner, RangePartitioner, ShardMap

#: Width of generated key names — fixed so lexicographic order equals
#: numeric order, which is what makes range partitioning intuitive.
KEY_WIDTH = 6


def key_name(i):
    """The ``i``-th generated key (zero-padded, order-preserving)."""
    return "k%0*d" % (KEY_WIDTH, i)


def build_shard_map(n_shards, partitioning, key_space):
    """The initial routing table; range boundaries are placed evenly
    over the ``key_space`` generated keys."""
    if partitioning == "hash":
        return ShardMap(HashPartitioner(n_shards))
    if partitioning == "range":
        boundaries = [key_name(i * key_space // n_shards)
                      for i in range(1, n_shards)]
        return ShardMap(RangePartitioner(boundaries))
    raise ValueError("unknown partitioning %r "
                     "(choices: hash, range)" % (partitioning,))


def protocol_for(protocol, index):
    """The protocol shard ``index`` runs: ``"mixed"`` alternates (even
    shards Multi-Paxos, odd shards Raft)."""
    if protocol == "mixed":
        return "multi-paxos" if index % 2 == 0 else "raft"
    return protocol


def settle_time(protocols):
    """Virtual time to let every group elect a leader before serving
    (Raft elections are timeout-driven, so fleets with a Raft group need
    longer)."""
    return 25.0 if "raft" in protocols else 10.0


def draw_transfer(rng, shard_map, key_space, cross_ratio, amount):
    """One workload transfer ``(src, dst, delta)``, cross-shard with
    probability ``cross_ratio``.  The order of draws from ``rng`` is
    part of every fleet golden and ``vt_digest``."""
    src = key_name(rng.randrange(key_space))
    want_cross = rng.random() < cross_ratio
    dst = draw_partner(rng, shard_map, key_space, src, want_cross, 64)
    delta = rng.randrange(1, amount + 1)
    return src, dst, delta


def draw_partner(rng, shard_map, key_space, src, want_cross, tries):
    """A key other than ``src``, on another shard iff ``want_cross``,
    from at most ``tries`` draws; else the first other key drawn, else
    ``src``."""
    home = shard_map.shard_of(src)
    dst = src
    for _ in range(tries):
        candidate = key_name(rng.randrange(key_space))
        if candidate == src:
            continue
        if (shard_map.shard_of(candidate) != home) == want_cross:
            return candidate
        if dst == src:
            dst = candidate
    return dst


def transfer_update(src, dst, delta):
    """The update function of a transfer: move ``delta`` from ``src`` to
    ``dst`` (no overdraft guard, so workloads conserve the total).  It
    is key-local and pickles, so each participant of a cross-shard
    transfer stages its own key's write, across worker processes in a
    parallel run too."""
    return Deltas(((src, -delta), (dst, delta)))


class Deltas(KeyLocal):
    """A key-local update adding each ``(key, delta)`` pair's delta to
    that key's value (absent reads as 0), for the keys it is given."""

    __slots__ = ("deltas",)

    def __init__(self, deltas):
        self.deltas = deltas

    def __call__(self, reads):
        return {key: (reads[key] or 0) + delta
                for key, delta in self.deltas if key in reads}


class Shortfall(KeyLocal):
    """A key-local veto: ``key`` holds less than ``amount`` (an
    overdraft guard reads only the debited key)."""

    __slots__ = ("key", "amount")

    def __init__(self, key, amount):
        self.key, self.amount = key, amount

    def __call__(self, reads):
        return self.key in reads and (reads[self.key] or 0) < self.amount
