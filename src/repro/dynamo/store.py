"""EventualKV — the optimistic counterpart of ReplicatedKV.

The DynamoDB slide as a public API: leaderless replicas, tunable
(N, R, W) quorums, vector-clock versioning with sibling surfacing,
read repair and anti-entropy gossip.

::

    store = EventualKV(n_replicas=5, r=2, w=2, seed=1)
    ctx = store.put("cart", ["milk"])           # quorum write
    value, ctx = store.get("cart")              # quorum read + context
    store.put("cart", value + ["eggs"], context=ctx)

Contrast with :class:`~repro.smr.ReplicatedKV`: no consensus, no
leader — writes never block on agreement, at the price of windows where
reads can be stale (R + W <= N) and concurrent blind writes produce
siblings the caller must reconcile.
"""

from ..core.cluster import Cluster
from ..core.exceptions import LivenessFailure
from .node import DynamoCoordinator, DynamoReplica
from .versioning import VectorClock, last_writer_wins


class EventualKV:
    """An eventually consistent replicated KV store.

    Parameters
    ----------
    n_replicas:
        Total replicas (each key's preference list uses ``n`` of them).
    n, r, w:
        Dynamo's tunables: replication factor, read quorum, write quorum.
    gossip_interval:
        Anti-entropy period (0 disables background convergence).
    """

    def __init__(self, n_replicas=5, n=3, r=2, w=2, seed=0, delivery=None,
                 gossip_interval=10.0, op_timeout=500.0, n_coordinators=1):
        self.cluster = Cluster(seed=seed, delivery=delivery)
        self.op_timeout = op_timeout
        names = ["d%d" % i for i in range(n_replicas)]
        self.replicas = self.cluster.add_nodes(
            DynamoReplica, names, names, gossip_interval=gossip_interval
        )
        self.coordinators = [
            self.cluster.add_node(
                DynamoCoordinator, "dyn-coord%d" % i, names, n=n, r=r, w=w
            )
            for i in range(n_coordinators)
        ]
        self.coordinator = self.coordinators[0]
        self.cluster.start_all()

    # -- synchronous surface ---------------------------------------------------

    def put(self, key, value, context=None, via=0):
        """Quorum write (through coordinator ``via``); returns the
        write's vector clock (the context for a causal successor)."""
        outcome = []
        self.coordinators[via].put(key, value, context=context,
                                   callback=outcome.append)
        self._wait(outcome, ("put", key))
        return outcome[0].clock

    def get(self, key, via=0):
        """Quorum read.  Returns ``(value, context)`` where ``value`` is
        the LWW-resolved value (None if unwritten) and ``context`` the
        merged clock.  Use :meth:`get_siblings` to see divergence."""
        versions = self.get_siblings(key, via=via)
        if not versions:
            return None, VectorClock()
        resolved = last_writer_wins(versions)
        merged = resolved.clock
        for version in versions:
            merged = merged.merge(version.clock)
        return resolved.value, merged

    def get_siblings(self, key, via=0):
        """Quorum read returning the full version frontier (concurrent
        writes appear as multiple siblings)."""
        outcome = []
        self.coordinators[via].get(key, callback=outcome.append)
        self._wait(outcome, ("get", key))
        return outcome[0]

    def _wait(self, outcome, label):
        deadline = self.cluster.now + self.op_timeout
        self.cluster.run_until(lambda: bool(outcome), until=deadline)
        if not outcome:
            raise LivenessFailure("dynamo op %r timed out" % (label,))

    # -- operational -------------------------------------------------------------

    def settle(self, duration=100.0):
        """Let anti-entropy gossip run (convergence time)."""
        self.cluster.sim.run_for(duration)

    def partition(self, *groups):
        """Partition replicas; all coordinators ride with the first group."""
        group_lists = [list(group) for group in groups]
        group_lists[0].extend(c.name for c in self.coordinators)
        self.cluster.network.partitions.split(*group_lists)

    def heal(self):
        self.cluster.network.partitions.heal()

    def crash_replica(self, index):
        self.replicas[index].crash()

    def converged(self, key):
        """Do all live replicas in the key's preference list agree?"""
        names = set(self.coordinator.preference_list(key))
        frontiers = [
            tuple(replica.store.get(key, ()))
            for replica in self.replicas
            if replica.name in names and not replica.crashed
        ]
        return all(frontier == frontiers[0] for frontier in frontiers)
