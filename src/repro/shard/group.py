"""One shard = one consensus group, protocol-agnostic.

:class:`ShardGroup` wraps a :class:`~repro.core.cluster.ClusterGroup`
(the namespace ``<gid>/<local>`` on the shared simulator/network) with
the protocol-specific knowledge a shard consumer needs: how to build a
replica, how to phrase a client request to it, and how to recognise its
leader.  Multi-Paxos and Raft groups expose the identical surface, so a
fleet can mix them — the point of the SMR abstraction the paper keeps
returning to: *any* log-replication protocol underneath, same shard on
top.
"""

from ..faults.injectors import live_leader
from ..scenarios import client_row
from ..smr import check_log_consistency, check_state_machines
from .state import ShardKVStateMachine


class ShardGroup:
    """A replica group owning one shard of the keyspace.

    Parameters
    ----------
    cluster:
        The shared :class:`~repro.core.Cluster` (fleet host).
    gid:
        Shard/group id; becomes the node-name namespace (``s0/r2``).
    n_replicas:
        Replication factor (2f+1 for f crash faults).
    protocol:
        ``"multi-paxos"`` or ``"raft"`` — a ``SCENARIOS`` row whose
        client protocol redirects to the leader, which is what the
        transaction coordinator chases.
    """

    def __init__(self, cluster, gid, n_replicas, protocol="multi-paxos"):
        row = self._row = client_row(protocol)
        if row.redirect is None:
            raise ValueError("shard protocol %r has no leader redirect"
                             % (protocol,))
        self.cluster = cluster
        self.gid = str(gid)
        self.protocol = protocol
        self.group = cluster.group(self.gid)
        local_names = ["r%d" % i for i in range(n_replicas)]
        peers = [self.group.member(name) for name in local_names]
        f = (n_replicas - 1) // row.nodes_per_fault
        self.replicas = self.group.add_nodes(
            row.replica, local_names, *row.replica_args(peers, f),
            state_machine_factory=ShardKVStateMachine)
        #: Fleet-wide replica names (what coordinators address).
        self.members = tuple(replica.name for replica in self.replicas)

    # -- protocol surface ---------------------------------------------------

    def request(self, command, request_id):
        """A client-request message replicating ``command`` here."""
        return self._row.request(request_id, command)

    def leader(self):
        """The live leader replica, or ``None`` mid-election."""
        return live_leader(self.replicas)

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        self.group.start_all()
        return self

    def attach_monitors(self, f=0):
        """This protocol's monitor battery, scoped to this group."""
        return self.group.attach_monitors(self.protocol, f=f)

    # -- introspection ------------------------------------------------------

    def machines(self, live_only=True):
        return [replica.state_machine for replica in self.replicas
                if not (live_only and replica.crashed)]

    def stats(self):
        """Deterministic progress summary, read off the most advanced
        replica (live ones first)."""
        machines = self.machines(live_only=True) or \
            self.machines(live_only=False)
        best = max(machines, key=lambda sm: sm.ops_applied)
        return {
            "protocol": self.protocol,
            "ops_applied": best.ops_applied,
            "commits": best.commits,
            "fast_applies": best.fast_applies,
            "keys": len(best.data),
        }

    def committed_logs(self):
        return [replica.committed_log() for replica in self.replicas]

    def check_consistency(self):
        """Replicas agree on the log and on state at equal progress."""
        if not check_log_consistency(self.committed_logs()):
            return False
        return check_state_machines(self.machines())

    def __repr__(self):
        return "ShardGroup(%r, %s, %d replicas)" % (
            self.gid, self.protocol, len(self.replicas))
