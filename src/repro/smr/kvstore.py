"""ReplicatedKV — the library's headline public API.

A replicated key-value store that a downstream user can spin up on any
of the library's log-replication protocols in a few lines::

    from repro.smr import ReplicatedKV

    store = ReplicatedKV(n_replicas=3, protocol="multi-paxos", seed=7)
    store.put("k", "v")
    assert store.get("k") == "v"
    store.crash_leader()          # fault injection
    store.put("k2", "v2")         # still works
    assert store.check_consistency()

Under the hood each operation is a synchronous client request driven
through the discrete-event simulator until the reply arrives — i.e.
"real" protocol traffic, not a shortcut to a dict.
"""

from ..core.cluster import Cluster
from ..faults.injectors import crash_leader, live_leader
from ..scenarios import client_row
from .checker import check_log_consistency, check_state_machines
from .state_machine import KVStateMachine


class ReplicatedKV:
    """A replicated KV store over Multi-Paxos, Raft or PBFT.

    Parameters
    ----------
    n_replicas:
        Cluster size; the largest tolerable f is derived from it (PBFT:
        ``(n - 1) // 3``, so at least 4), and the replicas size their
        quorums for that n.
    protocol:
        One of ``"multi-paxos"``, ``"raft"``, ``"pbft"`` — any
        ``SCENARIOS`` row that names a client protocol.
    seed:
        Simulation seed (identical seeds replay identical histories).
    op_timeout:
        Virtual-time budget per operation before
        :class:`~repro.core.exceptions.LivenessFailure` is raised.
    """

    def __init__(self, n_replicas=3, protocol="multi-paxos", seed=0,
                 delivery=None, op_timeout=2000.0):
        row = client_row(protocol)
        f = (n_replicas - 1) // row.nodes_per_fault
        if f < 1 and row.need(n_replicas, 1) > 1:
            # A client that cross-checks replies needs a cluster big
            # enough to outvote one faulty replica.
            raise ValueError("%s needs at least %d replicas"
                             % (protocol, row.nodes_per_fault + 1))
        self.protocol = protocol
        self.cluster = Cluster(seed=seed, delivery=delivery)
        self.op_timeout = op_timeout
        names = ["kv%d" % i for i in range(n_replicas)]
        self.replicas = self.cluster.add_nodes(
            row.replica, names, *row.replica_args(names, f),
            state_machine_factory=KVStateMachine)
        self._client = self.cluster.add_node(row.client, "kvclient", names,
                                             [], f)
        self.cluster.start_all()

    # -- synchronous operations ------------------------------------------------

    def execute(self, command):
        """Run one command through the replication protocol and return
        the state machine's result."""
        return self._client.call(tuple(command), self.op_timeout)

    def put(self, key, value):
        """Replicated write; returns the previous value."""
        return self.execute(("put", key, value))

    def get(self, key):
        """Linearizable read (ordered through the log like any command)."""
        return self.execute(("get", key))

    def delete(self, key):
        return self.execute(("delete", key))

    def incr(self, key, amount=1):
        return self.execute(("incr", key, amount))

    # -- fault injection ----------------------------------------------------------

    def crash_leader(self):
        """Crash the current leader/primary; returns its name (or None)."""
        return crash_leader(self.replicas)

    def crash_replica(self, index):
        self.replicas[index].crash()

    def restart_replica(self, index):
        self.replicas[index].restart()

    def _current_leader(self):
        return live_leader(self.replicas)

    # -- verification ---------------------------------------------------------------

    def logs(self):
        """Per-replica committed logs as (index, command) lists."""
        out = []
        for replica in self.replicas:
            if hasattr(replica, "committed_log"):
                out.append(replica.committed_log())
            else:
                out.append(list(replica.executed_requests))
        return out

    def check_consistency(self):
        """True iff no two replicas conflict on any committed position and
        equally-advanced state machines hold identical state."""
        if not check_log_consistency(self.logs()):
            return False
        machines = [r.state_machine for r in self.replicas if not r.crashed]
        return check_state_machines(machines)

    def settle(self, duration=50.0):
        """Let in-flight traffic drain (e.g. before a consistency check)."""
        self.cluster.sim.run_for(duration)
