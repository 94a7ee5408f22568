"""A Chubby-style distributed lock service on Multi-Paxos.

The tutorial's Google Bigtable slide: "a persistent and distributed
lock service — consists of 5 replicas — uses Paxos to keep copies
consistent."  This module is that service: named locks with
session-scoped leases, replicated as state-machine commands so every
replica agrees on who holds what, and lease expiry so a crashed client
cannot hold a lock forever.

Determinism note: lease arithmetic uses timestamps carried *inside* the
replicated commands (stamped by the proposer at submission), so every
replica computes identical expiry decisions from the identical log —
never from its local clock.
"""


from ..core.cluster import Cluster
from ..faults.injectors import crash_leader
from ..protocols.multipaxos import MultiPaxosClient, MultiPaxosReplica

DEFAULT_LEASE = 30.0


class LockStateMachine:
    """Replicated lock table with leases.

    Commands:

    * ``("acquire", lock, session, now, lease)`` → True if granted
      (free, already held by this session, or the holder's lease
      expired), else False.
    * ``("release", lock, session, now)`` → True if this session held it.
    * ``("keepalive", session, now, lease)`` → extends every lock held
      by the session; returns the count refreshed.
    * ``("holder", lock, now)`` → current live holder or None.
    """

    def __init__(self):
        self.locks = {}  # lock -> (session, expires_at)
        self.ops_applied = 0

    def apply(self, command):
        op = command[0]
        handler = getattr(self, "_op_%s" % op, None)
        if handler is None:
            raise ValueError("unknown operation %r" % (op,))
        self.ops_applied += 1
        return handler(*command[1:])

    def _live_holder(self, lock, now):
        entry = self.locks.get(lock)
        if entry is None:
            return None
        session, expires_at = entry
        if expires_at <= now:
            return None  # lease ran out; lock is free
        return session

    def _op_acquire(self, lock, session, now, lease):
        holder = self._live_holder(lock, now)
        if holder is None or holder == session:
            self.locks[lock] = (session, now + lease)
            return True
        return False

    def _op_release(self, lock, session, now):
        if self._live_holder(lock, now) == session:
            del self.locks[lock]
            return True
        return False

    def _op_keepalive(self, session, now, lease):
        refreshed = 0
        for lock, (holder, _expires) in list(self.locks.items()):
            if holder == session:
                self.locks[lock] = (session, now + lease)
                refreshed += 1
        return refreshed

    def _op_holder(self, lock, now):
        return self._live_holder(lock, now)

    def snapshot(self):
        return dict(self.locks)


class LockService:
    """The public API: a five-replica (by default) Paxos lock service.

    Sessions are just string names; the *caller* decides when a session
    keeps its leases alive — a session that stops calling
    :meth:`keepalive` loses its locks after ``lease`` time units, which
    is exactly how a crashed Bigtable master loses its mastership lock.
    """

    def __init__(self, n_replicas=5, seed=0, lease=DEFAULT_LEASE,
                 delivery=None, op_timeout=2000.0):
        self.cluster = Cluster(seed=seed, delivery=delivery)
        self.lease = lease
        self.op_timeout = op_timeout
        names = ["lock%d" % i for i in range(n_replicas)]
        self.replicas = self.cluster.add_nodes(
            MultiPaxosReplica, names, names,
            state_machine_factory=LockStateMachine,
        )
        self._client = self.cluster.add_node(
            MultiPaxosClient, "lockclient", names, []
        )
        self.cluster.start_all()

    # -- command plumbing -----------------------------------------------------------

    def _execute(self, command):
        return self._client.call(tuple(command), self.op_timeout)

    # -- public ------------------------------------------------------------------------

    def acquire(self, lock, session):
        """Try to take ``lock`` for ``session``; True iff granted."""
        return self._execute(("acquire", lock, session, self.cluster.now,
                              self.lease))

    def release(self, lock, session):
        return self._execute(("release", lock, session, self.cluster.now))

    def keepalive(self, session):
        """Refresh every lease held by ``session``."""
        return self._execute(("keepalive", session, self.cluster.now,
                              self.lease))

    def holder(self, lock):
        """The live holder of ``lock`` (lease-checked), or None."""
        return self._execute(("holder", lock, self.cluster.now))

    def advance_time(self, duration):
        """Let virtual time pass (e.g. to let a lease expire)."""
        self.cluster.sim.run_for(duration)

    def crash_leader(self):
        return crash_leader(self.replicas)

    def check_consistency(self):
        from .checker import check_log_consistency
        return check_log_consistency(
            [r.committed_log() for r in self.replicas]
        )
