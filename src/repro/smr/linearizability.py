"""Linearizability checking for client-observed histories.

The consistency checks elsewhere compare *replica* state; this module
checks the *client-visible* contract: every completed operation appears
to take effect atomically at some instant between its invocation and its
response (Herlihy & Wing).  It is the library's Jepsen/Knossos analogue,
scaled to the simulator's small histories.

The checker is the classic Wing–Gong search: repeatedly pick a pending
operation that is *minimal* (no other pending operation completed before
it was invoked), apply it to a fresh model, and recurse; memoisation on
(remaining-ops, model-state) keeps small histories fast.  Exponential in
the worst case — use histories of tens of operations, not thousands.
"""

from dataclasses import dataclass

from ..crypto.hashing import sha256_hex
from .state_machine import KVStateMachine


@dataclass(frozen=True)
class Operation:
    """One client-observed operation with its real-time window."""

    client: str
    command: tuple
    result: object
    invoked_at: float
    completed_at: float

    def __post_init__(self):
        if self.completed_at < self.invoked_at:
            raise ValueError("operation completed before invocation")


def check_linearizable(history, model_factory=KVStateMachine):
    """Is ``history`` linearizable with respect to the model?

    Parameters
    ----------
    history:
        Iterable of :class:`Operation`.
    model_factory:
        Builds the sequential specification; must expose
        ``apply(command) -> result`` and ``snapshot()``.

    Returns True iff some linearization exists that respects both the
    real-time partial order and the model's sequential semantics.
    """
    ops = tuple(sorted(history, key=lambda op: op.invoked_at))
    if not ops:
        return True
    seen = set()

    def replay(commands):
        model = model_factory()
        for command in commands:
            model.apply(command)
        return model

    def search(remaining, applied_commands):
        if not remaining:
            return True
        key = (remaining, sha256_hex(list(applied_commands)))
        if key in seen:
            return False
        seen.add(key)
        min_completion = min(ops[i].completed_at for i in remaining)
        for index in remaining:
            op = ops[index]
            # Minimality: nothing still pending finished before this
            # op was even invoked.
            if op.invoked_at > min_completion:
                continue
            model = replay(applied_commands)
            if model.apply(op.command) != op.result:
                continue
            next_remaining = tuple(i for i in remaining if i != index)
            if search(next_remaining, applied_commands + (op.command,)):
                return True
        seen.add(key)
        return False

    return search(tuple(range(len(ops))), ())


# -- history recording against live clusters -----------------------------------


def record_concurrent_history(cluster, replica_names, client_commands,
                              horizon=4000.0):
    """Run concurrent recording clients against a Multi-Paxos cluster and
    return the combined :class:`Operation` history.

    ``client_commands`` maps client name -> list of commands.  Each
    client is closed-loop (one outstanding op), but different clients
    overlap freely — which is where linearizability gets interesting.
    """
    from ..protocols.multipaxos import MultiPaxosClient

    class RecordingClient(MultiPaxosClient):
        """MultiPaxosClient that captures invocation/response windows."""

        def __init__(self, sim, network, name, replicas, commands):
            super().__init__(sim, network, name, replicas, commands)
            self.history = []

        def handle_clientreply(self, msg, src):
            index = self._next
            # First transmission is the invocation; retries don't move it.
            invoked_at = self._sent_at
            super().handle_clientreply(msg, src)
            if self._next != index:
                self.history.append(Operation(
                    client=self.name,
                    command=tuple(self.commands[index]),
                    result=self.results[index],
                    invoked_at=invoked_at,
                    completed_at=self.sim.now,
                ))

    clients = [
        cluster.add_node(RecordingClient, name, list(replica_names),
                         [tuple(c) for c in commands])
        for name, commands in sorted(client_commands.items())
    ]
    cluster.start_all()  # replicas (leader election) + any stragglers
    for client in clients:
        client.start()
    cluster.run_until(lambda: all(c.done for c in clients), until=horizon)
    history = []
    for client in clients:
        history.extend(client.history)
    return history
