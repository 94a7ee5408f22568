"""The equivalence slide: consensus ≡ atomic broadcast ≡ SMR.

The tutorial's diagram reduces atomic broadcast, state machine
replication and (non-blocking) commit problems to consensus and back.
This module realises the two textbook reductions concretely on the
library's own machinery, so the equivalences are executable:

* **Atomic broadcast from consensus** — :class:`AtomicBroadcast` feeds
  messages into a Multi-Paxos log (one consensus instance per slot) and
  delivers in log order: validity, agreement and *total order* follow
  from the log's properties.
* **Consensus from atomic broadcast** — :func:`consensus_from_broadcast`
  a-broadcasts every proposal and decides the first delivered one:
  agreement follows from total order (everyone's "first" is the same),
  validity from broadcast validity.
"""

from dataclasses import dataclass

from ..core.cluster import Cluster
from ..protocols.multipaxos import MultiPaxosClient, MultiPaxosReplica
from .checker import check_log_consistency


@dataclass
class AtomicBroadcast:
    """Atomic (total-order) broadcast built from repeated consensus.

    ``broadcast(sender, message)`` submits to the underlying replicated
    log; ``delivered()`` returns, per replica, the totally ordered
    delivery sequence.
    """

    cluster: Cluster
    replicas: list
    clients: dict

    @classmethod
    def build(cls, n_replicas=3, senders=("s1", "s2"), seed=0):
        cluster = Cluster(seed=seed)
        names = ["ab%d" % i for i in range(n_replicas)]
        replicas = cluster.add_nodes(MultiPaxosReplica, names, names)
        clients = {
            sender: cluster.add_node(MultiPaxosClient, sender, names, [])
            for sender in senders
        }
        cluster.start_all()
        return cls(cluster=cluster, replicas=replicas, clients=clients)

    def broadcast(self, sender, message):
        """A-broadcast ``message`` from ``sender`` (asynchronous)."""
        self.clients[sender].submit((sender, message))

    def run_until_delivered(self, count, horizon=3000.0):
        self.cluster.run_until(
            lambda: all(
                len(self._delivery_sequence(r)) >= count
                for r in self.replicas
            ),
            until=horizon,
        )

    @staticmethod
    def _delivery_sequence(replica):
        return [
            entry for entry in replica.state_machine.history
        ]

    def delivered(self):
        """Per-replica delivery sequences (should be prefix-identical)."""
        return [self._delivery_sequence(r) for r in self.replicas]

    def total_order_holds(self):
        return check_log_consistency(
            enumerate(sequence) for sequence in self.delivered())


def consensus_from_broadcast(proposals, n_replicas=3, seed=0, horizon=3000.0):
    """Solve one-shot consensus using only the a-broadcast primitive.

    Every proposer a-broadcasts its value; each replica decides the
    first value delivered.  Returns the per-replica decisions (which the
    reduction guarantees are identical).
    """
    senders = ["p%d" % i for i in range(len(proposals))]
    broadcast = AtomicBroadcast.build(n_replicas=n_replicas, senders=senders,
                                      seed=seed)
    for sender, value in zip(senders, proposals):
        broadcast.broadcast(sender, value)
    broadcast.run_until_delivered(1, horizon=horizon)
    decisions = []
    for sequence in broadcast.delivered():
        # Decide the first delivered proposal.
        decisions.append(sequence[0][1] if sequence else None)
    return decisions
