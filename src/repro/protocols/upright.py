"""UpRight (Clement et al., SOSP 2009): hybrid-fault cluster services.

The tutorial's numbers: to tolerate at most **m malicious and at most c
crash** faults simultaneously, UpRight runs **n = 3m + 2c + 1** replicas
with quorums of **u = 2m + c + 1**, which intersect in **m + 1** nodes —
at least one correct.  Setting c = 0 recovers PBFT (3m+1, 2m+1);
setting m = 0 recovers Paxos (2c+1, c+1): the formula interpolates
between the two classical regimes, which is exactly what experiment E13
sweeps.

The agreement core reuses the PBFT engine with re-parameterised quorums
(UpRight's own agreement combines Zyzzyva speculation with Aardvark
robustness; the quorum arithmetic — the reproducible claim — is
identical).
"""

from ..core.client import RunResult
from ..core.quorums import CountingQuorum, minimum_nodes
from .pbft import PbftClient, PbftReplica


class UpRightReplica(PbftReplica):
    """PBFT engine with UpRight's (m, c) quorum arithmetic."""

    def __init__(self, sim, network, name, peers, m, c,
                 state_machine_factory=None, checkpoint_interval=64):
        # The PBFT core runs with f=m: its quorums (b = m) already have
        # UpRight's size 2m+c+1 at n = 3m+2c+1, and m+1 is the weak
        # certificate for view-change amplification.  What UpRight adds
        # is the c crash faults its bound must cover.
        super().__init__(sim, network, name, peers, m,
                         state_machine_factory=state_machine_factory,
                         checkpoint_interval=checkpoint_interval)
        self.quorums = CountingQuorum.tolerating(self.peers, m + c, b=m)


class UpRightResult(RunResult):
    """What :func:`run_upright` returns."""

    def logs(self):
        return [r.executed_requests for r in self.replicas if not r.crashed]


def run_upright(cluster, m=1, c=1, operations=3, horizon=3000.0):
    """Drive an UpRight cluster of 3m+2c+1 replicas."""
    names = ["r%d" % i for i in range(minimum_nodes(m + c, b=m))]
    replicas = cluster.add_nodes(UpRightReplica, names, names, m, c)
    client = cluster.add_node(
        PbftClient, "c0", names,
        ["op-%d" % i for i in range(operations)], m,
    )
    return UpRightResult.drive(cluster, replicas, [client], horizon)
