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
from ..core.exceptions import ConfigurationError
from ..core.quorums import hybrid_minimum_nodes
from .pbft import PbftClient, PbftReplica


class UpRightReplica(PbftReplica):
    """PBFT engine with UpRight's (m, c) quorum arithmetic."""

    def __init__(self, sim, network, name, peers, m, c,
                 state_machine_factory=None, checkpoint_interval=64):
        if len(peers) < hybrid_minimum_nodes(m, c):
            raise ConfigurationError(
                "UpRight needs n >= 3m+2c+1 (n=%d, m=%d, c=%d)"
                % (len(peers), m, c)
            )
        # Initialise the PBFT core with f=m (drives the weak-certificate
        # size m+1 used for view-change amplification), then widen the
        # quorum to 2m+c+1.
        super().__init__(sim, network, name, peers, m,
                         state_machine_factory=state_machine_factory,
                         checkpoint_interval=checkpoint_interval)
        self.m = m
        self.c = c
        self.quorum = 2 * m + c + 1

    def _config_ok(self):
        return self.n >= hybrid_minimum_nodes(self.m, self.c)


# PbftReplica's constructor enforces n >= 3f+1; with f=m and
# n = 3m+2c+1 >= 3m+1 that check always passes, so no override is needed.


class UpRightResult(RunResult):
    """What :func:`run_upright` returns."""

    def logs(self):
        return [r.executed_requests for r in self.replicas if not r.crashed]


def run_upright(cluster, m=1, c=1, operations=3, crash_indices=(),
                silent_indices=(), horizon=3000.0):
    """Drive an UpRight cluster of 3m+2c+1 replicas.

    ``crash_indices`` fail-stop at t=0; ``silent_indices`` model malicious
    replicas that participate in nothing (the strongest *denial* behaviour
    — equivocation is separately covered by the PBFT tests, and UpRight
    inherits PBFT's defences here).
    """
    n = hybrid_minimum_nodes(m, c)
    names = ["r%d" % i for i in range(n)]
    replicas = cluster.add_nodes(UpRightReplica, names, names, m, c)
    client = cluster.add_node(
        PbftClient, "c0", names,
        ["op-%d" % i for i in range(operations)], m,
    )
    for index in crash_indices:
        replicas[index].crash()
    for index in silent_indices:
        # A silent Byzantine node: drop every outbound message.
        name = replicas[index].name
        cluster.network.add_interceptor(
            lambda src, dst, msg, _name=name: False if src == _name else None
        )
    return UpRightResult.drive(cluster, replicas, [client], horizon)
