"""Three ways around FLP, demonstrated.

FLP: no deterministic consensus tolerates even one crash in an
asynchronous system.  The tutorial lists the escapes; this example runs
all three on the same adversarial network (unbounded exponential delays
with heavy tails, one crashed process):

1. **sacrifice determinism** — Ben-Or's randomized consensus,
2. **add synchrony** — partially-synchronous Paxos (bounded delays
   after GST),
3. **add an oracle** — Chandra–Toueg with a heartbeat failure detector.

Run:  python examples/flp_tour.py
"""

from repro.core import Cluster
from repro.faults import FaultPlan
from repro.net import AsynchronousModel, PartialSynchronyModel
from repro.protocols.benor import run_benor
from repro.protocols.chandra_toueg import run_chandra_toueg
from repro.protocols.paxos import RandomizedBackoff, run_basic_paxos

ADVERSARIAL = dict(mean=1.5, tail_prob=0.12, tail_factor=25.0)


def escape_one_randomization():
    print("== escape 1: sacrifice determinism (Ben-Or) ==")
    rounds = []
    for seed in range(8):
        cluster = Cluster(seed=seed, delivery=AsynchronousModel(**ADVERSARIAL))
        FaultPlan(cluster).crash_at(0.0, "p4")
        result = run_benor(cluster, n=5, f=1)
        assert result.agreement() and result.all_decided()
        rounds.append(result.max_round())
    print("  8/8 adversarial runs decided; rounds-to-decide:", sorted(rounds))
    print("  (termination with probability 1 — the coin breaks symmetry)\n")


def escape_two_synchrony():
    print("== escape 2: add a synchrony assumption (Paxos after GST) ==")
    cluster = Cluster(
        seed=3,
        delivery=PartialSynchronyModel(
            gst=40.0, pre=AsynchronousModel(**ADVERSARIAL),
            post_low=0.5, post_high=1.0,
        ),
    )
    FaultPlan(cluster).crash_at(0.0, "a0")
    result = run_basic_paxos(cluster, n_acceptors=5, proposals=("X", "Y"),
                             retry=RandomizedBackoff(), stagger=1.0,
                             horizon=400.0)
    print("  GST at t=40; decided %r at t=%.1f after %d rounds"
          % (result.value, result.decided_at, result.rounds))
    print("  (chaos before GST costs rounds; bounded delays after GST"
          " guarantee progress)\n")


def escape_three_oracle():
    print("== escape 3: add an oracle (Chandra-Toueg + failure detector) ==")
    cluster = Cluster(seed=5, delivery=AsynchronousModel(**ADVERSARIAL))
    FaultPlan(cluster).crash_at(0.0, "ct1")
    result = run_chandra_toueg(cluster, n=5, f=2)
    detectors = [p.detector.false_suspicions for p in result.processes
                 if not p.crashed]
    print("  decided:", sorted(set(result.decided_values())),
          "| false suspicions healed:", sum(detectors))
    print("  (the detector may be wrong — that only costs rounds, never"
          " agreement)")


def main():
    escape_one_randomization()
    escape_two_synchrony()
    escape_three_oracle()


if __name__ == "__main__":
    main()
