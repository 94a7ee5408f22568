"""One scenario table: how to run each protocol, written once.

The paper's contribution is one uniform property box per protocol;
this module is the executable half of that box.  Every consumer that
needs "one small run of protocol X" — ``repro run/trace/stats/spans/
profile/sweep``, ``repro check`` (:func:`repro.monitor.run_check`) and
``examples/protocol_tour.py`` — looks the protocol up in
:data:`SCENARIOS` and calls :meth:`Scenario.run`.  Adding a protocol is
three rows keyed by its name: one here, its property box in
``repro.analysis.claims.PAPER_TABLE`` (the only place the box is
written) and its ``MONITOR_SPECS`` entry.  ``monitor/specs.py`` refuses
to import when the last two name different protocols, and
``tests/test_scenarios.py`` holds this table to the same list.

Rows stay cheap to import: the protocol's entry point is a
``"module:function"`` string resolved on first use, so listing the
table never imports twenty protocol modules.
"""

from dataclasses import dataclass, field
from functools import reduce
from importlib import import_module

from .analysis.claims import PaperClaim, claim_for
from .faults import FaultPlan

__all__ = ["SCENARIOS", "Scenario", "client_row", "fleet_summary"]


def _load(path):
    module, _, attr = path.partition(":")
    return reduce(getattr, attr.split("."), import_module(module))


@dataclass(frozen=True)
class Scenario:
    """One protocol's smoke-scale run (a check is not a benchmark)."""

    name: str
    #: ``"module:function"``; called as ``function(cluster, **kwargs)``.
    entry: str
    #: Cluster size and tolerated faults the kwargs below produce — what
    #: the monitor battery is built for and the report echoes.
    n: int
    f: int
    #: Result -> one-line outcome.  The wording is part of the
    #: conformance goldens (``report["summary"]``).
    summary: object
    kwargs: dict = field(default_factory=dict)
    #: Fault kind -> a tuple of ``(at, action, *args)`` rows one
    #: :class:`~repro.faults.FaultPlan` applies before the entry runs, or
    #: entry kwargs where the fault is a node class (a dict, or a
    #: zero-argument callable returning one when a value lives in the
    #: lazily loaded module).
    faults: dict = field(default_factory=dict)
    #: The fault kind ``repro run`` and its siblings inject, so the demo
    #: shows the protocol surviving what it claims to survive.
    demo_faults: str = None
    #: A separate ``function(cluster) -> summary`` demo body, for the one
    #: row (shards) whose demo is not its check scenario.
    demo_entry: str = None
    #: Set on fleet compositions, which have no paper row: the property
    #: box synthesized from how the composition is built.  A fleet
    #: attaches per-group monitor batteries itself.
    fleet_claim: PaperClaim = None
    #: ``"module:ROW"``: the :class:`~repro.core.client.ClientProtocol`
    #: row, where fleets are built from it (``repro loadtest``,
    #: ``ReplicatedKV``, shard groups).
    client: str = None

    def run(self, cluster, faults=None):
        """Run the scenario on ``cluster`` with one fault kind (or none)
        and return its summary line.  A cluster built with
        ``monitors=True`` gets the protocol's battery attached first.
        Raises ``ValueError`` for a fault kind the row does not list."""
        extra = {}
        if faults is not None:
            if faults not in self.faults:
                raise ValueError("protocol %r supports fault kinds: %s"
                                 % (self.name,
                                    ", ".join(self.faults) or "none"))
            extra = self.faults[faults]
            if callable(extra):
                extra = extra()
            if isinstance(extra, tuple):
                FaultPlan(cluster).apply(extra)
                extra = {}
        from .monitor import NULL_HUB  # repro.monitor imports this module
        if cluster.monitors is not NULL_HUB and self.fleet_claim is None:
            cluster.attach_monitors(self.name, self.n, self.f)
        result = _load(self.entry)(cluster, **{**self.kwargs, **extra})
        return self.summary(result)

    def demo(self, cluster):
        """What ``repro run <name>`` shows; returns the summary line."""
        if self.demo_entry is not None:
            return _load(self.demo_entry)(cluster)
        return self.run(cluster, self.demo_faults)

    @property
    def demo_label(self):
        """The demo's heading: the name, plus the injected fault kind."""
        if self.demo_faults is not None:
            return "%s (faults %s)" % (self.name, self.demo_faults)
        return self.name

    def claim(self):
        """The property box: the paper's row, or the synthesized one."""
        return self.fleet_claim or claim_for(self.name)


# -- the sharded fleet: the one row with two bodies --------------------------

def _demo_fleet(cluster):
    from .shard import ShardedCluster
    return ShardedCluster(n_shards=2, replicas=3, partitioning="range",
                          key_space=16, cluster=cluster)


def shard_workloads(cluster):
    """The check scenario: two transfer workloads over a 2x3 fleet."""
    sharded = _demo_fleet(cluster)
    segments = [sharded.run_workload(txns=6, cross_ratio=0.5)
                for _ in range(2)]
    sharded.settle()
    return fleet_summary(segments, sharded.check_consistency())


def shard_transfer_demo(cluster):
    """The demo (and the ``shards_seed0.*`` goldens): two puts and one
    cross-shard transfer, i.e. exactly one walk down the full 2PC path,
    run on past the reply until the commit round has closed."""
    from .shard.layout import transfer_update
    sharded = _demo_fleet(cluster)
    a, b = sharded.key(2), sharded.key(10)  # one key on each shard
    sharded.put(a, 100)
    sharded.put(b, 10)
    txn = sharded.run_transaction((a, b), transfer_update(a, b, 30))
    sharded.cluster.run_until(lambda: sharded.coordinator.settled(txn),
                              until=sharded.now + sharded.op_timeout)
    stats = sharded.stats()
    return ("2 shards x 3 replicas: cross-shard transfer %s; "
            "%d commits (%d fast-path)"
            % (txn.outcome, stats["commits"], stats["fast_commits"]))


def fleet_summary(segments, consistent):
    """The fleet check's summary line, from ``run_workload`` summaries
    (sequential) or the merged driver segments (parallel) alike."""
    return ("%d/%d committed (%d cross-shard); per-shard consistent=%s"
            % (sum(seg["committed"] for seg in segments),
               sum(seg["txns"] for seg in segments),
               sum(seg["cross_shard"] for seg in segments), consistent))


# -- the table ---------------------------------------------------------------

def _logs_consistent(prefix):
    return lambda result: "%s; logs consistent=%s" % (
        prefix, result.logs_consistent())


def _atomic(result):
    return "atomic=%s" % result.atomic()


def _fork_stats(result):
    height, abandoned, rate = result.fork_stats()
    return "height=%d abandoned=%d fork-rate=%.1f%%" % (height, abandoned,
                                                        100 * rate)


def _pbft_primary(name):
    return lambda: {"primary_class": _load("repro.protocols.pbft:" + name)}


def _cut_off_leader(at, until):
    """Rows dropping everything to and from whoever leads at ``at``,
    until ``until``."""
    return ((at, "drop", "leader", None, None, until),
            (at, "drop", None, "leader", None, until))


#: Paper-table order, fleet compositions last — the order ``repro check
#: --all`` walks.
SCENARIOS = {scenario.name: scenario for scenario in (
    Scenario(
        "paxos", "repro.protocols.paxos:run_basic_paxos", 5, 2,
        lambda r: "decided %r in %d proposer round(s)" % (r.value,
                                                          r.rounds),
        {"n_acceptors": 5, "proposals": ("X", "Y"), "stagger": 1.0},
        faults={"crash": ((0.0, "crash", "a4"),)}),
    Scenario(
        "multi-paxos", "repro.protocols.multipaxos:run_multipaxos", 5, 2,
        _logs_consistent("5 commands"),
        {"n_replicas": 5, "commands_per_client": 5},
        # Mid-run: the fault-free run ends by t=25, so a later row never
        # fires (``tests/test_scenarios.py`` counts that it does).
        faults={"crash": ((10.0, "crash", "leader"),),
                "partition": _cut_off_leader(8.0, 40.0)},
        client="repro.protocols.multipaxos:CLIENT"),
    Scenario(
        "raft", "repro.protocols.raft:run_raft", 5, 2,
        _logs_consistent("5 commands"),
        {"n_nodes": 5, "commands_per_client": 5},
        # Every seed has elected a leader by t=20 (seed 11 at t=18).
        faults={"crash": ((20.0, "crash", "leader"),),
                "partition": _cut_off_leader(20.0, 60.0)},
        demo_faults="crash", client="repro.protocols.raft:CLIENT"),
    Scenario(
        "fast-paxos", "repro.protocols.fast_paxos:run_fast_paxos", 4, 1,
        lambda r: "decided %r (collision=%s)" % (r.decided, r.collision),
        {"f": 1, "values": ("X",)}),
    Scenario(
        "flexible-paxos",
        "repro.protocols.flexible_paxos:run_flexible_paxos", 6, 2,
        lambda r: "decided %r with |Q1|=%d |Q2|=%d" % (
            r.value, r.proposers[0].quorums.q1, r.proposers[0].quorums.q2),
        {"n_acceptors": 6, "proposals": ("X",)}),
    Scenario(
        "2pc", "repro.protocols.commit:run_commit", 4, 0, _atomic,
        {"protocol": "2pc", "n_cohorts": 3}),
    Scenario(
        "3pc", "repro.protocols.commit:run_commit", 4, 0, _atomic,
        {"protocol": "3pc", "n_cohorts": 3}),
    Scenario(
        "pbft", "repro.protocols.pbft:run_pbft", 4, 1,
        _logs_consistent("3 ops"),
        {"f": 1, "operations_per_client": 3},
        faults={"equivocate": _pbft_primary("EquivocatingPrimary"),
                "silent": _pbft_primary("SilentPrimary"),
                "crash": ((5.0, "crash", "r0"),)},
        demo_faults="equivocate", client="repro.protocols.pbft:CLIENT"),
    Scenario(
        "zyzzyva", "repro.protocols.zyzzyva:run_zyzzyva", 4, 1,
        lambda r: "3 ops (%d fast-path, %d slow-path)" % r.case_counts(),
        {"f": 1, "operations": 3}),
    Scenario(
        "hotstuff", "repro.protocols.hotstuff:run_chained_hotstuff", 4, 1,
        lambda r: "6 commands; prefix consistent=%s" % r.logs_consistent(),
        {"f": 1, "commands": 6}),
    Scenario(
        "minbft", "repro.protocols.minbft:run_minbft", 3, 1,
        _logs_consistent("3 ops"), {"f": 1, "operations": 3}),
    Scenario(
        "cheapbft", "repro.protocols.cheapbft:run_cheapbft", 3, 1,
        _logs_consistent("3 ops"), {"f": 1, "operations": 3}),
    # UpRight and SeeMoRe: n = 3m+2c+1 with m=1, c=1, tolerating m+c.
    Scenario(
        "upright", "repro.protocols.upright:run_upright", 6, 2,
        _logs_consistent("3 ops"), {"m": 1, "c": 1, "operations": 3}),
    Scenario(
        "seemore", "repro.protocols.seemore:run_seemore", 6, 2,
        _logs_consistent("3 ops (mode 3)"),
        {"mode": 3, "m": 1, "c": 1, "operations": 3}),
    Scenario(
        "xft", "repro.protocols.xft:run_xft", 3, 1,
        _logs_consistent("3 ops"), {"f": 1, "operations": 3}),
    Scenario(
        "ben-or", "repro.protocols.benor:run_benor", 5, 1,
        lambda r: "agreement=%s in <=%s round(s)" % (r.agreement(),
                                                     r.max_round()),
        {"n": 5, "f": 1},
        faults={"crash": ((0.0, "crash", "p4"),)}, demo_faults="crash"),
    Scenario(
        "interactive-consistency",
        "repro.protocols.interactive_consistency:"
        "run_interactive_consistency", 4, 1,
        lambda r: "vector agreement=%s" % r.agreement(),
        {"n": 4, "faulty": ()},
        faults={"byzantine": {"faulty": (2,)}}),
    Scenario(
        "pow", "repro.blockchain:run_mining_network", 4, 0, _fork_stats,
        {"hashrates": (600.0, 200.0, 100.0, 100.0),
         "target_block_time": 30.0, "duration": 2000.0}),
    Scenario(
        "tendermint", "repro.protocols.tendermint:run_tendermint", 4, 1,
        lambda r: "4 blocks; chains consistent=%s" % r.chains_consistent(),
        {"f": 1, "heights": 4},
        faults={"silent": {"silent_indices": (0,)}}),
    Scenario(
        "chandra-toueg",
        "repro.protocols.chandra_toueg:run_chandra_toueg", 5, 2,
        lambda r: "agreement=%s" % r.agreement(),
        {"n": 5, "f": 2},
        faults={"crash": ((0.0, "crash", "ct1"),)}, demo_faults="crash"),
    # Two groups of three replicas; f is per group, (replicas - 1) // 2.
    Scenario(
        "shards", "repro.scenarios:shard_workloads", 6, 1, str,
        # Under load at every CI seed: the two workloads run from t=10
        # to t=36 (seed 7) .. t=73 (seed 1).
        faults={"crash": ((25.0, "crash", "s1/follower"),)},
        demo_entry="repro.scenarios:shard_transfer_demo",
        fleet_claim=PaperClaim(
            "shards", "crash (per group)", "G x (2f+1)",
            "2PC over per-group consensus", "O(G*n) per cross-shard txn",
            "partially-synchronous", "pessimistic", "known")),
)}


def client_row(protocol):
    """``protocol``'s :class:`~repro.core.client.ClientProtocol` row;
    ``ValueError`` naming the choices when there is none."""
    scenario = SCENARIOS.get(protocol)
    if scenario is None or scenario.client is None:
        raise ValueError("no client protocol for %r (choices: %s)" % (
            protocol, ", ".join(name for name, row in SCENARIOS.items()
                                if row.client is not None)))
    return _load(scenario.client)
