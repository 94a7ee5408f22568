"""Per-protocol monitor specs for every row of ``PAPER_TABLE``.

A :class:`MonitorSpec` says which monitors apply to a protocol and with
which keys: where its decisions show up in the trace (milestone labels,
slot/value detail keys), what certifies them, which message types are
proposals that could equivocate, and the claimed phase alphabet.  The
complexity envelope's exponent is not restated here: it is read off the
O(N)/O(N²) column of the protocol's ``PAPER_TABLE`` row.

Depth varies with instrumentation: the protocols the test suite drives
hardest (paxos, multi-paxos, raft, pbft, hotstuff, tendermint, ben-or,
chandra-toueg) emit decide/lead milestones and get the full battery;
protocols that only mark phases get the phase-conformance monitor; a
few (pow, upright, interactive-consistency) currently expose nothing a
generic monitor can watch and carry an empty spec so ``repro check``
can still enumerate the whole table.
"""

from dataclasses import dataclass

from ..analysis.claims import claim_for
from ..scenarios import _load
from .library import (
    AgreementMonitor,
    ComplexityEnvelopeMonitor,
    EquivocationMonitor,
    LeaderUniquenessMonitor,
    LivenessWatchdog,
    PhaseConformanceMonitor,
    QuorumCertificateMonitor,
)


@dataclass(frozen=True)
class CertSpec:
    """Quorum-certificate requirement: a phase-2 quorum of distinct
    ``ack_mtype`` deliveries matching ``link_keys`` before each
    ``decide_label`` milestone.

    ``quorum`` names, as ``"module:attr"``, the ``(members, f)`` factory
    the protocol's own replicas build their quorums with, so the monitor
    counts what they count.  ``own_vote_silent`` marks a decider whose
    own ack is counted but never sent (PBFT's own commit): one delivery
    fewer certifies.
    """

    decide_label: str
    ack_mtype: str
    link_keys: tuple
    quorum: str
    own_vote_silent: bool = False

    def need(self, n, f):
        """Ack deliveries that certify a decision on ``n`` nodes."""
        silent = 1 if self.own_vote_silent else 0
        return _load(self.quorum)(range(n), f).phase2_size() - silent


@dataclass(frozen=True)
class MonitorSpec:
    """Everything needed to build a protocol's monitor battery."""

    protocol: str
    #: Milestone labels that constitute a decision (agreement + liveness).
    decide_labels: tuple = ()
    #: Detail key identifying the decision slot; None = single-decree.
    slot_key: str = None
    #: Detail key carrying the decided value.
    value_key: str = "value"
    #: Epoch detail key on ``lead`` milestones (ballot/term/view);
    #: None = no leader-uniqueness monitor.
    lead_epoch_key: str = None
    cert: CertSpec = None
    #: Proposal message types watched for equivocation.
    proposal_mtypes: tuple = ()
    proposal_epoch_keys: tuple = ()
    proposal_slot_key: str = None
    #: ``mark_phase`` protocol labels this spec owns.
    phase_protocols: tuple = ()
    expected_phases: tuple = ()
    #: Fault-handling phases outside the steady-state claim.
    exceptional_phases: tuple = ()
    require_all_phases: bool = True
    #: Phases that taint a complexity window (default: the exceptional
    #: ones) — e.g. multi-paxos "prepare" is claimed but not steady-state.
    window_tainting_phases: tuple = None
    #: Slack on the complexity envelope every row with ``decide_labels``
    #: gets; its exponent is the power of N in ``claim().complexity``.
    complexity_factor: float = 16.0
    stall_horizon_events: int = 4000

    def claim(self):
        return claim_for(self.protocol)


#: True on battery-plan rows built only for fleet-wide (unscoped)
#: batteries: phase marks and the transport message total are global
#: streams that cannot be attributed to one group.
_FLEET_ONLY = True


def _compile_battery(spec):
    """Compile one spec row into a tuple of prebound monitor factories.

    Each entry is ``(fleet_only, factory)`` where ``factory(n, f)``
    instantiates a monitor with every spec-derived argument already
    bound (tuples made, defaults resolved), so :func:`build_monitors` at
    run time is a handful of calls with no per-field decisions left.
    Compiled once per spec at import for every ``MONITOR_SPECS`` row —
    the class-level dispatch plan the monitors' own ``interests()`` maps
    then hand to the tracer's subscription tables.
    """
    plan = []
    if spec.decide_labels:
        decide = tuple(spec.decide_labels)
        slot_key, value_key = spec.slot_key, spec.value_key
        plan.append((not _FLEET_ONLY, lambda n, f: AgreementMonitor(
            decide, slot_key=slot_key, value_key=value_key)))
        horizon = spec.stall_horizon_events
        plan.append((not _FLEET_ONLY, lambda n, f: LivenessWatchdog(
            decide, horizon_events=horizon)))
    if spec.lead_epoch_key:
        epoch_key = spec.lead_epoch_key
        plan.append((not _FLEET_ONLY,
                     lambda n, f: LeaderUniquenessMonitor(epoch_key)))
    if spec.cert is not None:
        cert = spec.cert
        link_keys = tuple(cert.link_keys)
        plan.append((not _FLEET_ONLY, lambda n, f: QuorumCertificateMonitor(
            cert.decide_label, cert.ack_mtype, cert.need(n, f), link_keys)))
    if spec.proposal_mtypes:
        proposals = tuple(spec.proposal_mtypes)
        epoch_keys = tuple(spec.proposal_epoch_keys)
        proposal_slot = spec.proposal_slot_key
        plan.append((not _FLEET_ONLY, lambda n, f: EquivocationMonitor(
            proposals, epoch_keys, slot_key=proposal_slot)))
    if spec.phase_protocols:
        protocols = tuple(spec.phase_protocols)
        expected = tuple(spec.expected_phases)
        exceptional = tuple(spec.exceptional_phases)
        require_all = spec.require_all_phases
        plan.append((_FLEET_ONLY, lambda n, f: PhaseConformanceMonitor(
            protocols, expected, exceptional=exceptional,
            require_all=require_all)))
    if spec.decide_labels:
        decide = tuple(spec.decide_labels)
        # KeyError at import for a claim that names no single order.
        exponent = {"O(N)": 1, "O(N^2)": 2}[spec.claim().complexity]
        factor = spec.complexity_factor
        slot_key = spec.slot_key
        tainting = spec.window_tainting_phases
        if tainting is None:
            tainting = spec.exceptional_phases
        tainting = tuple(tainting)
        protocols = tuple(spec.phase_protocols)
        plan.append((_FLEET_ONLY, lambda n, f: ComplexityEnvelopeMonitor(
            decide, n, exponent, factor=factor, slot_key=slot_key,
            exceptional_phases=tainting, phase_protocols=protocols)))
    return tuple(plan)


def build_monitors(spec, n, f=0, group=None, nodes=None):
    """Instantiate the monitor battery for ``spec`` on an ``n``-node,
    ``f``-fault cluster, from the spec's import-time compiled plan.

    ``group``/``nodes`` scope the battery to one consensus group inside
    a fleet: anomalies carry the group label and (with ``nodes``) only
    events observed on member nodes are dispatched, so several groups
    running the *same* protocol can be watched on one shared trace
    without their slots and epochs colliding.  Scoped batteries omit the
    fleet-only monitors (phase-conformance, complexity-envelope) — phase
    marks and the transport message total are fleet-global streams that
    cannot be attributed to a single group.
    """
    scoped = nodes is not None
    plan = _BATTERY_PLANS.get(spec.protocol)
    if plan is None or MONITOR_SPECS.get(spec.protocol) is not spec:
        plan = _compile_battery(spec)  # ad-hoc spec (tests, forks)
    monitors = [factory(n, f) for fleet_only, factory in plan
                if not (scoped and fleet_only)]
    if group is not None or scoped:
        for monitor in monitors:
            monitor.scope_to(group, nodes)
    return monitors


def _specs(*specs):
    return {spec.protocol: spec for spec in specs}


MONITOR_SPECS = _specs(
    MonitorSpec(
        "paxos",
        decide_labels=("decide", "learn"),
        value_key="value",
        cert=CertSpec("decide", "acceptedmsg", ("ballot",),
                      "repro.core.quorums:CountingQuorum.tolerating"),
        phase_protocols=("paxos",),
        expected_phases=("prepare", "accept", "decide"),
    ),
    MonitorSpec(
        "multi-paxos",
        decide_labels=("apply",),
        slot_key="index",
        value_key="op",
        lead_epoch_key="ballot",
        phase_protocols=("multi-paxos",),
        expected_phases=("prepare", "accept"),
        window_tainting_phases=("prepare",),
    ),
    MonitorSpec(
        "raft",
        decide_labels=("apply",),
        slot_key="index",
        value_key="op",
        lead_epoch_key="term",
        phase_protocols=("raft",),
        expected_phases=("election", "append"),
        window_tainting_phases=("election",),
    ),
    MonitorSpec(
        "fast-paxos",
        phase_protocols=("fast-paxos",),
        expected_phases=("any", "commit"),
        exceptional_phases=("classic",),
        require_all_phases=False,
    ),
    MonitorSpec(
        # Reuses the paxos machinery (and its phase labels / milestones)
        # with a non-majority quorum system.
        "flexible-paxos",
        decide_labels=("decide", "learn"),
        value_key="value",
        cert=CertSpec("decide", "acceptedmsg", ("ballot",),
                      "repro.protocols.flexible_paxos:quorums_for"),
        phase_protocols=("paxos",),
        expected_phases=("prepare", "accept", "decide"),
    ),
    MonitorSpec(
        "2pc",
        phase_protocols=("2pc",),
        expected_phases=("vote", "decision"),
    ),
    MonitorSpec(
        "3pc",
        phase_protocols=("3pc",),
        expected_phases=("vote", "pre-commit", "decision"),
    ),
    MonitorSpec(
        "pbft",
        decide_labels=("execute",),
        slot_key="seq",
        value_key="op",
        lead_epoch_key="view",
        cert=CertSpec("execute", "pbftcommit", ("seq",),
                      "repro.protocols.pbft:quorums_for",
                      own_vote_silent=True),
        proposal_mtypes=("preprepare",),
        proposal_epoch_keys=("view",),
        proposal_slot_key="seq",
        phase_protocols=("pbft",),
        expected_phases=("pre-prepare", "prepare", "commit"),
        exceptional_phases=("view-change",),
    ),
    MonitorSpec(
        "zyzzyva",
        phase_protocols=("zyzzyva",),
        expected_phases=("order", "commit"),
        require_all_phases=False,  # commit phase only on the slow path
    ),
    MonitorSpec(
        "hotstuff",
        decide_labels=("decide",),
        slot_key="index",
        value_key="command",
        phase_protocols=("hotstuff", "hotstuff-chained"),
        expected_phases=("propose", "prepare", "pre-commit", "commit",
                         "decide"),
        require_all_phases=False,  # basic and chained mark disjoint sets
    ),
    MonitorSpec(
        "minbft",
        phase_protocols=("minbft",),
        expected_phases=("prepare", "commit"),
    ),
    MonitorSpec(
        "cheapbft",
        phase_protocols=("cheapbft",),
        expected_phases=("tiny-prepare", "tiny-commit"),
        exceptional_phases=("panic", "switch"),
    ),
    MonitorSpec("upright"),
    MonitorSpec(
        "seemore",
        phase_protocols=("seemore-1", "seemore-2", "seemore-3"),
        expected_phases=("propose", "validate", "decision"),
        require_all_phases=False,  # validate exists only in mode 3
    ),
    MonitorSpec(
        "xft",
        phase_protocols=("xft",),
        expected_phases=("prepare", "commit"),
        exceptional_phases=("view-change",),
    ),
    MonitorSpec(
        "ben-or",
        decide_labels=("decide", "learn"),
        value_key="value",
        complexity_factor=64.0,  # randomized: cost spans many rounds
        stall_horizon_events=20000,
    ),
    MonitorSpec("interactive-consistency"),
    MonitorSpec("pow"),
    MonitorSpec(
        "tendermint",
        decide_labels=("commit",),
        slot_key="height",
        value_key="block",
        proposal_mtypes=("tmproposal",),
        proposal_epoch_keys=("height", "round"),
        phase_protocols=("tendermint",),
        expected_phases=("propose", "prevote", "precommit"),
    ),
    MonitorSpec(
        "chandra-toueg",
        decide_labels=("decide", "learn"),
        value_key="value",
        complexity_factor=64.0,  # failure-detector heartbeats run freely
    ),
)


#: protocol -> compiled battery plan, built once at import.
_BATTERY_PLANS = {name: _compile_battery(spec)
                  for name, spec in MONITOR_SPECS.items()}


def spec_for(protocol):
    """The :class:`MonitorSpec` for ``protocol`` (KeyError if unknown)."""
    return MONITOR_SPECS[protocol]


# Guard against drift: every paper row must have a spec and vice versa.
def _check_alignment():
    from ..analysis.claims import PAPER_TABLE
    table = {claim.protocol for claim in PAPER_TABLE}
    specced = set(MONITOR_SPECS)
    if table != specced:
        raise AssertionError(
            "MONITOR_SPECS out of sync with PAPER_TABLE: missing=%s "
            "extra=%s" % (sorted(table - specced), sorted(specced - table)))


_check_alignment()
