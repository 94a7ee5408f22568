"""The built-in monitor library.

Seven streaming monitors covering the three columns of the paper's
property boxes:

* safety — :class:`AgreementMonitor`, :class:`LeaderUniquenessMonitor`,
  :class:`QuorumCertificateMonitor`, :class:`EquivocationMonitor`;
* conformance — :class:`PhaseConformanceMonitor` (phase alphabet vs the
  claimed communication phases);
* complexity — :class:`ComplexityEnvelopeMonitor` (messages per decision
  vs the claimed O(N) / O(N²) envelope, fed from the metrics collector);
* liveness — :class:`LivenessWatchdog` (no decision within an event
  horizon ⇒ stall).

Each monitor observes the protocol through its *trace milestones*
(``trace_local`` decides/commits/executes, leader-assumption marks,
``mark_phase`` boundaries) and message deliveries, so one implementation
serves every protocol; :mod:`repro.monitor.specs` instantiates the
right mix with per-protocol keys.  Every monitor has one automaton, its
:meth:`~repro.monitor.base.Monitor.observe` over ring rows; the kinds
and mtypes its :meth:`~repro.monitor.base.Monitor.interests` name are
all it is ever handed, so it does not re-check them.
"""

from ..trace.events import DELIVER, LOCAL, PHASE
from ..trace.tracer import row_get
from .anomaly import COMPLEXITY, CONFORMANCE, LIVENESS, SAFETY
from .base import Monitor


class AgreementMonitor(Monitor):
    """No two nodes decide different values for the same slot.

    ``slot_key`` names the detail key that identifies the decision slot
    (``seq``, ``index``, ``height``); ``None`` means single-decree — all
    decisions share one implicit slot.  ``value_key`` names the decided
    value's detail key.  The first decision per slot is the reference;
    any later decision carrying a different value is a safety violation.
    """

    name = "agreement"
    category = SAFETY

    def __init__(self, decide_labels, slot_key=None, value_key="value"):
        super().__init__()
        self.decide_labels = tuple(decide_labels)
        self.slot_key = slot_key
        self.value_key = value_key
        self._chosen = {}

    def interests(self):
        return {LOCAL: self.decide_labels}

    def observe(self, row):
        value = row_get(row, self.value_key)
        if value is None:
            return
        slot = row_get(row, self.slot_key) if self.slot_key else ""
        if slot is None:
            return
        node = row[2]
        first = self._chosen.get(slot)
        if first is None:
            self._chosen[slot] = (value, node, self._seq())
        elif first[0] != value:
            where = "slot %s=%s" % (self.slot_key, slot) if self.slot_key \
                else "the decree"
            self.record(
                "%s decided %r for %s but %s already decided %r" % (
                    node, value, where, first[1], first[0]),
                row=row, slot=slot, value=value,
                conflicts_with=first[1], first_value=first[0],
                first_seq=first[2])

    @property
    def decisions(self):
        """Distinct slots decided so far."""
        return len(self._chosen)


class LeaderUniquenessMonitor(Monitor):
    """At most one node assumes leadership per ballot/term/view.

    Observes ``lead`` milestones (emitted by protocols on becoming
    leader/primary) keyed by ``epoch_key``; two distinct nodes claiming
    the same epoch is a safety violation (split brain).
    """

    name = "leader-uniqueness"
    category = SAFETY

    def __init__(self, epoch_key, lead_label="lead"):
        super().__init__()
        self.epoch_key = epoch_key
        self.lead_label = lead_label
        self._leaders = {}

    def interests(self):
        return {LOCAL: (self.lead_label,)}

    def observe(self, row):
        epoch = row_get(row, self.epoch_key)
        if epoch is None:
            return
        node = row[2]
        holder = self._leaders.get(epoch)
        if holder is None:
            self._leaders[epoch] = node
        elif holder != node:
            self.record(
                "%s assumed leadership for %s=%s already held by %s" % (
                    node, self.epoch_key, epoch, holder),
                row=row, epoch=epoch, holder=holder)


class QuorumCertificateMonitor(Monitor):
    """A decision must be causally preceded by a quorum certificate.

    Streams deliveries of the certificate message type (``ack_mtype``)
    and, at each decide milestone, checks the deciding node had already
    received acknowledgements from at least ``need`` distinct peers for
    the matching ``link_keys`` values (ballot, seq, ...).  Because both
    the acks and the decide happen on the *same* node, recording order
    is that node's happens-before order — a decide racing ahead of its
    quorum cannot hide.
    """

    name = "quorum-certificate"
    category = SAFETY

    def __init__(self, decide_label, ack_mtype, need, link_keys):
        super().__init__()
        self.decide_label = decide_label
        self.ack_mtype = ack_mtype
        self.need = need
        self.link_keys = tuple(link_keys)
        self._acks = {}

    def interests(self):
        return {DELIVER: (self.ack_mtype,), LOCAL: (self.decide_label,)}

    def observe(self, row):
        # Hot path: one call per certificate-mtype delivery.
        links = tuple([row_get(row, key) for key in self.link_keys])
        if None in links:
            return
        key = (row[2], links)
        if row[0] is DELIVER:
            # get-then-insert rather than setdefault — the latter builds
            # a throwaway set per ack, and acks outnumber certificates
            # by the quorum size.
            got = self._acks.get(key)
            if got is None:
                self._acks[key] = {row[3]}
            else:
                got.add(row[3])
            return
        got = len(self._acks.get(key, ()))
        if got < self.need:
            link_str = ", ".join("%s=%s" % (name, value) for name, value
                                 in zip(self.link_keys, links))
            self.record(
                "%s decided (%s) on %d/%d %s acks — no quorum "
                "certificate" % (row[2], link_str, got, self.need,
                                 self.ack_mtype),
                row=row, got=got, need=self.need, links=link_str)


class EquivocationMonitor(Monitor):
    """A proposer must not send conflicting proposals in one epoch.

    Watches deliveries of proposal messages (pre-prepare, tm-proposal)
    and checks, per sender and epoch (view / height+round), that
    (a) one slot never carries two different values and (b) one value is
    never proposed at two different slots — the two faces of Byzantine
    equivocation.  ``ignore_values`` skips protocol sentinels (PBFT's
    null request re-proposed while filling gaps after a view change).
    """

    name = "equivocation"
    category = SAFETY

    def __init__(self, proposal_mtypes, epoch_keys, slot_key=None,
                 value_key="digest", ignore_values=("null",)):
        super().__init__()
        self.proposal_mtypes = tuple(proposal_mtypes)
        self.epoch_keys = tuple(epoch_keys)
        self.slot_key = slot_key
        self.value_key = value_key
        self.ignore_values = tuple(ignore_values)
        self._value_at_slot = {}
        self._slot_of_value = {}

    def interests(self):
        return {DELIVER: self.proposal_mtypes}

    def observe(self, row):
        value = row_get(row, self.value_key)
        if value is None or value in self.ignore_values:
            return
        epoch = tuple([row_get(row, key) for key in self.epoch_keys])
        if None in epoch:
            return
        slot = None
        if self.slot_key is not None:
            slot = row_get(row, self.slot_key)
            if slot is None:
                return
        src = row[3]
        epoch_str = ", ".join("%s=%s" % (key, val) for key, val
                              in zip(self.epoch_keys, epoch))
        if self.slot_key is None:
            known = self._value_at_slot.get((src, epoch))
            if known is None:
                self._value_at_slot[(src, epoch)] = value
            elif known != value:
                self.record(
                    "%s equivocated in epoch (%s): proposed %r and %r" % (
                        src, epoch_str, known, value),
                    row=row, node=src, epoch=epoch_str,
                    value=value, conflicting_value=known)
            return
        known = self._value_at_slot.get((src, epoch, slot))
        if known is None:
            self._value_at_slot[(src, epoch, slot)] = value
        elif known != value:
            self.record(
                "%s equivocated at %s=%s (%s): proposed %r and %r" % (
                    src, self.slot_key, slot, epoch_str, known, value),
                row=row, node=src, epoch=epoch_str, slot=slot,
                value=value, conflicting_value=known)
            return
        held = self._slot_of_value.get((src, epoch, value))
        if held is None:
            self._slot_of_value[(src, epoch, value)] = slot
        elif held != slot:
            self.record(
                "%s equivocated on %r (%s): proposed at %s=%s and %s=%s" % (
                    src, value, epoch_str, self.slot_key, held,
                    self.slot_key, slot),
                row=row, node=src, epoch=epoch_str, value=value,
                slot=slot, conflicting_slot=held)


class PhaseConformanceMonitor(Monitor):
    """The run's phase alphabet must match the paper's claimed phases.

    Checks every ``mark_phase`` boundary for the monitored protocol
    label(s) against the expected phase set from ``PAPER_TABLE``-derived
    specs; a phase outside both ``expected`` and ``exceptional``
    (view-change, election — fault handling the property box does not
    count) is a conformance anomaly.  At run end, expected phases that
    never occurred (while others did) are reported too.
    """

    name = "phase-conformance"
    category = CONFORMANCE

    def __init__(self, phase_protocols, expected, exceptional=(),
                 require_all=True):
        super().__init__()
        self.phase_protocols = tuple(phase_protocols)
        self.expected = tuple(expected)
        self.exceptional = tuple(exceptional)
        self.require_all = require_all
        self.counts = {}

    def interests(self):
        return {PHASE: None}

    def observe(self, row):
        if row_get(row, "protocol") not in self.phase_protocols:
            return
        phase = row[4]
        self.counts[phase] = self.counts.get(phase, 0) + 1
        if phase not in self.expected and phase not in self.exceptional:
            self.record(
                "phase %r outside the claimed alphabet %s" % (
                    phase, list(self.expected)),
                row=row, phase=phase,
                expected=",".join(self.expected))

    def finish(self):
        if not self.counts or not self.require_all:
            return
        missing = [phase for phase in self.expected
                   if phase not in self.counts]
        if missing:
            self.record(
                "claimed phases never entered: %s" % ", ".join(missing),
                missing=",".join(missing))

    def observed_phases(self):
        """Claimed (non-exceptional) phases seen, in claim order, then
        any extras in sorted order."""
        seen = [phase for phase in self.expected if phase in self.counts]
        extras = sorted(phase for phase in self.counts
                        if phase not in self.expected
                        and phase not in self.exceptional)
        return seen + extras


class ComplexityEnvelopeMonitor(Monitor):
    """Messages per decision must fit the claimed complexity envelope.

    Samples the collector's transport-level message total at each *new*
    decision slot; the per-slot delta is that decision's message cost.
    Windows containing exceptional phases (view change, election) are
    excluded — the property boxes claim steady-state complexity.  At run
    end the mean cost is checked against ``factor · n^exponent``
    (exponent 1 for O(N) claims, 2 for O(N²)).
    """

    name = "complexity-envelope"
    category = COMPLEXITY

    def __init__(self, decide_labels, n, exponent, factor=16.0,
                 slot_key=None, exceptional_phases=(), phase_protocols=()):
        super().__init__()
        self.decide_labels = tuple(decide_labels)
        self.n = n
        self.exponent = exponent
        self.factor = factor
        self.slot_key = slot_key
        self.exceptional_phases = tuple(exceptional_phases)
        self.phase_protocols = tuple(phase_protocols)
        self.samples = []
        self._seen_slots = set()
        self._last_total = 0
        self._window_tainted = False
        self._skipped_windows = 0

    def interests(self):
        wants = {LOCAL: self.decide_labels}
        if self.exceptional_phases:
            # Only tainting phases matter; a spec with no exceptional
            # phases never subscribes to the PHASE stream at all.
            wants[PHASE] = self.exceptional_phases
        return wants

    def _collector(self):
        return self.hub.collector if self.hub is not None else None

    def observe(self, row):
        if row[0] is PHASE:
            if row_get(row, "protocol") in self.phase_protocols:
                self._window_tainted = True
            return
        slot = row_get(row, self.slot_key) if self.slot_key else ""
        if slot is None or slot in self._seen_slots:
            return
        self._seen_slots.add(slot)
        collector = self._collector()
        if collector is None:
            return
        total = collector.messages_total
        if self._window_tainted:
            self._skipped_windows += 1
        else:
            self.samples.append(total - self._last_total)
        self._last_total = total
        self._window_tainted = False

    @property
    def bound(self):
        return self.factor * float(self.n) ** self.exponent

    def mean_cost(self):
        if not self.samples:
            return None
        return sum(self.samples) / len(self.samples)

    def finish(self):
        mean = self.mean_cost()
        if mean is not None and mean > self.bound:
            self.record(
                "mean %.1f messages/decision exceeds the O(N^%d) envelope "
                "%.1f (n=%d, factor %g)" % (mean, self.exponent, self.bound,
                                            self.n, self.factor),
                mean="%.3f" % mean, bound="%.1f" % self.bound,
                samples=len(self.samples), skipped=self._skipped_windows)


class LivenessWatchdog(Monitor):
    """No decision within the event horizon ⇒ stall anomaly.

    Counts trace events since the last decision milestone; crossing
    ``horizon_events`` trips a liveness anomaly (then re-arms, so a
    permanent stall trips once per horizon, not per event).  A run that
    ends with no decision at all is reported at :meth:`finish` — the
    hub's per-monitor finish guard ensures this verdict is delivered
    even for watchdogs registered after an earlier ``finish`` (a run
    that was cut short mid-view).

    It watches every row: its :meth:`interests` is the default
    ``None``.
    """

    name = "liveness-watchdog"
    category = LIVENESS

    def __init__(self, decide_labels, horizon_events=4000):
        super().__init__()
        self.decide_labels = tuple(decide_labels)
        self._decide_set = frozenset(decide_labels)
        self.horizon_events = horizon_events
        self.decisions = 0
        self._since_decide = 0

    def observe(self, row):
        if row[0] is LOCAL and row[4] in self._decide_set:
            self.decisions += 1
            self._since_decide = 0
            return
        self._since_decide += 1
        if self._since_decide >= self.horizon_events:
            self._trip(row)

    def _trip(self, row):
        self.record(
            "no decision within the last %d events (%d decisions so "
            "far) — stalled" % (self.horizon_events, self.decisions),
            row=row, decisions=self.decisions,
            horizon=self.horizon_events)
        self._since_decide = 0

    def finish(self):
        if self.decisions == 0:
            self.record("run ended with no decision at all",
                        decisions=0, horizon=self.horizon_events)
