"""Streaming runtime monitors: online safety/liveness/complexity checks.

Live conformance monitors: a :class:`MonitorHub` registers each
monitor's interest set with the tracer's one streaming lane, and every
matching ring row is handed to invariant monitors that evaluate the
paper's per-protocol property box *while the run executes* — agreement
per slot, leader uniqueness per epoch, quorum-certificate-before-decide,
equivocation detection, phase-alphabet conformance, message-complexity
envelopes and a liveness watchdog.  Violations become structured
:class:`Anomaly` records with rendered causal context, and
:func:`run_check` wraps a whole monitored run into a deterministic
conformance report (``python -m repro check``).

Like tracing and telemetry, monitors are strictly opt-in
(``Cluster(monitors=True)``) and purely observational: a monitor-less
run pays nothing, and a monitored run is behaviourally identical to an
unmonitored one with the same seed.
"""

from .anomaly import (
    CATEGORIES,
    COMPLEXITY,
    CONFORMANCE,
    LIVENESS,
    SAFETY,
    Anomaly,
)
from .base import (
    NULL_HUB,
    Monitor,
    MonitorHub,
    NullMonitorHub,
    render_context,
)
from .conformance import (
    check_protocols,
    render_report,
    report_to_json,
    run_check,
    write_report,
)
from .library import (
    AgreementMonitor,
    ComplexityEnvelopeMonitor,
    EquivocationMonitor,
    LeaderUniquenessMonitor,
    LivenessWatchdog,
    PhaseConformanceMonitor,
    QuorumCertificateMonitor,
)
from .specs import (
    MONITOR_SPECS,
    CertSpec,
    MonitorSpec,
    build_monitors,
    spec_for,
)

__all__ = [
    "Anomaly",
    "CATEGORIES",
    "SAFETY",
    "LIVENESS",
    "COMPLEXITY",
    "CONFORMANCE",
    "Monitor",
    "MonitorHub",
    "NullMonitorHub",
    "NULL_HUB",
    "render_context",
    "AgreementMonitor",
    "LeaderUniquenessMonitor",
    "QuorumCertificateMonitor",
    "EquivocationMonitor",
    "PhaseConformanceMonitor",
    "ComplexityEnvelopeMonitor",
    "LivenessWatchdog",
    "MonitorSpec",
    "CertSpec",
    "MONITOR_SPECS",
    "spec_for",
    "build_monitors",
    "run_check",
    "check_protocols",
    "render_report",
    "report_to_json",
    "write_report",
]
