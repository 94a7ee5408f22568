"""Exceptions for protocol-level failures."""


class ProtocolError(Exception):
    """Base class for protocol-level errors."""


class SafetyViolation(ProtocolError):
    """A safety property was violated (two different values decided,
    conflicting logs, divergent commits).  Tests *expect* this from the
    deliberately misconfigured runs (e.g. Paxos on non-intersecting
    quorums) and its absence everywhere else."""


class LivenessFailure(ProtocolError):
    """A run failed to decide within its budget (e.g. Paxos livelock
    without randomized backoff, 2PC blocked on a crashed coordinator)."""


class ConfigurationError(ProtocolError, ValueError):
    """A protocol was instantiated with parameters that violate its
    lower bound (e.g. PBFT with n < 3f+1).  Also a ``ValueError``: it is
    a bad argument, and callers that guard arguments catch that."""
