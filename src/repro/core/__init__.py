"""Core abstractions: ballots, quorums, C&C framework, nodes."""

from .ballot import Ballot
from .cluster import Cluster, ClusterGroup
from .exceptions import (
    ConfigurationError,
    LivenessFailure,
    ProtocolError,
    SafetyViolation,
)
from .framework import (
    CCDecomposition,
    CCPhase,
    CCTrace,
    PAXOS_DECOMPOSITION,
    PHASE_ORDER,
    THREE_PC_DECOMPOSITION,
    TWO_PC_DECOMPOSITION,
)
from .node import Node
from .quorums import CountingQuorum, GridQuorum, QuorumSystem, minimum_nodes

__all__ = [
    "Ballot",
    "CCDecomposition",
    "CCPhase",
    "CCTrace",
    "Cluster",
    "ClusterGroup",
    "ConfigurationError",
    "CountingQuorum",
    "GridQuorum",
    "LivenessFailure",
    "Node",
    "PAXOS_DECOMPOSITION",
    "PHASE_ORDER",
    "ProtocolError",
    "QuorumSystem",
    "SafetyViolation",
    "THREE_PC_DECOMPOSITION",
    "TWO_PC_DECOMPOSITION",
    "minimum_nodes",
]
