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
from .quorums import (
    ByzantineQuorum,
    FlexibleQuorum,
    GridQuorum,
    HybridQuorum,
    MajorityQuorum,
    QuorumSystem,
    bft_minimum_nodes,
    crash_minimum_nodes,
    hybrid_minimum_nodes,
)

__all__ = [
    "Ballot",
    "ByzantineQuorum",
    "CCDecomposition",
    "CCPhase",
    "CCTrace",
    "Cluster",
    "ClusterGroup",
    "ConfigurationError",
    "FlexibleQuorum",
    "GridQuorum",
    "HybridQuorum",
    "LivenessFailure",
    "MajorityQuorum",
    "Node",
    "PAXOS_DECOMPOSITION",
    "PHASE_ORDER",
    "ProtocolError",
    "QuorumSystem",
    "SafetyViolation",
    "THREE_PC_DECOMPOSITION",
    "TWO_PC_DECOMPOSITION",
    "bft_minimum_nodes",
    "crash_minimum_nodes",
    "hybrid_minimum_nodes",
]
