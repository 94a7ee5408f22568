"""Distributed transactions: 2PL + 2PC over consensus-replicated shards
(the tutorial's Google Spanner architecture).  The store they run on is
:class:`repro.shard.ShardedCluster`."""

from .coordinator import KeyLocal, Transaction, TxnCoordinator, TxnState

__all__ = [
    "KeyLocal",
    "Transaction",
    "TxnCoordinator",
    "TxnState",
]
