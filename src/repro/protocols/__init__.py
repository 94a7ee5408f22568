"""Every protocol from the tutorial, one module each.

Crash-fault consensus: :mod:`paxos` (single-decree), :mod:`multipaxos`,
:mod:`fast_paxos`, :mod:`flexible_paxos`, :mod:`raft`, :mod:`benor`
(randomized, the FLP circumvention).

Atomic commitment: :mod:`commit` (2PC and 3PC).

Byzantine agreement: :mod:`interactive_consistency` (Pease–Shostak–
Lamport), :mod:`pbft`, :mod:`zyzzyva`, :mod:`hotstuff`.

Hybrid / trusted-component: :mod:`minbft`, :mod:`cheapbft`,
:mod:`upright`, :mod:`seemore`, :mod:`xft`.

Nothing is imported eagerly: consumers name the module they need
(``from repro.protocols import pbft``, a ``SCENARIOS`` entry string).
Each protocol's property box lives in
``repro.analysis.claims.PAPER_TABLE``, not in its module.
"""
