"""Cross-shard transactions: 2PC layered over per-shard consensus.

:class:`ShardTxnCoordinator` extends the dtxn coordinator
(:mod:`repro.dtxn.coordinator`) with everything the sharded fleet adds:

* **routing through a live :class:`~repro.shard.keyspace.ShardMap`** —
  the shard of each key is recomputed at every round/attempt, so a
  split's routing cutover is picked up without any invalidation
  protocol.  A key's route *cannot* change while its locks are held
  (``shard_freeze`` drains lock holders first), which is the invariant
  making per-attempt recomputation sufficient.
* **the single-shard fast path** — a transaction whose keys all route
  to one shard skips 2PC entirely: lock round, then one ``txn_apply``
  entry applying writes and releasing locks together.  Two consensus
  rounds instead of four; most traffic in a well-partitioned workload.
* **replicated commit decisions** — before the commit round, the
  coordinator replicates ``("txn_decide", txid, "commit")`` in the
  lowest-numbered participant's log (Gray & Lamport: the decision *is*
  a consensus value).  Aborts are presumed, so only commits pay this.
* **mixed-protocol participants** — the per-group ``make_request`` hook
  phrases requests for whatever protocol each shard group runs, and the
  Raft reply/redirect handlers alias the Multi-Paxos ones (the message
  shapes are field-compatible by design).
* **migration-aware retries** — ``("frozen", ...)`` and
  ``("moved", ...)`` lock answers are treated like conflicts: abort,
  back off, re-route.  A stale route is a retriable event, not an
  error.
"""

from ..dtxn.coordinator import Transaction, TxnCoordinator, TxnState

__all__ = ["ShardTxnCoordinator", "Transaction"]


class ShardTxnCoordinator(TxnCoordinator):
    """2PC-over-consensus coordinator for a :class:`ShardMap` fleet.

    Parameters
    ----------
    shard_map:
        The live routing table; consulted afresh every attempt.
    shard_groups:
        Iterable of :class:`~repro.shard.group.ShardGroup`; more may
        join later via :meth:`add_group` (splits spawn shards mid-run).
    """

    def __init__(self, sim, network, name, shard_map, shard_groups,
                 **kwargs):
        shard_groups = list(shard_groups)
        groups = {group.gid: list(group.members) for group in shard_groups}
        super().__init__(sim, network, name, groups, shard_map.shard_of,
                         **kwargs)
        self.shard_map = shard_map
        self._request_of = {group.gid: group.request
                            for group in shard_groups}
        self.fast_commits = 0
        self.decisions_replicated = 0
        self.reroutes = 0

    def stats(self):
        """The coordinator's outcome counters, as a plain dict."""
        return {
            "commits": self.commits,
            "aborts": self.aborts,
            "fast_commits": self.fast_commits,
            "decisions_replicated": self.decisions_replicated,
            "timeout_aborts": self.timeout_aborts,
            "conflicts": self.conflicts_seen,
            "reroutes": self.reroutes,
        }

    def add_group(self, group):
        """Register a shard group created after construction (splits)."""
        self.groups[group.gid] = list(group.members)
        self.leader_hint[group.gid] = group.members[0]
        self._request_of[group.gid] = group.request

    def make_request(self, gid, command, request_id):
        return self._request_of[gid](command, request_id)

    # Raft replies/redirects carry the same fields as Multi-Paxos ones;
    # dispatch is by mtype, so the aliases make mixed fleets transparent.
    def handle_raftclientreply(self, msg, src):
        self.handle_clientreply(msg, src)

    def handle_raftredirect(self, msg, src):
        self.handle_redirect(msg, src)

    # -- round transitions --------------------------------------------------

    def _round_complete(self, txn, kind, replies):
        if kind == "txn_lock":
            self._locks_answered(txn, replies)
        elif kind == "txn_apply":
            if all(reply == "applied" for reply in replies.values()):
                self.fast_commits += 1
                self._finish(txn, "committed")
            else:
                self._abort_then_retry(txn, replies)
        elif kind == "txn_prepare":
            if all(reply == "prepared" for reply in replies.values()):
                # Replicate the commit decision before acting on it: the
                # lowest participant's log is the decision's home.
                decider = min(self.groups_of(txn))
                txn.state = TxnState.COMMITTING
                self._start_round(txn, "txn_decide", {
                    decider: ("txn_decide", txn.txid, "commit")})
            else:
                self._abort_then_retry(txn, replies)
        elif kind == "txn_decide":
            self.decisions_replicated += 1
            self._start_round(txn, "txn_commit", {
                gid: ("txn_commit", txn.txid)
                for gid in self.groups_of(txn)})
        else:
            super()._round_complete(txn, kind, replies)

    def _locks_answered(self, txn, replies):
        blocked = [reply for reply in replies.values() if reply[0] != "ok"]
        if blocked:
            self.conflicts_seen += sum(
                1 for reply in blocked if reply[0] == "conflict")
            self.reroutes += sum(
                1 for reply in blocked if reply[0] in ("frozen", "moved"))
            self._abort_then_retry(txn, replies)
            return
        for reply in replies.values():
            txn.reads.update(reply[1])
        if txn.abort_if is not None and txn.abort_if(txn.reads):
            txn.state = TxnState.ABORTING
            self._start_round(txn, "txn_abort", {
                gid: ("txn_abort", txn.txid)
                for gid in self.groups_of(txn)})
            txn.outcome = "aborted-by-logic"
            return
        writes = txn.update(dict(txn.reads))
        by_group = {}
        for key, value in writes.items():
            by_group.setdefault(self.key_of_group(key), {})[key] = value
        involved = self.groups_of(txn)
        if len(involved) == 1:
            (gid,) = involved
            txn.state = TxnState.COMMITTING
            self._start_round(txn, "txn_apply", {
                gid: ("txn_apply", txn.txid,
                      tuple(sorted(by_group.get(gid, {}).items())))})
            return
        txn.state = TxnState.PREPARING
        self._start_round(txn, "txn_prepare", {
            gid: ("txn_prepare", txn.txid,
                  tuple(sorted(by_group.get(gid, {}).items())))
            for gid in involved})
