"""Live shard splitting: drain, hand off, cut over — under traffic.

:class:`SplitOrchestrator` drives one range-shard split end to end
while transactions keep flowing:

1. **drain + freeze** — replicate ``("shard_freeze", at, hi)`` on the
   source group.  The state machine refuses while any transaction holds
   a lock in ``[at, hi)`` (``("busy", holder)``); the orchestrator
   backs off and retries, so in-flight holders finish naturally — the
   drain *is* the retry loop.  Once granted, the frozen range takes no
   new locks and the reply carries a consistent snapshot of its data.
2. **spawn + install** — a fresh consensus group is built mid-run (its
   own leader election and all) and the snapshot is replicated into it
   with ``("shard_install", items)``.
3. **cutover barrier** — only after the install is *in the destination
   group's log* does the routing flip: one ``ShardMap.split`` call bumps
   the epoch and re-homes ``[at, hi)``.  Coordinators recompute routes
   per attempt, so no invalidation traffic is needed.
4. **purge** — ``("shard_purge", at, hi)`` drops the moved data at the
   source and leaves a tombstone: any transaction still routed by the
   old map gets ``("moved", ...)`` and re-routes on retry.

Every step is a replicated log command on one group or the other, so a
minority of replica crashes at any point cannot lose migration state.
"""

import itertools

from ..dtxn.coordinator import GroupRequester


class SplitOrchestrator(GroupRequester):
    """Drives shard splits for a :class:`~repro.shard.ShardedCluster`.

    One split runs at a time; :attr:`last_split` records the finished
    one (``sid``, ``new_sid``, ``at``, ``moved_keys``, ``duration``).
    """

    BUSY_BACKOFF = (2.0, 6.0)

    def __init__(self, sim, network, name, sharded):
        super().__init__(sim, network, name, sharded.shard_groups)
        self.sharded = sharded
        self._seq = itertools.count()
        self.active = None
        self.last_split = None
        self.splits_done = 0

    # -- public -------------------------------------------------------------

    def split(self, sid, at):
        """Begin splitting shard ``sid`` at key ``at``; returns the
        in-progress split record (watch its ``"done"`` flag)."""
        if self.active is not None and not self.active["done"]:
            raise RuntimeError("a split is already in progress")
        _lo, hi = self.sharded.shard_map.bounds(sid)
        self.active = {
            "sid": sid, "at": at, "hi": hi, "new_sid": None,
            "moved_keys": 0, "started": self.sim.now, "done": False,
            "duration": None,
        }
        self._send(sid, ("shard_freeze", at, hi), "freeze")
        return self.active

    # -- request plumbing (the txn coordinator's, see GroupRequester) --------

    def _send(self, gid, command, stage):
        self._request("split-%s-%d" % (stage, next(self._seq)), gid,
                      command, stage)

    def on_result(self, stage, gid, command, result):
        getattr(self, "_on_" + stage)(result, gid, command)

    # -- stage transitions --------------------------------------------------

    def _on_freeze(self, result, gid, command):
        if result[0] == "busy":
            # A transaction still holds locks in the range: back off a
            # randomized delay and re-ask — the drain loop.
            delay = self.rng.uniform(*self.BUSY_BACKOFF)
            self.set_timer(delay, self._send, gid, command, "freeze")
            return
        items = result[1]
        split = self.active
        split["moved_keys"] = len(items)
        split["new_sid"] = self.sharded.spawn_shard()
        self._send(split["new_sid"], ("shard_install", items), "install")

    def _on_install(self, result, gid, command):
        split = self.active
        # Cutover barrier: the data is in the destination's log — now,
        # and only now, flip the routing.
        self.sharded.shard_map.split(split["sid"], split["at"],
                                     split["new_sid"])
        self._send(split["sid"],
                   ("shard_purge", split["at"], split["hi"]), "purge")

    def _on_purge(self, result, gid, command):
        split = self.active
        split["done"] = True
        split["duration"] = self.sim.now - split["started"]
        self.last_split = split
        self.splits_done += 1
