"""ParallelRunner — ordered seed-fanout over worker processes.

``repro sweep <protocol> --seeds A..B --workers K`` runs one
independent sequential simulation per seed, K at a time.  Unlike the
epoch-barrier engine this needs no synchronization at all (different
seeds share nothing), so it is the embarrassing-parallel path: results
come back in seed order regardless of completion order, and a
one-worker sweep produces exactly the same rows as an eight-worker
one.
"""

import multiprocessing

from ..core import Cluster
from ..scenarios import SCENARIOS

__all__ = ["ParallelRunner", "run_seed", "sweep"]


class ParallelRunner:
    """Order-preserving map over a pool of forked workers.

    Falls back to an in-process loop when one worker suffices or the
    platform cannot fork — results are identical either way, only the
    wall clock changes.
    """

    def __init__(self, workers=1):
        self.workers = max(1, int(workers))

    def map(self, fn, items):
        items = list(items)
        if self.workers == 1 or len(items) <= 1 \
                or "fork" not in multiprocessing.get_all_start_methods():
            return [fn(item) for item in items]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(self.workers, len(items))) as pool:
            return pool.map(fn, items)


def run_seed(task):
    """One sequential run of ``(protocol, seed)``; returns a plain dict
    (top-level so the multiprocessing pool can import it by name)."""
    protocol, seed = task
    cluster = Cluster(seed=seed)
    summary = SCENARIOS[protocol].demo(cluster)
    return {
        "seed": seed,
        "summary": summary,
        "messages": cluster.metrics.messages_total,
        "events": cluster.sim.events_processed,
        "virtual_time": round(float(cluster.now), 1),
    }


def sweep(protocol, seeds, workers=1):
    """Run ``protocol`` once per seed, ``workers`` at a time; rows come
    back in seed order."""
    runner = ParallelRunner(workers)
    return runner.map(run_seed, [(protocol, seed) for seed in seeds])
