"""Deterministic parallel execution for sharded fleets.

Two parallelism shapes live here:

* :func:`run_parallel_shards` — ONE fleet, partitioned across worker
  processes by synchronization domain and advanced with conservative
  epoch barriers; the merged trace/stats/check artifacts are
  byte-identical at every worker count (the point: parallelism as a
  pure performance knob, never a semantics knob).
* :class:`ParallelRunner` / :func:`sweep` — MANY independent runs
  (seed fan-out), embarrassingly parallel, results in seed order.

See DESIGN.md's "Parallel execution" section for the lookahead
argument and the merge semantics.
"""

from .engine import FAIL_ENV, RunResult, WorkerFailure, run_parallel_shards
from .merge import (
    build_check_report,
    merge_registry,
    merge_trace,
    merged_consistency,
    merged_stats,
    merged_summary,
    merged_workload,
)
from .partition import assign_domains
from .runner import ParallelRunner, sweep
from .spec import CTL_DOMAIN, FleetSpec, domain_of

__all__ = [
    "FAIL_ENV",
    "FleetSpec",
    "CTL_DOMAIN",
    "ParallelRunner",
    "RunResult",
    "WorkerFailure",
    "assign_domains",
    "build_check_report",
    "domain_of",
    "merge_registry",
    "merge_trace",
    "merged_consistency",
    "merged_stats",
    "merged_summary",
    "merged_workload",
    "run_parallel_shards",
    "sweep",
]
