"""Parallel sharded checking (an extension beyond the paper).

The PolySI pipeline is a chain — axioms, construct, prune, encode,
solve — but the *problem* decomposes: transactions on disjoint
key/session footprints can never share an undesired cycle, and segment
barriers make inter-snapshot slices independently checkable.  This
package exploits both across processes:

- :class:`ShardPlanner` — chooses the decomposition and builds
  picklable shard payloads;
- :class:`ParallelChecker` — drives a process pool with early cancel
  and merges per-shard results deterministically (a polygraph that
  does not decompose is checked by the parent, serially);
- :func:`merge_results` — the fold from shard verdicts to one
  :class:`repro.core.checker.CheckResult`.

Quickstart::

    from repro import ParallelChecker

    with ParallelChecker(workers=4) as checker:
        result = checker.check(history)   # verdict == PolySIChecker's
"""

from .checker import (
    ParallelChecker,
    ShardResult,
    check_snapshot_isolation_parallel,
    merge_results,
)
from .planner import Shard, ShardPlan, ShardPlanner

__all__ = [
    "ParallelChecker",
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "ShardResult",
    "check_snapshot_isolation_parallel",
    "merge_results",
]
