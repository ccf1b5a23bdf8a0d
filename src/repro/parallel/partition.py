"""Constraint-partition pruning: one closure, many classifiers.

When component decomposition yields a single big component (heavily
contended workloads), the verdict itself cannot be sharded — but the
dominant pruning cost can.  Each fixpoint iteration classifies every
unresolved constraint against *read-only* state frozen at iteration
start (the reachability closure of the known induced graph plus the
immediate Dep-predecessor masks; see
:func:`repro.core.pruning.classify_constraints`).  Classification of one
constraint never observes another's resolution within the iteration, so
the constraint list can be split across workers that share that one
closure, and the concatenated decisions are bit-for-bit what a serial
pass would compute.

The parent then applies the decisions in constraint order — it runs the
serial checker's own :func:`repro.core.pruning.prune_constraints` loop,
only the classifier differs — which preserves everything downstream: resolved-edge insertion order,
fixpoint iteration count, the first violating constraint, and its
reconstructed witness cycle.  ``prune_constraints_parallel`` is therefore
*serial-identical*, not merely verdict-equivalent.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.polygraph import Constraint, GeneralizedPolygraph
from ..core.pruning import (
    PruneResult,
    classify_constraints,
    prune_constraints,
)
from ..utils.reachability import Reachability

__all__ = ["classify_shard", "prune_constraints_parallel"]

#: Below this many constraints an iteration classifies in-process: the
#: closure-row pickling would cost more than the classification.
MIN_PARALLEL_CONSTRAINTS = 64


def classify_shard(
    rows: List[int],
    pred_mask: List[int],
    constraints: List[Constraint],
) -> List[Tuple[bool, bool]]:
    """Worker body: classify one slice of the constraint list.

    ``rows`` are the parent :class:`~repro.core.pruning.PruneState`
    closure's rows in the backend-independent int-bitset serialization
    (:meth:`~repro.utils.closure.ClosureBackend.int_rows` —
    arbitrary-precision ints, cheap to pickle, identical no matter
    which closure backend the parent runs), and ``pred_mask`` the
    Dep-predecessor bitsets in the same form; the :class:`Reachability`
    facade is rebuilt on the worker side.
    """
    return classify_constraints(constraints, Reachability(rows), pred_mask)


def _chunks(items: list, parts: int) -> List[list]:
    """Split ``items`` into ``parts`` contiguous, order-preserving runs."""
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    out, start = [], 0
    for i in range(parts):
        stop = start + size + (1 if i < extra else 0)
        out.append(items[start:stop])
        start = stop
    return out


def prune_constraints_parallel(
    graph: GeneralizedPolygraph,
    executor,
    workers: int,
    *,
    backend=None,
) -> PruneResult:
    """Serial-identical pruning with sharded classification.

    ``executor`` is a ``concurrent.futures`` executor (the
    :class:`repro.parallel.ParallelChecker`'s pool) or None for a fully
    in-process run; ``workers`` bounds the number of classification
    slices per iteration.  Small iterations fall back to in-process
    classification — the schedule adapts, the decisions never do.

    This is :func:`repro.core.pruning.prune_constraints` — the same
    fixpoint loop over the same parent-held
    :class:`~repro.core.pruning.PruneState` — with a classifier that
    ships the state's current bitset rows to the workers instead of
    classifying in-process.
    """
    def classify(constraints, reach, pred_mask):
        if (executor is None or workers <= 1
                or len(constraints) < MIN_PARALLEL_CONSTRAINTS):
            return classify_constraints(constraints, reach, pred_mask)
        rows = reach.int_rows()
        futures = [
            executor.submit(classify_shard, rows, pred_mask, chunk)
            for chunk in _chunks(constraints, workers)
        ]
        return [d for future in futures for d in future.result()]

    return prune_constraints(graph, backend=backend, classify=classify)
