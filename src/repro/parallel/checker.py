"""The parallel sharded checking engine.

:class:`ParallelChecker` drives shard plans (see
:mod:`repro.parallel.planner`) over a ``concurrent.futures``
process pool:

- **axioms + construction stay in the parent** — they are one linear
  pass, and keeping them serial makes the anomaly list byte-identical
  to :class:`repro.core.checker.PolySIChecker`'s;
- **component shards** run the whole prune/encode/solve tail per
  weakly-connected component, each in its own process;
- **graphs with fewer than two constrained components** are checked
  by the parent with the serial ``check_polygraph``: sharing out one
  pruning iteration's classification cost more than it saved;
- **early cancel**: the first violating shard cancels everything not
  yet started (any one violation already decides the verdict);
- **deterministic merge**: :func:`merge_results` folds shard results in
  shard-index order, so the verdict never depends on worker count or
  completion timing.

Determinism contract (also DESIGN.md): the *verdict* and the *anomaly
list* equal the serial checker's for every worker count, and the
reported violating shard is always the *lowest-indexed* one.  Early
cancel only skips shards queued behind it: the pool dispatches in
shard-index order, so when a violation completes, every earlier shard
has already started — those in flight are drained before the merge,
which therefore always sees (and prefers) the earliest violator, for
every worker count and run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Optional

from ..core.checker import CheckResult, PolySIChecker
from ..core.history import History, HistoryBuilder
from ..core.known import KnownGraph
from ..core.polygraph import Edge
from ..core.pruning import PruneResult, find_known_cycle
from ..obs import Tracer, current_tracer, get_logger, trace_span, use_tracer
from ..utils.reachability import is_acyclic
from .planner import Shard, ShardPlanner, rebuild_component

log = get_logger("parallel")

__all__ = [
    "ShardResult",
    "ParallelChecker",
    "merge_results",
    "check_snapshot_isolation_parallel",
]

#: Success stages ordered by how much machinery produced them; the merged
#: ``decided_by`` of a satisfying run is the strongest any shard needed.
_STAGE_RANK = {"trivial": 0, "static": 1, "pruning": 2, "encoding": 3,
               "solving": 4}


class ShardResult:
    """The picklable distillate of one shard's :class:`CheckResult`.

    Workers never ship polygraphs, encodings, or solver objects back —
    only the verdict, evidence, and counters the merge needs.  Witness
    cycles are in shard-local vertex ids; the merge translates them
    through the shard's vertex map.
    """

    __slots__ = ("index", "satisfies_si", "decided_by", "anomalies",
                 "cycle", "timings", "prune", "solver", "stats", "segment",
                 "polygraph", "spans", "worker")

    def __init__(self, index: int):
        self.index = index
        self.satisfies_si = True
        self.decided_by = "trivial"
        self.anomalies: list = []
        self.cycle: Optional[List[Edge]] = None
        self.timings: dict = {}
        self.prune: Optional[dict] = None
        self.solver: dict = {}
        self.stats: dict = {}
        self.segment: Optional[int] = None
        #: Spans exported by the worker-local tracer (plain dicts; only
        #: populated on pooled dispatch with tracing on) and the worker
        #: pid that produced them — the parent re-parents these under
        #: its pool span via :meth:`repro.obs.Tracer.adopt`.
        self.spans: list = []
        self.worker: Optional[int] = None
        #: Only set for *violating* segment shards: interpretation needs
        #: the segment's polygraph to classify the witness cycle, and
        #: unlike component shards there is no parent-side polygraph in
        #: the segment's vertex numbering to fall back on.
        self.polygraph = None

    @classmethod
    def from_check(cls, index: int, result: CheckResult) -> "ShardResult":
        """Distill ``result`` down to what crosses the process boundary."""
        out = cls(index)
        out.satisfies_si = result.satisfies_si
        out.decided_by = result.decided_by
        out.anomalies = list(result.anomalies)
        out.cycle = result.cycle
        out.timings = dict(result.timings)
        if result.prune_result is not None:
            out.prune = result.prune_result.as_dict()
        out.solver = dict(result.solver_stats)
        out.stats = dict(result.stats)
        return out

    def as_check_result(self) -> CheckResult:
        """Rehydrate a (history-free) CheckResult, e.g. for the per-segment
        result list of segmented checking."""
        result = CheckResult()
        result.satisfies_si = self.satisfies_si
        result.decided_by = self.decided_by
        result.anomalies = list(self.anomalies)
        result.cycle = self.cycle
        result.timings = dict(self.timings)
        result.solver_stats = dict(self.solver)
        result.stats = dict(self.stats)
        result.polygraph = self.polygraph
        return result

    def __repr__(self) -> str:
        verdict = "SI" if self.satisfies_si else f"VIOLATION({self.decided_by})"
        return f"ShardResult(#{self.index}, {verdict})"


# -- worker bodies (module-level: must be picklable by reference) -------------------


def _worker_trace_context(options: dict):
    """Strip the dispatch-injected ``_trace`` flag and decide how this
    shard records spans: a fresh worker-local :class:`Tracer` when the
    flag is set (only pooled dispatch sets it — a fork-started pool
    process inherits the parent's ambient-tracer contextvar, but spans
    recorded there would die with the fork copy, so the flag, not the
    ambient state, is authoritative), or None to record into the
    caller's ambient tracer on in-process dispatch."""
    options = dict(options)
    want = options.pop("_trace", False)
    tracer = Tracer() if want else None
    return options, tracer


def _traced_shard(index: int, options: dict, body) -> ShardResult:
    """Run ``body(options)`` with worker-side span recording, exporting
    the local tracer's spans (plus the worker pid) on the result."""
    options, tracer = _worker_trace_context(options)
    if tracer is None:
        return body(options)
    with use_tracer(tracer):
        out = body(options)
    out.spans = tracer.export_spans()
    out.worker = os.getpid()
    return out


def _check_component_shard(index: int, payload, options: dict) -> ShardResult:
    """Prune + encode + solve one component fragment."""

    def body(options: dict) -> ShardResult:
        with trace_span("shard", index=index, pid=os.getpid()):
            graph = rebuild_component(payload)
            checker = PolySIChecker(**options)
            return ShardResult.from_check(index,
                                          checker.check_polygraph(graph))

    return _traced_shard(index, options, body)


def _check_segment_shard(index: int, payload, options: dict) -> ShardResult:
    """Check one segment of a segmented run as its own history."""
    segment_index, initial_values, txns = payload

    def body(options: dict) -> ShardResult:
        with trace_span("segment", index=segment_index, pid=os.getpid()):
            builder = HistoryBuilder()
            for session, ops, status in txns:
                builder.txn(session, ops, status=status)
            checker = PolySIChecker(initial_values=initial_values, **options)
            result = checker.check(builder.build())
            out = ShardResult.from_check(index, result)
            out.segment = segment_index
            if not result.satisfies_si:
                out.polygraph = result.polygraph
            return out

    return _traced_shard(index, options, body)


# -- merging ------------------------------------------------------------------------


def _map_cycle(
    cycle: Optional[List[Edge]], old_of_new: Optional[List[int]]
) -> Optional[List[Edge]]:
    """Translate a subgraph-local witness cycle back to parent vertex ids
    (identity when the check ran on the parent graph itself)."""
    if cycle is None or old_of_new is None:
        return cycle
    return [(old_of_new[u], old_of_new[v], label, key)
            for u, v, label, key in cycle]


def merge_results(
    shard_results: List[ShardResult],
    *,
    into: Optional[CheckResult] = None,
    vertex_maps: Optional[Dict[int, List[int]]] = None,
) -> CheckResult:
    """Fold per-shard results into one :class:`CheckResult`.

    Deterministic: results are processed in shard-index order regardless
    of completion order, so the reported verdict, witness shard, and
    aggregated counters depend only on the shard plan.  Per-stage
    timings are *summed* across shards (total work, not wall clock — the
    wall clock lives in ``stats``).
    """
    result = into if into is not None else CheckResult()
    ordered = sorted(shard_results, key=lambda s: s.index)

    solver_totals: dict = {}
    prune_totals: Optional[PruneResult] = None
    winner: Optional[ShardResult] = None
    best_rank = 0
    for shard in ordered:
        for stage, seconds in shard.timings.items():
            result.timings[stage] = result.timings.get(stage, 0.0) + seconds
        for key, value in shard.solver.items():
            if isinstance(value, (int, float)):
                solver_totals[key] = solver_totals.get(key, 0) + value
        if shard.prune is not None:
            if prune_totals is None:
                prune_totals = PruneResult()
            prune_totals.iterations = max(prune_totals.iterations,
                                          shard.prune["iterations"])
            prune_totals.pruned += shard.prune["pruned"]
            prune_totals.constraints_before += shard.prune["constraints_before"]
            prune_totals.constraints_after += shard.prune["constraints_after"]
            prune_totals.unknown_deps_before += shard.prune["unknown_deps_before"]
            prune_totals.unknown_deps_after += shard.prune["unknown_deps_after"]
        best_rank = max(best_rank, _STAGE_RANK.get(shard.decided_by, 0))
        if winner is None and not shard.satisfies_si:
            winner = shard

    if solver_totals:
        result.solver_stats = solver_totals
    if prune_totals is not None:
        prune_totals.ok = not (winner is not None
                               and winner.decided_by == "pruning")
        result.prune_result = prune_totals

    result.stats["shards_completed"] = len(ordered)
    if winner is not None:
        result.satisfies_si = False
        result.decided_by = winner.decided_by
        result.anomalies.extend(winner.anomalies)
        vmap = (vertex_maps or {}).get(winner.index)
        result.cycle = _map_cycle(winner.cycle, vmap)
    else:
        result.satisfies_si = True
        result.decided_by = [
            stage for stage, rank in _STAGE_RANK.items() if rank == best_rank
        ][0]
    return result


# -- the engine ---------------------------------------------------------------------


class ParallelChecker:
    """Check histories by sharding the job across worker processes.

    Produces the same verdict and anomaly list as
    :class:`repro.core.checker.PolySIChecker` for every worker count
    (``tests/test_parallel.py`` enforces this differentially).

    Parameters
    ----------
    workers:
        Process count (>= 1).  ``1`` runs every shard in-process, in
        shard order — no pool, serial-identical including the witness.
    prune / compact / closure_backend:
        Forwarded to the per-shard pipeline, same as PolySIChecker
        (``closure_backend`` is resolved once in the parent, so shards
        cannot diverge from it).
    early_cancel:
        Cancel not-yet-started shards once any shard reports a
        violation.
    max_shards:
        Soft cap on component shards (0: one per component); defaults to
        ``4 * workers`` to bound payload overhead on polygraphs with
        thousands of tiny components.
    oversubscribe:
        By default the process pool is capped at ``os.cpu_count()``:
        shard work is CPU-bound, so extra processes beyond the physical
        cores only add scheduling and copy-on-write overhead — on a
        single-core host the engine degrades to in-process sharded
        execution (still faster than serial: per-component closures are
        quadratically smaller than the whole-graph closure).  Pass True
        to force one process per requested worker regardless (the
        differential tests do, so real pool dispatch is exercised on any
        host).

    The process pool is created lazily and reused across ``check`` /
    ``check_segments`` calls; use the instance as a context manager (or
    call :meth:`close`) to release it.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        prune: bool = True,
        compact: bool = True,
        closure_backend: Optional[str] = None,
        early_cancel: bool = True,
        max_shards: Optional[int] = None,
        oversubscribe: bool = False,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.pool_workers = (
            workers if oversubscribe else min(workers, os.cpu_count() or 1)
        )
        self.early_cancel = early_cancel
        self._options = {"prune": prune, "compact": compact,
                         "closure_backend": closure_backend}
        # Validates the pipeline options immediately, and serves as the
        # parent-side stage runner.
        self._serial = PolySIChecker(**self._options)
        # Pin the resolved name so every worker shard uses the same
        # backend as the parent regardless of worker-side environment.
        self._options["closure_backend"] = self._serial.closure_backend
        if max_shards is None:
            max_shards = 4 * workers
        self.planner = ShardPlanner(max_shards=max_shards)
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle -------------------------------------------------------

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.pool_workers
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ParallelChecker":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- checking -------------------------------------------------------------

    def check(self, history: History) -> CheckResult:
        """Run the sharded pipeline on ``history``."""
        wall = time.perf_counter()
        result = CheckResult()
        result.stats["workers"] = self.workers
        result.stats["pool_workers"] = self.pool_workers
        result.stats["closure_backend"] = self._serial.closure_backend
        graph = self._serial.construct(history, result)
        if graph is None:
            result.stats["wall_seconds"] = time.perf_counter() - wall
            return result

        t0 = time.perf_counter()
        decomposition = graph.constrained_components()
        components, constraints_of = decomposition
        constrained_count = sum(1 for cons in constraints_of if cons)
        # The one rule: shards exist where the polygraph decomposes.
        strategy = "components" if constrained_count >= 2 else "serial"
        result.stats["strategy"] = strategy
        log.debug(
            "strategy=%s components=%d constrained=%d workers=%d",
            strategy, len(components), constrained_count, self.pool_workers,
        )
        result.stats["components"] = len(components)
        result.stats["solver_skipped_components"] = (
            len(components) - constrained_count
        )
        plan = (self.planner.plan_polygraph(graph, decomposition)
                if strategy == "components" else None)
        result.timings["plan"] = time.perf_counter() - t0

        if plan is None:
            self._serial.check_polygraph(graph, result)
        else:
            self._check_components(graph, plan, result)
        result.stats["wall_seconds"] = time.perf_counter() - wall
        return result

    def _check_components(self, graph, plan, result: CheckResult) -> None:
        """Component path: pure components statically in the parent,
        constrained components as pool shards."""
        if plan.pure_vertices:
            t0 = time.perf_counter()
            # No constraints: the known induced graph is all there is.
            pure, pure_old = graph.subgraph(plan.pure_vertices)
            acyclic = is_acyclic(pure.num_vertices, KnownGraph.from_edges(
                pure.num_vertices, pure.known_edges).induced_adjacency())
            result.timings["decompose"] = time.perf_counter() - t0
            if not acyclic:
                result.satisfies_si = False
                result.decided_by = "encoding"
                result.cycle = _map_cycle(
                    find_known_cycle(pure.known_edges), pure_old)
                return
        shard_results = self._run_shards(plan.shards, _check_component_shard)
        vertex_maps = {s.index: s.vertex_map for s in plan.shards}
        merge_results(shard_results, into=result, vertex_maps=vertex_maps)
        result.stats["shards"] = len(plan.shards)

    def check_segments(self, run):
        """Check every segment of a
        :class:`repro.extensions.segmented.SegmentedRun` through the pool.

        Segment shards are sound for the same reason serial segmented
        checking is (the snapshot barrier, paper Section 6); the pool
        only changes *when* each segment is checked, never against what
        initial values.  The reported ``failing_segment`` is the
        earliest violating one — the same index the serial scan stops
        at (early cancel drains in-flight earlier segments before
        merging).  Returns a
        :class:`repro.extensions.segmented.SegmentedCheckResult` whose
        per-segment results are history-free distillates.
        """
        from ..extensions.segmented import SegmentedCheckResult

        start = time.perf_counter()
        plan = self.planner.plan_segments(run)
        out = SegmentedCheckResult()
        shard_results = sorted(self._run_shards(plan.shards,
                                                _check_segment_shard),
                               key=lambda s: s.index)
        failing = [s for s in shard_results if not s.satisfies_si]
        if failing:
            out.satisfies_si = False
            out.failing_segment = min(s.segment for s in failing)
        for shard in shard_results:
            out.segment_results.append(shard.as_check_result())
            if shard.segment == out.failing_segment:
                break
        out.total_seconds = time.perf_counter() - start
        return out

    # -- dispatch -------------------------------------------------------------

    def _run_shards(self, shards: List[Shard], worker) -> List[ShardResult]:
        """Execute shards, in-process for one worker, pooled otherwise.

        Pooled dispatch submits in index order and collects as shards
        finish; on a violation with ``early_cancel`` every not-yet-run
        shard is cancelled (its result can only confirm an
        already-decided verdict).
        """
        if self.pool_workers == 1 or len(shards) == 1:
            collected = []
            for shard in sorted(shards, key=lambda s: s.index):
                shard_result = worker(shard.index, shard.payload,
                                      self._options)
                collected.append(shard_result)
                if not shard_result.satisfies_si and self.early_cancel:
                    break
            return collected

        tracer = current_tracer()
        options = (dict(self._options, _trace=True) if tracer is not None
                   else self._options)
        pool = self._pool()
        with trace_span("pool", shards=len(shards),
                        workers=self.pool_workers) as pool_span:
            pending = {
                pool.submit(worker, shard.index, shard.payload, options)
                for shard in sorted(shards, key=lambda s: s.index)
            }
            collected: List[ShardResult] = []
            cancelled = False
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    shard_result = future.result()
                    collected.append(shard_result)
                    if not shard_result.satisfies_si and self.early_cancel:
                        cancelled = True
                if cancelled:
                    log.info(
                        "violation in shard %d; cancelling %d queued shard(s)",
                        min(s.index for s in collected
                            if not s.satisfies_si),
                        len(pending),
                    )
                    # Cancel what hasn't started; *drain* what has.  The pool
                    # dispatches in submission (= shard-index) order, so when
                    # shard j completes every shard with a smaller index has
                    # already started — draining in-flight shards guarantees
                    # the merge sees all of them, and its lowest-violating-
                    # index choice matches the serial scan.
                    for future in pending:
                        if not future.cancel():
                            collected.append(future.result())
                    break
        if tracer is not None:
            # Re-parent every worker-recorded span subtree under the pool
            # span, in shard-index order, stamping the worker pid on each.
            for shard_result in sorted(collected, key=lambda s: s.index):
                if shard_result.spans:
                    tracer.adopt(shard_result.spans, parent=pool_span,
                                 worker=shard_result.worker)
        return collected


def check_snapshot_isolation_parallel(
    history: History, workers: Optional[int] = None, **options
) -> CheckResult:
    """Deprecated alias for the façade: use ``repro.check(history,
    mode="parallel", workers=N)`` instead, which returns the unified
    :class:`repro.api.Report` (this wrapper keeps returning the native
    :class:`CheckResult`)."""
    from ..deprecation import warn_deprecated

    warn_deprecated("check_snapshot_isolation_parallel()",
                    'repro.check(history, mode="parallel", workers=N)')
    with ParallelChecker(workers, **options) as checker:
        return checker.check(history)
