"""Segmented checking for long histories (paper Section 6, implemented).

The paper sketches this as an optimization direction: periodically take
snapshots (read-only transactions) across all sessions; each snapshot
summarizes the write state so far, so the checker only ever has to
consider the segment between two snapshots instead of the whole history.
Checking cost then scales with segment length rather than total history
length — the difference between re-checking a day of traffic and
re-checking the last minute.

The protocol implemented here:

1. :func:`run_segmented_workload` executes a workload like
   :func:`repro.storage.client.run_workload`, but every
   ``snapshot_every`` commits it *drains* in-flight transactions (a
   client-side barrier), then issues a read-only snapshot transaction
   over every key written so far and records the observed values as the
   segment boundary.
2. :func:`check_segmented` checks each segment independently: the
   previous snapshot's observations become the segment's *initial
   values* (``PolySIChecker(initial_values=...)``), so reads of
   pre-segment state resolve to the virtual init transaction, and reads
   of anything else stale are flagged.

Soundness relies on the barrier: because no transaction straddles a
boundary, a correct SI database serves every post-snapshot transaction a
snapshot at least as fresh as the barrier state.  A violation inside a
segment is a violation of the full history; cross-segment anomalies
(e.g. a stale snapshot reaching behind the barrier) surface as
unjustified reads in the segment where they occur.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.checker import CheckResult, PolySIChecker
from ..obs import trace_span
from ..core.history import (
    ABORTED,
    COMMITTED,
    History,
    HistoryBuilder,
    R,
    W,
)
from ..storage.database import MVCCDatabase

__all__ = [
    "Segment",
    "SegmentedRun",
    "SegmentedCheckResult",
    "run_segmented_workload",
    "check_segmented",
]


class Segment:
    """One inter-snapshot slice of a run."""

    __slots__ = ("index", "initial_values", "txns")

    def __init__(self, index: int, initial_values: Dict):
        self.index = index
        self.initial_values = dict(initial_values)
        #: (session, ops, status) triples, in per-session order.
        self.txns: List[Tuple[int, list, str]] = []

    def __repr__(self) -> str:
        return f"Segment(#{self.index}, txns={len(self.txns)})"


class SegmentedRun:
    """A recorded workload execution with segment boundaries."""

    def __init__(self) -> None:
        self.segments: List[Segment] = []
        self.snapshots: List[Dict] = []

    @property
    def total_txns(self) -> int:
        return sum(len(s.txns) for s in self.segments)

    def full_history(self) -> History:
        """The undivided history (for comparing against whole-history
        checking)."""
        builder = HistoryBuilder()
        for segment in self.segments:
            for session, ops, status in segment.txns:
                builder.txn(session, ops, status=status)
        return builder.build()

    def __repr__(self) -> str:
        return (
            f"SegmentedRun(segments={len(self.segments)}, "
            f"txns={self.total_txns})"
        )


class SegmentedCheckResult:
    """Aggregate verdict over all segments."""

    def __init__(self) -> None:
        self.satisfies_si = True
        self.segment_results: List[CheckResult] = []
        self.failing_segment: Optional[int] = None
        self.total_seconds = 0.0

    def __repr__(self) -> str:
        verdict = "SI" if self.satisfies_si else (
            f"VIOLATION(segment {self.failing_segment})"
        )
        return f"SegmentedCheckResult({verdict}, {self.total_seconds:.3f}s)"


def run_segmented_workload(
    db: MVCCDatabase,
    spec: Sequence[Sequence[Sequence[tuple]]],
    *,
    snapshot_every: int = 50,
    seed: int = 0,
    record_aborted: bool = True,
) -> SegmentedRun:
    """Execute ``spec`` with periodic snapshot barriers.

    Identical semantics to :func:`repro.storage.client.run_workload`,
    plus: after every ``snapshot_every`` commits the scheduler stops
    starting transactions, drains the in-flight ones, reads every key
    written so far in one read-only snapshot transaction, and opens a new
    segment seeded with the observed values.
    """
    import random

    rng = random.Random(seed)
    run = SegmentedRun()
    segment = Segment(0, {})
    run.segments.append(segment)

    class State:
        __slots__ = ("session", "txns", "ti", "oi", "handle", "observed")

        def __init__(self, session, txns):
            self.session = session
            self.txns = txns
            self.ti = 0
            self.oi = 0
            self.handle = None
            self.observed = []

    states = [State(s, txns) for s, txns in enumerate(spec) if txns]
    pending = list(states)
    written_keys: set = set()
    commits_in_segment = 0
    snapshot_session = len(spec)  # a dedicated client session

    def take_snapshot() -> Dict:
        txn = db.begin(snapshot_session)
        observed = {}
        for key in sorted(written_keys, key=str):
            observed[key] = db.read(txn, key)
        db.commit(txn)
        return observed

    while pending:
        draining = commits_in_segment >= snapshot_every
        if draining:
            candidates = [s for s in pending if s.handle is not None]
            if not candidates:
                snapshot = take_snapshot()
                run.snapshots.append(snapshot)
                segment = Segment(len(run.segments), snapshot)
                run.segments.append(segment)
                commits_in_segment = 0
                continue
        else:
            candidates = pending
        state = rng.choice(candidates)
        txn_spec = state.txns[state.ti]
        if state.handle is None:
            state.handle = db.begin(state.session)
            state.observed = []
            state.oi = 0
        if state.oi < len(txn_spec):
            op = txn_spec[state.oi]
            state.oi += 1
            if op[0] == "w":
                db.write(state.handle, op[1], op[2])
                state.observed.append(W(op[1], op[2]))
                written_keys.add(op[1])
            else:
                value = db.read(state.handle, op[1])
                state.observed.append(R(op[1], value))
        if state.oi >= len(txn_spec):
            ok = db.commit(state.handle)
            status = COMMITTED if ok else ABORTED
            if ok or record_aborted:
                segment.txns.append((state.session, state.observed, status))
            if ok:
                commits_in_segment += 1
            state.handle = None
            state.ti += 1
            if state.ti >= len(state.txns):
                pending = [s for s in pending if s is not state]

    return run


def _segment_history(segment: Segment) -> Optional[History]:
    if not segment.txns:
        return None
    builder = HistoryBuilder()
    for session, ops, status in segment.txns:
        builder.txn(session, ops, status=status)
    return builder.build()


def check_segmented(
    run: SegmentedRun,
    *,
    workers: int = 1,
    oversubscribe: bool = False,
    **checker_options,
) -> SegmentedCheckResult:
    """Deprecated alias for the façade: use
    ``repro.check(run, mode="segmented", workers=N)`` instead, which
    returns the unified :class:`repro.api.Report` (this wrapper keeps
    returning the native :class:`SegmentedCheckResult`)."""
    from ..deprecation import warn_deprecated

    warn_deprecated("check_segmented()",
                    'repro.check(run, mode="segmented", workers=N)')
    return _check_segmented(run, workers=workers,
                            oversubscribe=oversubscribe, **checker_options)


def _check_segmented(
    run: SegmentedRun,
    *,
    workers: int = 1,
    oversubscribe: bool = False,
    **checker_options,
) -> SegmentedCheckResult:
    """Check every segment of ``run`` independently.

    Stops at the first violating segment (its CheckResult carries the
    evidence); a fully clean run reports per-segment results for all
    segments.

    ``workers > 1`` checks the segments concurrently through the
    parallel engine's process pool (segments are the engine's segment
    shards); the verdict and failing-segment index match the serial
    scan, per-segment result objects are history-free distillates.
    ``checker_options`` are per-segment pipeline knobs (``prune``,
    ``compact``, ``closure_backend``) and are accepted identically at
    every worker count; ``oversubscribe`` (pool sizing,
    see :class:`repro.parallel.ParallelChecker`) only applies when
    pooled.
    """
    if workers > 1:
        from ..parallel import ParallelChecker

        with ParallelChecker(workers, oversubscribe=oversubscribe,
                             **checker_options) as checker:
            return checker.check_segments(run)
    result = SegmentedCheckResult()
    start = time.perf_counter()
    for segment in run.segments:
        history = _segment_history(segment)
        if history is None:
            continue
        checker = PolySIChecker(
            initial_values=segment.initial_values, **checker_options
        )
        with trace_span("segment", index=segment.index,
                        txns=len(segment.txns)) as span:
            segment_result = checker.check(history)
            span.set(satisfies_si=segment_result.satisfies_si)
        result.segment_results.append(segment_result)
        if not segment_result.satisfies_si:
            result.satisfies_si = False
            result.failing_segment = segment.index
            break
    result.total_seconds = time.perf_counter() - start
    return result
