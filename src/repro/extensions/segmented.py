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
2. ``repro.check(run, mode="segmented")`` checks each segment
   independently (:func:`_check_segmented`): the previous snapshot's
   observations become the segment's *initial values*
   (``PolySIChecker(initial_values=...)``), so reads of pre-segment
   state resolve to the virtual init transaction, and reads of anything
   else stale are flagged.

Soundness relies on the barrier: because no transaction straddles a
boundary, a correct SI database serves every post-snapshot transaction a
snapshot at least as fresh as the barrier state.  A violation inside a
segment is a violation of the full history; cross-segment anomalies
(e.g. a stale snapshot reaching behind the barrier) surface as
unjustified reads in the segment where they occur.

The same barrier makes segments independent of each other, so with
``workers > 1`` they are checked concurrently on a process pool (the
segment pool, :func:`_check_pooled`).  It changes only *when* each
segment is checked, never against what initial values: the verdict and
the reported ``failing_segment`` equal the serial scan's.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.checker import CheckResult, PolySIChecker
from ..obs import Tracer, current_tracer, get_logger, trace_span, use_tracer
from ..core.history import (
    ABORTED,
    COMMITTED,
    History,
    HistoryBuilder,
    R,
    W,
)
from ..storage.database import MVCCDatabase

log = get_logger("extensions.segmented")

__all__ = [
    "Segment",
    "SegmentedRun",
    "SegmentedCheckResult",
    "run_segmented_workload",
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


def _check_segment(segment: Segment, options: dict) -> CheckResult:
    """Check one segment as its own history, seeded with the previous
    snapshot's observations."""
    builder = HistoryBuilder()
    for session, ops, status in segment.txns:
        builder.txn(session, ops, status=status)
    checker = PolySIChecker(initial_values=segment.initial_values, **options)
    with trace_span("segment", index=segment.index,
                    txns=len(segment.txns)) as span:
        result = checker.check(builder.build())
        span.set(satisfies_si=result.satisfies_si)
    return result


def _pooled_segment(segment: Segment, options: dict, traced: bool):
    """Pool worker body: check ``segment`` and ship back a picklable
    distillate — no encoding, and the polygraph only for a violating
    segment, whose witness interpretation needs it — plus the spans a
    worker-local tracer recorded and the worker pid.

    ``traced``, not the ambient state, decides whether spans are
    recorded: a fork-started worker inherits the parent's ambient
    tracer, but spans recorded there would die with the fork's copy."""
    if traced:
        tracer = Tracer()
        with use_tracer(tracer):
            result = _check_segment(segment, options)
        spans = tracer.export_spans()
    else:
        result, spans = _check_segment(segment, options), []
    result.encoding = None
    if result.satisfies_si:
        result.polygraph = None
    return result, spans, os.getpid()


def _check_pooled(segments: List[Segment], pool_workers: int,
                  options: dict) -> List[Tuple[Segment, CheckResult]]:
    """Check ``segments`` on a process pool; returns ``(segment,
    result)`` in segment order for every segment that ran.

    Segments are submitted in order.  The first violation cancels every
    segment not yet started (its result could only confirm the verdict);
    segments already in flight are drained.  Because the pool starts work
    in submission order, every segment before a violating one has started
    by then, so the lowest violating segment is always among the results
    — the one the serial scan stops at.
    """
    tracer = current_tracer()
    pool = ProcessPoolExecutor(max_workers=pool_workers)
    try:
        with trace_span("pool", segments=len(segments),
                        workers=pool_workers) as pool_span:
            futures = [pool.submit(_pooled_segment, segment, options,
                                   tracer is not None)
                       for segment in segments]
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                if any(not f.result()[0].satisfies_si for f in done):
                    log.info("violating segment; cancelling %d queued "
                             "segment(s)", len(pending))
                    for future in pending:
                        future.cancel()
                    break
            ran = [(segment, future.result())
                   for segment, future in zip(segments, futures)
                   if not future.cancelled()]
    finally:
        # A segment that raised leaves the rest queued: drop them.
        pool.shutdown(cancel_futures=True)
    for _segment, (_result, spans, pid) in ran:
        if spans:
            tracer.adopt(spans, parent=pool_span, worker=pid)
    return [(segment, result) for segment, (result, _spans, _pid) in ran]


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

    ``workers > 1`` checks the segments concurrently on the segment pool
    (:func:`_check_pooled`); the verdict and failing-segment index match
    the serial scan, and per-segment results are distillates.  The pool
    is capped at ``os.cpu_count()`` processes — segment checks are
    CPU-bound — unless ``oversubscribe``; one process, or one non-empty
    segment, is checked in-process.  ``checker_options`` are per-segment
    pipeline knobs (``prune``, ``compact``) and are
    accepted identically at every worker count.
    """
    start = time.perf_counter()
    segments = [segment for segment in run.segments if segment.txns]
    if not oversubscribe:
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(segments) > 1:
        checked = _check_pooled(segments, workers, checker_options)
    else:
        # Lazy, so the scan checks nothing past the first violation.
        checked = ((segment, _check_segment(segment, checker_options))
                   for segment in segments)
    result = SegmentedCheckResult()
    for segment, segment_result in checked:
        result.segment_results.append(segment_result)
        if not segment_result.satisfies_si:
            result.satisfies_si = False
            result.failing_segment = segment.index
            break
    result.total_seconds = time.perf_counter() - start
    return result
