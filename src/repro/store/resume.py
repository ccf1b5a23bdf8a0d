"""Checkpointed, resumable online checking over a segment store.

:class:`PersistentCheck` is the one driver of the S14 protocol: it is
the only code that opens a journal, restores a checkpoint, replays a
tail or writes a checkpoint, and every caller goes through it:

- ``repro watch`` journals each streamed event before checking it
  (with ``--state-dir``; without one it drives an in-memory checker
  through the same calls);
- ``repro check <state-dir>`` (and the facade's ``state_dir`` option)
  replays a store's log — restoring the newest checkpoint first, so
  only the tail is re-checked — and finishes;
- each service-daemon tenant journals on its ingest door
  (:meth:`journal`) and checks on the checker thread (:meth:`check`).

The protocol (DESIGN.md S14):

1. **Journal before check.**  An event is appended to the store
   (flushed — SIGKILL-durable) *before* the checker sees it, so an
   accepted event is never lost: either it is in the log, or it was
   never acknowledged.
2. **Checkpoint at k = state after the first k events checked.**  The
   key is the number of events the checker has consumed; under
   :meth:`feed` that is also the journal's length, and in the daemon,
   whose ingest door journals ahead of its checker thread, it is the
   only sound key.  A checkpoint is taken synchronously between
   batches, so the pair (checkpoint, log) is always consistent, and it
   is best-effort: a failed write is counted and the journal stays the
   record.
3. **Resume = restore + replay tail.**  The tail is replayed in slices
   of at most :data:`BATCH_EVENTS`, cut at checkpoint positions, each
   through :meth:`check` — the call a live daemon batch takes.

A latched violation ends checkpointing (the checker refuses to
snapshot a final verdict) but not journaling — the log stays the
complete record of what was accepted, which is what the offline
``repro check <state-dir>`` cross-check needs.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from ..core.history import COMMITTED
from ..histories.codec import event_from_json, event_to_json
from ..obs import current_metrics, trace_span
from ..online.checker import OnlineChecker, OnlineResult
from ..utils.gcpause import collector_paused
from .segments import SegmentStore

__all__ = ["BATCH_EVENTS", "PersistentCheck", "ingest_error",
           "run_persistent_check"]

#: The most events one :meth:`PersistentCheck.check` call takes: the
#: slice a journal tail is replayed in, and the batch the service's
#: checker thread takes from one tenant before it moves on to the next
#: ready one.  A constant, not an option: 16, 64 and 256 measured inside
#: each other's noise (docs/benchmarks.md, "one checker thread for all
#: tenants").
BATCH_EVENTS = 64


def ingest_error(detail: str) -> OnlineResult:
    """The final ``ingest-error`` verdict of a stream that could not be
    checked to its end (an event the checker rejected, a failed journal
    append, a crashed tenant)."""
    out = OnlineResult()
    out.satisfies_si = False
    out.final = True
    out.decided_by = "ingest-error"
    out.stats = {"error": detail}
    return out


class PersistentCheck:
    """An :class:`~repro.online.OnlineChecker` bound to a
    :class:`~repro.store.segments.SegmentStore`.

    Parameters
    ----------
    store:
        An open store, a path (opened/created via ``open_or_create``;
        ``store_kwargs`` are passed through), or None — then nothing is
        journaled and no checkpoint is written.
    resume:
        Restore the newest checkpoint and replay only the log tail.
        With ``resume=False`` the whole log is replayed from scratch
        (the checkpoint files are ignored, not deleted).
    checkpoint_every:
        Checkpoint after every N checked events (0 disables; a final
        checkpoint is still written by :meth:`finish`).
    on_batch:
        Called with every slice :meth:`check` takes — replayed ones
        included — before it is checked.
    checker_kwargs:
        Passed to :class:`OnlineChecker` when no checkpoint is being
        restored.  When one is, the checkpoint's own recorded
        configuration wins — a resumed run must continue under the
        rules it started with.
    """

    def __init__(self, store=None, *, resume: bool = True,
                 checkpoint_every: int = 256,
                 store_kwargs: Optional[dict] = None,
                 on_batch: Optional[Callable[[List[tuple]], None]] = None,
                 **checker_kwargs):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self._owns_store = not (store is None
                                or isinstance(store, SegmentStore))
        if self._owns_store:
            store = SegmentStore.open_or_create(store, **(store_kwargs or {}))
        self.store: Optional[SegmentStore] = store
        self.checkpoint_every = checkpoint_every
        self.on_batch = on_batch
        #: Events checked so far — the checkpoint key.
        self.events = 0
        self.committed_seen = 0
        self.stamped_seen = 0
        #: The first failure that poisoned the stream (an event the
        #: checker rejected, a failed journal append), latched: the
        #: checker is fed nothing more, no checkpoint is written, and
        #: the verdict is :func:`ingest_error` — a later clean event
        #: must not replace it.
        self.error: Optional[str] = None
        self.resumed_from = 0
        self.replayed = 0
        self.checkpoints_written = 0
        self.restore_seconds = 0.0

        t0 = time.perf_counter()
        checkpoint = (store.latest_checkpoint_payload()
                      if store is not None and resume else None)
        if checkpoint is not None:
            self.checker = OnlineChecker.restore(checkpoint["checker"])
            extra = checkpoint.get("extra") or {}
            self.resumed_from = self.events = checkpoint["events"]
            self.committed_seen = int(extra.get("committed_seen", 0))
            self.stamped_seen = int(extra.get("stamped_seen", 0))
        else:
            self.checker = OnlineChecker(**checker_kwargs)
        #: Verdict after the last batch (plain: no persistence block).
        self.latest = self.checker.result()
        if store is not None:
            self._replay_tail()
            self.restore_seconds = time.perf_counter() - t0
            registry = current_metrics()
            if registry is not None:
                registry.counter("store.resumes").inc()
                registry.gauge("store.replayed").set(self.replayed)

    # -- lifecycle -----------------------------------------------------------

    def _replay_tail(self) -> None:
        """Re-check every journaled event past the restored checkpoint,
        sliced as live batches are (:meth:`slice_limit`), so the
        verdict, counters and checkpoints match an uninterrupted run."""
        with trace_span("replay", start=self.resumed_from,
                        total=self.store.total_events):
            batch: List[tuple] = []
            for _pos, event in self.store.iter_events(self.resumed_from):
                batch.append(event)
                if len(batch) == self.slice_limit():
                    self.check(batch)
                    batch = []
            if batch:
                self.check(batch)
        self.replayed = self.events - self.resumed_from

    @property
    def recovered_events(self) -> int:
        """Events already in the log when this driver opened it."""
        return self.resumed_from + self.replayed

    def slice_limit(self) -> int:
        """Events the next :meth:`check` may take: :data:`BATCH_EVENTS`,
        cut at the next checkpoint position, so every checkpoint falls
        on a batch end — where it fell when events were checked one by
        one."""
        every = self.checkpoint_every
        if self.store is None or not every:
            return BATCH_EVENTS
        return min(BATCH_EVENTS, every - self.events % every)

    def journal(self, event: Sequence, *, decoded: bool = False) -> None:
        """Append one ``(session, ops, status[, ts])`` event (flushed)
        before anything checks it.  ``decoded``: the event came out of
        the codec (the service's doors decode every line), so it is not
        decoded again to validate it.  A failed append latches
        :attr:`error` — the journal no longer holds the stream — and
        raises."""
        if self.store is None:
            return
        try:
            if decoded:
                self.store.append_decoded(event)
            else:
                self.store.append_event(event)
        except Exception as exc:
            if self.error is None:
                self.error = f"journal failed: {exc}"
            raise

    def check(self, events: List[tuple]) -> OnlineResult:
        """Check one slice of journaled events as one
        :meth:`~repro.online.OnlineChecker.extend` batch — unless the
        stream is poisoned — then decide a checkpoint.  Returns the
        plain verdict (:attr:`latest`)."""
        if self.on_batch is not None:
            self.on_batch(events)
        for event in events:
            if event[2] == COMMITTED:
                self.committed_seen += 1
                ts = event[3] if len(event) > 3 else None
                if ts is not None and ts[0] is not None and ts[1] is not None:
                    self.stamped_seen += 1
        if self.error is None:
            try:
                self.latest = self.checker.extend(events)
            except Exception as exc:  # noqa: BLE001 - the log holds it
                # Undeclared session under a window, duplicate values,
                # ...: the events are journaled (and, in the daemon,
                # acknowledged), so the error is the verdict.
                self.error = str(exc)
        if self.error is not None:
            self.latest = ingest_error(self.error)
        self.events += len(events)
        self._maybe_checkpoint()
        return self.latest

    def result(self) -> OnlineResult:
        """Verdict so far, with the persistence block in ``stats``."""
        return self._decorate(self.latest)

    def feed(self, session: int, ops: Sequence, *, status: str = "committed",
             ts=None) -> OnlineResult:
        """Journal one event, check it, maybe checkpoint.

        The append happens first — by the time the checker (or anything
        after it) can fail, the event is already durable.
        """
        event = (session, ops, status, ts)
        self.journal(event)
        return self._decorate(self.check([event]))

    def feed_events(self, events: Iterable[Sequence]) -> OnlineResult:
        """Journal and check a ``(session, ops, status[, ts])`` stream."""
        result = self.result()
        for event in events:
            ts = event[3] if len(event) > 3 else None
            result = self.feed(event[0], event[1], status=event[2], ts=ts)
        return result

    def unjournaled(self, events: Iterable[Sequence]) -> Iterator[Sequence]:
        """``events`` past what the journal already holds.

        A stream re-run on a non-empty journal — ``watch`` regenerating
        its seeded stream, the facade re-checking a history — must begin
        with the journaled events, which were recovered already and are
        skipped.  Any other stream raises
        :class:`~repro.api.CheckerError` before an event is yielded, so
        before any of it is appended.  Each subject event is encoded
        once and compared with the journaled line; a line is decoded
        only when the two differ in spelling."""
        from ..api.registry import CheckerError

        events = iter(events)
        if self.store is not None:
            for position, line in self.store.iter_lines():
                event = next(events, None)
                encoded = None if event is None else event_to_json(event)
                if encoded != line and (
                        encoded is None
                        or event_to_json(event_from_json(line)) != encoded):
                    raise CheckerError(
                        f"{self.store.path} already journals a different "
                        f"stream: its event {position} is not the "
                        "subject's (re-check the journal with subject "
                        "None, or use a fresh state_dir)"
                    )
        yield from events

    def finish(self) -> OnlineResult:
        """End-of-stream verdict; writes a final checkpoint when the
        stream is still healthy (so a later ``--resume`` is instant) —
        unless this driver restored a checkpoint at this very position
        and checked nothing since, which would only rewrite it.  A
        latched :attr:`error` is the verdict even when no slice was
        checked after it latched (a journal failure on the ingest door
        of a daemon whose checker was idle)."""
        if self.error is not None:
            self.latest = ingest_error(self.error)
        else:
            self.latest = self.checker.finish()
            restored_here = (self.resumed_from
                             and self.events == self.resumed_from)
            if self.latest.satisfies_si and not restored_here:
                self._checkpoint()
        return self._decorate(self.latest)

    def close(self) -> None:
        """Close the store (only if this driver opened it)."""
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "PersistentCheck":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpointing -------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_every and not self.events % self.checkpoint_every:
            self._checkpoint()

    @collector_paused
    def _checkpoint(self) -> None:
        """Snapshot the checker at the current check position.

        No-op without a store, and once a violation or an error has
        latched: the verdict is final (:meth:`OnlineChecker.snapshot`
        refuses).  Best-effort — a failed checkpoint only means a resume
        replays more of the journal.  The cyclic collector sits out both
        the snapshot and the write, so the payload's containers are
        freed before it runs again.
        """
        if (self.store is None or self.error is not None
                or not self.latest.satisfies_si):
            return
        registry = current_metrics()
        try:
            with trace_span("checkpoint", events=self.events):
                self.store.save_checkpoint(
                    self.events, self.checker.snapshot(),
                    extra={"committed_seen": self.committed_seen,
                           "stamped_seen": self.stamped_seen})
        except Exception:  # noqa: BLE001 - the journal stays the record
            if registry is not None:
                registry.counter("store.checkpoint_errors").inc()
            return
        self.checkpoints_written += 1
        if registry is not None:
            registry.counter("store.checkpoints").inc()

    def persistence(self) -> Optional[dict]:
        """The ``persistence`` block (None without a store)."""
        store = self.store
        if store is None:
            return None
        return {
            "state_dir": store.path,
            "journaled_events": store.total_events,
            "segments": store.segments,
            "resumed_from": self.resumed_from,
            "replayed": self.replayed,
            "recovered_events": self.recovered_events,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_every": self.checkpoint_every,
            "restore_seconds": self.restore_seconds,
        }

    def _decorate(self, result: OnlineResult) -> OnlineResult:
        persistence = self.persistence()
        if persistence is None:
            return result
        result = copy.copy(result)
        result.stats = {**result.stats, "persistence": persistence}
        return result


def run_persistent_check(path: str, events: Optional[Iterable] = None,
                         *, resume: bool = True, checkpoint_every: int = 256,
                         store_kwargs: Optional[dict] = None,
                         **checker_kwargs) -> OnlineResult:
    """One-shot persistent check of a state directory.

    With ``events`` — journal + check those the log does not hold yet
    (:meth:`PersistentCheck.unjournaled`: a re-check of the stream that
    wrote the log appends nothing), then finish.  Without — re-derive
    the verdict of the journaled log alone: restore the newest
    checkpoint, replay the tail segment by segment (the log never needs
    to fit in memory), finish.  This is what ``repro check <state-dir>``
    runs.
    """
    with PersistentCheck(path, resume=resume,
                         checkpoint_every=checkpoint_every,
                         store_kwargs=store_kwargs,
                         **checker_kwargs) as check:
        if events is not None:
            check.feed_events(check.unjournaled(events))
        return check.finish()
