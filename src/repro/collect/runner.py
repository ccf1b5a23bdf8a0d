"""The collection harness: run a workload against a live database.

:class:`Collector` plays a workload specification (the
``spec[session][txn]`` format of :mod:`repro.workloads.generator`)
against an :class:`~repro.collect.adapter.Adapter`, one thread per
session with one connection each, and records every operation's
*observed* value.  The result is a
:class:`~repro.core.history.History` — the same object the batch
(:class:`~repro.core.checker.PolySIChecker`), online
(:class:`~repro.online.OnlineChecker` via ``replay`` or the commit-order
``events``) checkers consume — plus retry/abort accounting.

Abort accounting (the soundness-critical part, see DESIGN.md S8):

- A transaction attempt the database aborts is **rolled back and
  retried** up to ``retries`` times with the same operations.  The
  aborted attempt's observations are *dropped*: recording them as
  ``ABORTED`` next to a committed retry that installs the same values
  would poison the AbortedReads axiom, which indexes aborted writes by
  ``(key, value)`` and would misflag legitimate reads of the retried
  values.
- Only a *terminally* aborted transaction (out of retries) is recorded,
  with ``ABORTED`` status — its values never committed anywhere, so the
  axiom index stays truthful.  ``record_aborted=False`` drops those too,
  which is always sound (aborted transactions only ever *add* checkable
  obligations).
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, List, Optional, Sequence

from ..core.history import ABORTED, COMMITTED, History, HistoryBuilder, R, W
from .adapter import Adapter, TransactionAborted

__all__ = ["CollectOptions", "CollectionRun", "Collector", "collect_history"]


class CollectOptions:
    """Collection knobs: retry budget and abort recording."""

    __slots__ = ("retries", "record_aborted")

    def __init__(self, *, retries: int = 2, record_aborted: bool = True):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.record_aborted = record_aborted

    def __repr__(self) -> str:
        return (
            f"CollectOptions(retries={self.retries}, "
            f"record_aborted={self.record_aborted})"
        )


class CollectionRun:
    """Everything one collection produced: the history plus accounting.

    ``events`` lists ``(session, ops, status, timestamps)`` tuples in
    completion order — the first three elements are the shape
    :meth:`repro.online.OnlineChecker.add` consumes, so a collected run
    can be replayed through the online checker exactly as it unfolded;
    the fourth is the transaction's observed ``(start_ts, commit_ts)``
    interval (``None`` for aborted transactions).
    """

    __slots__ = (
        "history",
        "events",
        "adapter",
        "committed",
        "aborted",
        "retried",
        "attempts",
        "wall_seconds",
    )

    def __init__(self, history: History, events: List[tuple], *,
                 adapter: str, committed: int, aborted: int, retried: int,
                 attempts: int, wall_seconds: float):
        self.history = history
        self.events = events
        self.adapter = adapter
        self.committed = committed
        self.aborted = aborted
        self.retried = retried
        self.attempts = attempts
        self.wall_seconds = wall_seconds

    @property
    def throughput(self) -> float:
        """Completed transactions per second of wall-clock collection."""
        if self.wall_seconds <= 0:
            return 0.0
        return (self.committed + self.aborted) / self.wall_seconds

    def iter_events(self) -> Iterator[tuple]:
        """The commit-order event feed, as a generator of ``(session,
        ops, status, ts)`` tuples.

        This is the public form of the raw ``events`` list: the order is
        completion order (the order the database committed the
        transactions in, which is the order an online checker must see
        them), ``ops`` is the transaction's *observed* operation tuple,
        and ``ts`` is the ``(start_ts, commit_ts)`` interval (``None``
        for aborted transactions and pre-timestamp adapters).  The first
        three elements are exactly what
        :meth:`repro.online.OnlineChecker.add` consumes; the full tuple
        is what the ``repro-events/1`` codec
        (:func:`repro.histories.codec.event_to_json`) serializes and
        what ``repro collect --sink`` pushes to a running service.
        """
        for event in self.events:
            yield event

    def __repr__(self) -> str:
        return (
            f"CollectionRun(adapter={self.adapter!r}, "
            f"committed={self.committed}, aborted={self.aborted}, "
            f"retried={self.retried}, wall={self.wall_seconds:.3f}s)"
        )


class _SessionWorker(threading.Thread):
    """One client session: executes its transactions on its own
    connection, recording observations through the shared recorder."""

    def __init__(self, collector: "Collector", session_id: int,
                 txns: Sequence, barrier: threading.Barrier):
        super().__init__(name=f"collect-session-{session_id}", daemon=True)
        self._collector = collector
        self._session_id = session_id
        self._txns = txns
        self._barrier = barrier
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        """Thread body: open the session, run every transaction, close."""
        try:
            # Create the connection *inside* the thread: some drivers
            # (sqlite3 with default settings) pin connections to their
            # creating thread.
            session = self._collector._adapter.session(self._session_id)
            try:
                self._barrier.wait()
                for txn_spec in self._txns:
                    self._run_txn(session, txn_spec)
            finally:
                session.close()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self.error = exc
            # Unblock siblings parked at the start barrier; they see
            # BrokenBarrierError and exit instead of waiting forever.
            self._barrier.abort()

    def _run_txn(self, session, txn_spec: Sequence[tuple]) -> None:
        """Execute one transaction with the retry/abort protocol.

        Each committed attempt records its observed ``(start_ts,
        commit_ts)`` interval: the adapter's own observation when it
        provides one (:meth:`AdapterSession.timestamps`), else the
        collector's bracket around the attempt on the shared monotonic
        clock.  Only the committed attempt's interval survives —
        dropped retries lose their timestamps along with their reads.
        """
        options = self._collector._options
        for attempt in range(options.retries + 1):
            self._collector._count_attempt()
            observed = []
            bracket_start = time.perf_counter()
            try:
                session.begin()
                for op in txn_spec:
                    if op[0] == "w":
                        session.write(op[1], op[2])
                        observed.append(W(op[1], op[2]))
                    else:
                        observed.append(R(op[1], session.read(op[1])))
                ok = session.commit()
            except TransactionAborted:
                session.abort()
                ok = False
            if ok:
                # getattr, not a plain call: duck-typed sessions predating
                # the timestamps() hook keep working and get the bracket.
                report_ts = getattr(session, "timestamps", None)
                ts = report_ts() if report_ts is not None else None
                if ts is None:
                    ts = (bracket_start, time.perf_counter())
                self._collector._record(self._session_id, observed,
                                        COMMITTED, ts)
                return
            if attempt < options.retries:
                # Dropped attempt: its writes rolled back, its reads are
                # forgotten — see the module docstring for why they must
                # not enter the history.
                self._collector._count_retry()
            elif options.record_aborted:
                self._collector._record(self._session_id, observed, ABORTED)
            else:
                self._collector._count_dropped_abort()


class Collector:
    """Adapter-driven workload collector (one thread per session)."""

    def __init__(self, adapter: Adapter, *,
                 options: Optional[CollectOptions] = None):
        self._adapter = adapter
        self._options = options or CollectOptions()
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._builder = HistoryBuilder()
        self._events: List[tuple] = []
        self._committed = 0
        self._aborted = 0
        self._retried = 0
        self._attempts = 0

    # -- recording hooks (called from session threads) ---------------------

    def _record(self, session: int, ops: list, status: str,
                ts: Optional[tuple] = None) -> None:
        with self._lock:
            start_ts, commit_ts = ts if ts is not None else (None, None)
            self._builder.txn(session, ops, status=status,
                              start_ts=start_ts, commit_ts=commit_ts)
            self._events.append((session, tuple(ops), status, ts))
            if status == COMMITTED:
                self._committed += 1
            else:
                self._aborted += 1

    def _count_attempt(self) -> None:
        with self._lock:
            self._attempts += 1

    def _count_retry(self) -> None:
        with self._lock:
            self._retried += 1

    def _count_dropped_abort(self) -> None:
        with self._lock:
            self._aborted += 1

    # -- the run -----------------------------------------------------------

    def run(self, spec: Sequence[Sequence[Sequence[tuple]]]) -> CollectionRun:
        """Execute ``spec`` against the adapter and record the history.

        Calls ``adapter.setup()`` then ``adapter.teardown()`` first, so
        every run starts from an empty store — leftovers from a previous
        run would surface as reads of values no transaction in the new
        history wrote.  The adapter is left open so the caller can
        inspect it (or run again) and is responsible for the final
        ``close()``.
        """
        if not spec:
            raise ValueError("workload spec has no sessions")
        self._reset()
        self._adapter.setup()
        self._adapter.teardown()
        barrier = threading.Barrier(len(spec))
        workers = [
            _SessionWorker(self, sid, txns, barrier)
            for sid, txns in enumerate(spec)
        ]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wall = time.perf_counter() - start
        errors = [w.error for w in workers if w.error is not None]
        if errors:
            # Prefer the root cause over the BrokenBarrierError the
            # sibling threads see after an abort.
            for error in errors:
                if not isinstance(error, threading.BrokenBarrierError):
                    raise error
            raise errors[0]
        with self._lock:
            history = self._builder.build()
            return CollectionRun(
                history,
                list(self._events),
                adapter=self._adapter.name,
                committed=self._committed,
                aborted=self._aborted,
                retried=self._retried,
                attempts=self._attempts,
                wall_seconds=wall,
            )


def collect_history(
    adapter: Adapter,
    params=None,
    *,
    spec: Optional[Sequence] = None,
    seed: int = 0,
    options: Optional[CollectOptions] = None,
) -> CollectionRun:
    """Generate a workload and collect it in one call.

    Pass either generator ``params``
    (:class:`~repro.workloads.generator.WorkloadParams`) or an explicit
    ``spec``.  The adapter is closed before returning.
    """
    from ..workloads.generator import generate_workload

    try:
        if (params is None) == (spec is None):
            raise ValueError("pass exactly one of params or spec=")
        if spec is None:
            spec = generate_workload(params, seed=seed)
        return Collector(adapter, options=options).run(spec)
    finally:
        adapter.close()
