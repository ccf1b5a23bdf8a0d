"""The online incremental SI checker.

:class:`OnlineChecker` accepts transactions one at a time (or in
micro-batches) and maintains, incrementally, everything the batch
pipeline (:mod:`repro.core.checker`) recomputes from scratch:

- **axioms** — Int is checked per arriving transaction; AbortedReads,
  IntermediateReads, unjustified and future reads are resolved against
  running indexes.  A read whose writer has not arrived yet *pends*
  until the writer shows up (streams deliver in commit order, not
  dependency order); pending reads left over at :meth:`finish` are
  unjustified, exactly as in the batch construction.
- **polygraph** — each committed transaction adds its SO/WR edges and
  one generalized constraint per existing writer of each key it wrote.
  Constraint branches are materialized lazily from the reader index, so
  a branch automatically reflects readers that arrive *after* the
  constraint was created; when a new reader observes a writer whose
  version order is already resolved, the implied anti-dependency edge is
  emitted immediately.
- **pruning** — the known induced graph ``KI = Dep ∪ (Dep ; AntiDep)``
  is extended edge by edge through the shared incremental-closure
  kernel (:class:`repro.utils.closure.ClosureBackend`); the
  paper's two impossibility rules (Section 4.3) run to fixpoint over the
  surviving constraints only.  A cycle materializing in the known graph
  is a violation the moment the closing edge arrives.
- **solving** — one :class:`~repro.core.encoding.SIEncoding` (the same
  incremental encoder the batch pipeline calls once) and its solver
  persist across calls.  Known edges enter the static substrate, new
  constraint clauses are added at the root level, and each call re-solves
  only what pruning left unresolved — *keeping the learned clauses of
  every previous call* (sound because clauses are only ever added; see
  DESIGN.md, "Incremental solving").  This module keeps only the policy
  of when to solve; the instance lives until a window compaction
  renumbers the vertices under it.

With a :class:`~repro.online.window.WindowPolicy` installed, closed-over
transactions are evicted and the state periodically compacted, bounding
memory on unbounded streams at the cost of coarser witnesses (the
verdict is preserved; see the window module and DESIGN.md).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.axioms import AxiomViolation, int_violations
from ..core.encoding import SIEncoding
from ..core.history import (
    ABORTED,
    COMMITTED,
    DuplicateValueError,
    History,
    INITIAL_VALUE,
    Operation,
    Transaction,
)
from ..core.known import KnownGraph
from ..core.polygraph import Edge, RW, SO, WR, WW, branch_edges
from ..core.pruning import branch_impossible, find_known_cycle
from ..obs import current_metrics, get_logger, trace_span
from ..solver.cdcl import SolverStats
from ..utils.closure import CYCLE, resolve_closure_backend
from .window import WindowPolicy, WindowStats

log = get_logger("online")

__all__ = ["OnlineChecker", "OnlineResult"]


class OnlineResult:
    """Verdict-so-far (or final verdict) of an online checking session."""

    __slots__ = (
        "satisfies_si",
        "final",
        "decided_by",
        "anomalies",
        "cycle",
        "names",
        "timings",
        "stats",
    )

    def __init__(self) -> None:
        self.satisfies_si: bool = True
        #: False while reads may still pend / constraints await a solve.
        self.final: bool = False
        self.decided_by: str = "incremental"
        self.anomalies: List[AxiomViolation] = []
        self.cycle: Optional[List[Edge]] = None
        #: Vertex -> display name, snapshotted when the verdict latched
        #: (vertex ids are unstable across window compactions).
        self.names: Dict[int, str] = {}
        #: Cumulative per-stage seconds: ingest / prune / solve / gc.
        self.timings: Dict[str, float] = {}
        #: Stream counters: accepted, aborted, pending_reads,
        #: unresolved_constraints, solves, solver_builds, window stats,
        #: solver stats (cumulative over every instance built).
        self.stats: Dict[str, object] = {}

    @property
    def total_time(self) -> float:
        """Cumulative checking seconds across all stages."""
        return sum(self.timings.values())

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        if self.satisfies_si:
            state = "final" if self.final else "so far"
            return f"stream satisfies snapshot isolation ({state})"
        if self.anomalies:
            lines = [f"stream violates SI ({self.decided_by}):"]
            lines += [f"  - {a!r}" for a in self.anomalies]
            return "\n".join(lines)
        parts = []
        if self.cycle:
            for u, v, label, key in self.cycle:
                suffix = f"({key})" if key is not None else ""
                name_u = self.names.get(u, str(u))
                name_v = self.names.get(v, str(v))
                parts.append(f"{name_u} -{label}{suffix}-> {name_v}")
        return "stream violates SI (%s): cycle %s" % (
            self.decided_by, "; ".join(parts),
        )

    def __repr__(self) -> str:
        verdict = "SI" if self.satisfies_si else f"VIOLATION({self.decided_by})"
        return f"OnlineResult({verdict}, final={self.final})"


def _cons_key(key, a: int, b: int) -> tuple:
    return (key, a, b) if a < b else (key, b, a)


#: Version tag of the :meth:`OnlineChecker.snapshot` payload (embedded
#: in ``repro-checkpoint/1`` checkpoint files; see docs/persistence.md).
STATE_VERSION = 1


def _enc_txn(txn: Optional[Transaction]):
    if txn is None:
        return None
    record = [txn.tid, txn.session, txn.index, txn.status,
              [[op.kind, op.key, op.value] for op in txn.ops]]
    if txn.start_ts is not None or txn.commit_ts is not None:
        record.append([txn.start_ts, txn.commit_ts])
    return record


def _dec_txn(record) -> Optional[Transaction]:
    if record is None:
        return None
    tid, session, index, status, ops = record[:5]
    ts = record[5] if len(record) > 5 else (None, None)
    return Transaction(
        tid, [Operation(kind, key, value) for kind, key, value in ops],
        session=session, index=index, status=status,
        start_ts=ts[0], commit_ts=ts[1],
    )


class OnlineChecker:
    """Incremental snapshot-isolation checking over a transaction stream.

    Parameters
    ----------
    prune:
        Run the incremental pruning fixpoint after each transaction
        (recommended; without it every constraint goes to the solver).
    solve_every:
        Solve the SAT residue every N accepted transactions (1 = every
        transaction).  Between solves the verdict is provisional.
    window:
        Optional :class:`WindowPolicy` bounding memory on unbounded
        streams via verdict-preserving eviction.  Requires ``sessions``.
    sessions:
        The full set of session ids the stream may contain.  Mandatory
        with a window: SI lets a session's *first* transaction read an
        arbitrarily old snapshot, so no version is safely evictable
        until every session has committed something — an undeclared
        session could always still legally read it (see DESIGN.md,
        "Window soundness").
    initial_values:
        Map key -> value considered initial (as in the batch checker).
    closure_backend:
        Incremental-closure backend name (``"python"``, ``"numpy"``) or
        None to honour ``REPRO_CLOSURE_BACKEND`` / auto-selection; the
        resolved name is reported in ``stats["closure_backend"]``.

    Typical use::

        checker = OnlineChecker()
        for session, ops, status in stream:
            r = checker.add(session, ops, status=status)
            if not r.satisfies_si:
                break
        final = checker.finish()
    """

    def __init__(
        self,
        *,
        prune: bool = True,
        solve_every: int = 1,
        window: Optional[WindowPolicy] = None,
        sessions: Optional[Iterable[int]] = None,
        initial_values: Optional[dict] = None,
        closure_backend: Optional[str] = None,
    ):
        if solve_every < 1:
            raise ValueError("solve_every must be >= 1")
        if window is not None and sessions is None:
            raise ValueError(
                "windowed checking requires the session universe: pass "
                "sessions=<iterable of session ids> (eviction is unsound "
                "when an unseen session may still join the stream)"
            )
        self.prune = prune
        self.solve_every = solve_every
        self.window = window
        self.sessions = frozenset(sessions) if sessions is not None else None
        self.initial_values = initial_values or {}

        # Vertex 0 is the virtual init transaction.
        self._n = 1
        self._txn_of: List[Optional[Transaction]] = [None]
        self._live: List[bool] = [True]
        self._pending_count: List[int] = [0]
        self._reads_of: List[List[tuple]] = [[]]
        self._session_tail: Dict[int, int] = {}
        self._session_count: Dict[int, int] = {}

        self._writer_index: Dict[tuple, int] = {}
        self._aborted_writes: Dict[tuple, tuple] = {}   # (key,v) -> (name, seq)
        self._intermediate: Dict[tuple, tuple] = {}     # (key,v) -> (name, seq)
        self._pending: Dict[tuple, List[int]] = {}      # (key,v) -> readers
        self._writers_of: Dict[object, List[int]] = {}
        self._readers_from: Dict[tuple, List[int]] = {}
        self._init_keys: set = set()

        self._known_edges: Dict[Edge, None] = {}    # insertion-ordered set
        self._known = KnownGraph(1)
        self._ww_succ: Dict[int, Dict[object, set]] = {}

        backend_cls = resolve_closure_backend(closure_backend)
        self.closure_backend = backend_cls.name
        self._ki = backend_cls(1)
        self._dep_reach = backend_cls(1) if window else None

        self._unresolved: Dict[tuple, bool] = {}
        self._unresolved_touch: Dict[int, int] = {}
        self._resolved_dir: Dict[tuple, bool] = {}

        self._enc: Optional[SIEncoding] = None
        # One set of solver counters for the whole stream: every
        # instance built (one per compaction epoch) counts into it.
        self._solver_stats = SolverStats()
        self._solver_builds = 0

        self._violation: Optional[OnlineResult] = None
        self._solver_dirty = True
        self._accepted = 0
        self._aborted_seen = 0
        self._seq = 0
        self._live_count = 0
        self._solves = 0
        self._timings: Dict[str, float] = {}
        self._wstats = WindowStats()

    # -- public API ----------------------------------------------------------

    def add(self, session: int, ops: Sequence[Operation],
            *, status: str = COMMITTED) -> OnlineResult:
        """Feed one transaction; returns the (provisional) verdict."""
        self._ingest(session, ops, status)
        if self._violation is None and status == COMMITTED:
            self._maybe_collect()
            if self._accepted % self.solve_every == 0:
                self._solve_residue()
        return self.result()

    def extend(self, txns: Iterable[tuple]) -> OnlineResult:
        """Feed a micro-batch of ``(session, ops[, status])`` tuples.

        Structural updates and pruning run per transaction; the solver
        runs once at the end of the batch, amortizing its cost.
        """
        for item in txns:
            session, ops = item[0], item[1]
            status = item[2] if len(item) > 2 else COMMITTED
            self._ingest(session, ops, status)
            if self._violation is not None:
                return self.result()
        self._maybe_collect()
        self._solve_residue()
        return self.result()

    def replay(self, history: History) -> OnlineResult:
        """Feed a recorded :class:`History` in transaction-id order and
        finish — the online equivalent of one batch check."""
        for txn in history.transactions:
            self._ingest(txn.session, txn.ops, txn.status)
            if self._violation is not None:
                return self.finish()
            self._maybe_collect()
            if self._accepted % self.solve_every == 0:
                self._solve_residue()
        return self.finish()

    def result(self) -> OnlineResult:
        """Verdict so far (does not judge still-pending reads)."""
        if self._violation is not None:
            return self._violation
        out = OnlineResult()
        self._fill_stats(out)
        return out

    def finish(self) -> OnlineResult:
        """End-of-stream verdict: pending reads become unjustified reads
        (no writer will ever arrive), and any solver residue is solved."""
        if self._violation is None and self._pending:
            anomalies = []
            for (key, value), readers in sorted(
                    self._pending.items(), key=lambda item: str(item[0])):
                for reader in readers:
                    txn = self._txn_of[reader]
                    anomalies.append(AxiomViolation(
                        "UnjustifiedRead", txn, key, value,
                        f"read {value!r} on {key!r}, written by no committed "
                        "transaction",
                    ))
            self._latch("axioms", anomalies=anomalies)
        if self._violation is None:
            self._solve_residue()
        out = self.result()
        out.final = True
        return out

    @property
    def live_transactions(self) -> int:
        """Committed transactions currently resident in the window."""
        return self._live_count

    @property
    def unresolved_constraints(self) -> int:
        """Generalized constraints pruning has not yet resolved."""
        return len(self._unresolved)

    # -- persistence ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The checker's full state as a JSON-able dict.

        Captures everything a sound resume needs (DESIGN.md S14): the
        transaction tables and axiom indexes, the known typed edges,
        the induced-graph closure rows (through the backend-independent
        :meth:`~repro.utils.closure.ClosureBackend.int_rows`
        serialization, so a numpy-written checkpoint restores under the
        python backend and vice versa), the unresolved/resolved
        constraints, the solver's clauses *including learned CDCL
        clauses*, window metadata, and every counter that feeds
        ``Report.stats``.

        Keys, values, and session ids must be JSON scalars — true by
        construction for any stream that arrived through the
        ``repro-events/1`` codec (the store, the service daemon, and
        ``watch`` all do).  Raises ``ValueError`` after a latched
        violation: the verdict is final at that point, so there is no
        state worth persisting — persist the verdict instead.
        """
        if self._violation is not None:
            raise ValueError(
                "cannot snapshot after a latched violation; the verdict "
                "is final — record the verdict, not the checker state"
            )
        with trace_span("snapshot", accepted=self._accepted,
                        live=self._live_count):
            state = self._snapshot_state()
        registry = current_metrics()
        if registry is not None:
            registry.counter("online.snapshots").inc()
        return state

    def _snapshot_state(self) -> dict:
        window = self.window
        solver_state = (self._enc.export_state()
                        if self._enc is not None else None)
        return {
            "v": STATE_VERSION,
            "config": {
                "prune": self.prune,
                "solve_every": self.solve_every,
                "window": (
                    [window.max_live, window.gc_every,
                     window.compact_fraction]
                    if window is not None else None
                ),
                "sessions": (sorted(self.sessions)
                             if self.sessions is not None else None),
                "initial_values": [
                    [k, v] for k, v in self.initial_values.items()],
                "closure_backend": self.closure_backend,
            },
            "n": self._n,
            "txns": [_enc_txn(t) for t in self._txn_of],
            "live": [bool(x) for x in self._live],
            "pending_count": list(self._pending_count),
            "reads_of": [[[w, key] for (w, key) in reads]
                         for reads in self._reads_of],
            "session_tail": [[s, v]
                             for s, v in self._session_tail.items()],
            "session_count": [[s, c]
                              for s, c in self._session_count.items()],
            "writer_index": [[key, value, v]
                             for (key, value), v in
                             self._writer_index.items()],
            "aborted_writes": [[key, value, name, seq]
                               for (key, value), (name, seq) in
                               self._aborted_writes.items()],
            "intermediate": [[key, value, name, seq]
                             for (key, value), (name, seq) in
                             self._intermediate.items()],
            "pending": [[key, value, list(readers)]
                        for (key, value), readers in self._pending.items()],
            "writers_of": [[key, list(writers)]
                           for key, writers in self._writers_of.items()],
            "readers_from": [[w, key, list(readers)]
                             for (w, key), readers in
                             self._readers_from.items()],
            "init_keys": sorted(self._init_keys, key=repr),
            "known_edges": [list(edge) for edge in self._known_edges],
            "ki_rows": [format(row, "x") for row in self._ki.int_rows()],
            "dep_rows": (
                [format(row, "x") for row in self._dep_reach.int_rows()]
                if self._dep_reach is not None else None
            ),
            "unresolved": [[key, t, s] for (key, t, s) in self._unresolved],
            "resolved_dir": [[key, t, s, d]
                             for (key, t, s), d in
                             self._resolved_dir.items()],
            "solver": solver_state,
            "solver_dirty": self._solver_dirty,
            "counters": {
                "accepted": self._accepted,
                "aborted_seen": self._aborted_seen,
                "seq": self._seq,
                "live_count": self._live_count,
                "solves": self._solves,
                "solver_builds": self._solver_builds,
                "solver": self._solver_stats.as_dict(),
            },
            "timings": dict(self._timings),
            "window_stats": self._wstats.as_dict(),
        }

    @classmethod
    def restore(cls, state: dict) -> "OnlineChecker":
        """Rebuild a checker from :meth:`snapshot` output.

        The restored instance continues the stream exactly where the
        snapshot left off: same verdict, same anomaly classification,
        same known-edge count as the uninterrupted run (the resume-
        equivalence suite in ``tests/test_resume.py`` pins this).

        Derived structure is rebuilt the same way :meth:`_compact`
        rebuilds it after a window compaction — from the persisted
        known edges — and the closure comes back through ``from_rows``,
        so direct-edge bookkeeping collapses onto the closure exactly
        as it does post-compaction (the soundness argument of DESIGN.md
        S14 builds on the S9 window argument for this reason).
        """
        version = state.get("v")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported checker snapshot version {version!r} "
                f"(this build reads {STATE_VERSION})"
            )
        cfg = state["config"]
        window = (WindowPolicy(cfg["window"][0], cfg["window"][1],
                               cfg["window"][2])
                  if cfg["window"] is not None else None)
        checker = cls(
            prune=cfg["prune"],
            solve_every=cfg["solve_every"],
            window=window,
            sessions=cfg["sessions"],
            initial_values={k: v for k, v in cfg["initial_values"]},
            closure_backend=cfg["closure_backend"],
        )
        with trace_span("restore",
                        accepted=state["counters"]["accepted"]):
            checker._restore_state(state)
        registry = current_metrics()
        if registry is not None:
            registry.counter("online.restores").inc()
        return checker

    def _restore_state(self, state: dict) -> None:
        self._n = state["n"]
        self._txn_of = [_dec_txn(t) for t in state["txns"]]
        self._live = [bool(x) for x in state["live"]]
        self._pending_count = list(state["pending_count"])
        self._reads_of = [[(w, key) for w, key in reads]
                          for reads in state["reads_of"]]
        self._session_tail = {s: v for s, v in state["session_tail"]}
        self._session_count = {s: c for s, c in state["session_count"]}
        self._writer_index = {(key, value): v
                              for key, value, v in state["writer_index"]}
        self._aborted_writes = {
            (key, value): (name, seq)
            for key, value, name, seq in state["aborted_writes"]}
        self._intermediate = {
            (key, value): (name, seq)
            for key, value, name, seq in state["intermediate"]}
        self._pending = {(key, value): list(readers)
                         for key, value, readers in state["pending"]}
        self._writers_of = {key: list(writers)
                            for key, writers in state["writers_of"]}
        self._readers_from = {(w, key): list(readers)
                              for w, key, readers in state["readers_from"]}
        self._init_keys = set(state["init_keys"])
        self._known_edges = dict.fromkeys(
            tuple(edge) for edge in state["known_edges"])
        self._known = KnownGraph.from_edges(self._n, self._known_edges)
        self._rebuild_ww_succ()

        backend_cls = resolve_closure_backend(self.closure_backend)
        self._ki = backend_cls.from_rows(
            [int(row, 16) for row in state["ki_rows"]])
        self._dep_reach = (
            backend_cls.from_rows(
                [int(row, 16) for row in state["dep_rows"]])
            if state["dep_rows"] is not None else None
        )

        self._unresolved = {(key, t, s): True
                            for key, t, s in state["unresolved"]}
        self._recount_touch()
        self._resolved_dir = {(key, t, s): bool(d)
                              for key, t, s, d in state["resolved_dir"]}

        counters = state["counters"]
        self._accepted = counters["accepted"]
        self._aborted_seen = counters["aborted_seen"]
        self._seq = counters["seq"]
        self._live_count = counters["live_count"]
        self._solves = counters["solves"]
        # Absent from checkpoints written before these were counted.
        self._solver_builds = counters.get("solver_builds", 0)
        for name, value in counters.get("solver", {}).items():
            setattr(self._solver_stats, name, value)
        self._timings = dict(state["timings"])
        for name, value in state["window_stats"].items():
            setattr(self._wstats, name, value)

        if state["solver"] is not None:
            self._enc = SIEncoding.import_state(
                state["solver"], self._n, self._solver_substrate())
            self._enc.solver.stats = self._solver_stats
        self._solver_dirty = bool(state["solver_dirty"])

    # -- ingestion -----------------------------------------------------------

    def _ingest(self, session: int, ops: Sequence[Operation], status: str) -> None:
        if self._violation is not None:
            return
        with trace_span("event", session=session, status=status):
            self._ingest_event(session, ops, status)
        self._publish_metrics()

    def _ingest_event(self, session: int, ops: Sequence[Operation],
                      status: str) -> None:
        if (self.sessions is not None and status == COMMITTED
                and session not in self.sessions):
            raise ValueError(
                f"session {session!r} is not in the declared session "
                f"universe {sorted(self.sessions)!r}; windowed eviction "
                "decisions already assumed it would never appear"
            )
        t0 = time.perf_counter()
        self._seq += 1
        index = self._session_count.get(session, 0)
        self._session_count[session] = index + 1
        txn = Transaction(self._seq, ops, session=session, index=index,
                          status=status)

        anomalies = int_violations(txn)
        if status == ABORTED:
            self._aborted_seen += 1
            anomalies.extend(self._register_aborted(txn))
            self._charge("ingest", t0)
            if anomalies:
                self._latch("axioms", anomalies=anomalies)
            return

        self._check_unique(txn)
        vertex = self._new_vertex(txn)
        resolved_pending = self._register_writes(txn, vertex, anomalies)
        resolved, init_reads = self._scan_reads(txn, vertex, anomalies)
        if anomalies:
            self._charge("ingest", t0)
            self._latch("axioms", anomalies=anomalies)
            return

        self._accepted += 1
        self._live_count += 1
        self._wstats.peak_live = max(self._wstats.peak_live, self._live_count)

        tail = self._session_tail.get(session)
        if tail is not None:
            self._add_known((tail, vertex, SO, None))
        self._session_tail[session] = vertex

        for writer, key in resolved:
            self._record_wr(writer, key, vertex)
        for key in init_reads:
            self._record_init_read(key, vertex)
        self._register_constraints(txn, vertex)
        for key, reader in resolved_pending:
            self._record_wr(vertex, key, reader)
            self._pending_count[reader] -= 1
        self._charge("ingest", t0)

        if self.prune and self._violation is None:
            t1 = time.perf_counter()
            with trace_span("prune", unresolved=len(self._unresolved)):
                self._prune_fixpoint()
            self._charge("prune", t1)

    def _charge(self, stage: str, since: float) -> None:
        """Add the seconds since ``since`` to a stage's cumulative time."""
        self._timings[stage] = (
            self._timings.get(stage, 0.0) + time.perf_counter() - since
        )

    def _register_aborted(self, txn: Transaction) -> List[AxiomViolation]:
        """Index an aborted transaction's writes; flag readers that already
        observed one of its values (they were pending on the value)."""
        violations: List[AxiomViolation] = []
        for op in txn.ops:
            if not op.is_write:
                continue
            self._aborted_writes[(op.key, op.value)] = (txn.name, self._seq)
            for reader in self._pending.pop((op.key, op.value), ()):
                self._pending_count[reader] -= 1
                violations.append(AxiomViolation(
                    "AbortedReads", self._txn_of[reader], op.key, op.value,
                    f"read {op.value!r} on {op.key!r} written by aborted "
                    f"{txn.name}",
                ))
            writer = self._writer_index.get((op.key, op.value))
            if writer is not None:
                # A committed transaction finally wrote the same value;
                # its readers observed an aborted write under UniqueValue
                # precedence (the batch axioms flag these first).
                for reader in self._readers_from.get((writer, op.key), ()):
                    violations.append(AxiomViolation(
                        "AbortedReads", self._txn_of[reader], op.key, op.value,
                        f"read {op.value!r} on {op.key!r} written by aborted "
                        f"{txn.name}",
                    ))
        return violations

    def _check_unique(self, txn: Transaction) -> None:
        for key, value in txn.writes.items():
            prev = self._writer_index.get((key, value))
            if prev is not None:
                raise DuplicateValueError(
                    f"value {value!r} written to key {key!r} by both "
                    f"{self._txn_of[prev].name} and {txn.name}"
                )

    def _new_vertex(self, txn: Transaction) -> int:
        vertex = self._n
        self._n += 1
        self._txn_of.append(txn)
        self._live.append(True)
        self._pending_count.append(0)
        self._reads_of.append([])
        self._known.add_vertex()
        self._ki.add_vertex()
        if self._dep_reach is not None:
            self._dep_reach.add_vertex()
        if self._enc is not None:
            self._enc.solver.add_vertex()
        return vertex

    def _register_writes(self, txn: Transaction, vertex: int,
                         anomalies: List[AxiomViolation]) -> List[tuple]:
        """Index final and intermediate writes; resolve reads that were
        pending on them.  Returns ``(key, reader)`` pairs for new WR edges."""
        resolved_pending: List[tuple] = []
        # Intermediate values first: a pending read matching one is an
        # IntermediateReads anomaly even when the same value is also the
        # final write (the batch axioms run before read matching).
        for key in txn.keys_written:
            values = txn.all_write_values(key)
            for value in values[:-1]:
                self._intermediate[(key, value)] = (txn.name, self._seq)
                for reader in self._pending.pop((key, value), ()):
                    self._pending_count[reader] -= 1
                    anomalies.append(AxiomViolation(
                        "IntermediateReads", self._txn_of[reader], key, value,
                        f"read intermediate {value!r} on {key!r} from "
                        f"{txn.name}",
                    ))
                earlier = self._writer_index.get((key, value))
                if earlier is not None and earlier != vertex:
                    # An earlier committed transaction finally wrote this
                    # value; its readers observed what is now known to be
                    # an intermediate version.
                    for reader in self._readers_from.get((earlier, key), ()):
                        anomalies.append(AxiomViolation(
                            "IntermediateReads", self._txn_of[reader], key,
                            value,
                            f"read intermediate {value!r} on {key!r} from "
                            f"{txn.name}",
                        ))
        for key, value in txn.writes.items():
            self._writer_index[(key, value)] = vertex
            for reader in self._pending.pop((key, value), ()):
                resolved_pending.append((key, reader))
        return resolved_pending

    def _scan_reads(self, txn: Transaction, vertex: int,
                    anomalies: List[AxiomViolation]) -> tuple:
        """Resolve the transaction's external reads against the running
        indexes.  Returns ``(resolved, init_reads)``: matched
        ``(writer_vertex, key)`` pairs and keys read from initial state."""
        resolved: List[tuple] = []
        init_reads: List[object] = []
        for key, value in txn.external_reads.items():
            if value == self.initial_values.get(key, INITIAL_VALUE) or (
                    value is INITIAL_VALUE):
                init_reads.append(key)
                continue
            aborted = self._aborted_writes.get((key, value))
            if aborted is not None:
                anomalies.append(AxiomViolation(
                    "AbortedReads", txn, key, value,
                    f"read {value!r} on {key!r} written by aborted {aborted[0]}",
                ))
                continue
            mid = self._intermediate.get((key, value))
            if mid is not None and mid[0] != txn.name:
                anomalies.append(AxiomViolation(
                    "IntermediateReads", txn, key, value,
                    f"read intermediate {value!r} on {key!r} from {mid[0]}",
                ))
                continue
            writer = self._writer_index.get((key, value))
            if writer == vertex:
                anomalies.append(AxiomViolation(
                    "FutureRead", txn, key, value,
                    f"read {value!r} on {key!r} before writing it itself",
                ))
            elif writer is not None:
                resolved.append((writer, key))
            else:
                # No committed final writer yet: pend until one arrives
                # (streams deliver in commit order, not dependency
                # order).  This also covers reads of the transaction's
                # *own* intermediate values, which the batch construction
                # resolves against the global writer index the same way.
                self._pending.setdefault((key, value), []).append(vertex)
                self._pending_count[vertex] += 1
        return resolved, init_reads

    # -- incremental polygraph -----------------------------------------------

    def _record_wr(self, writer: int, key, reader: int) -> None:
        """A new WR edge ``writer -> reader`` on ``key``, plus the
        anti-dependencies implied by already-resolved version orders."""
        self._add_known((writer, reader, WR, key))
        self._readers_from.setdefault((writer, key), []).append(reader)
        self._reads_of[reader].append((writer, key))
        for other in self._writers_of.get(key, ()):
            if other == writer or other == reader:
                continue
            ck = _cons_key(key, writer, other)
            direction = self._resolved_dir.get(ck)
            if direction is None:
                continue
            first = ck[1] if direction else ck[2]
            if first == writer:
                self._add_known((reader, other, RW, key))

    def _record_init_read(self, key, vertex: int) -> None:
        """A read of the initial state: WR from the init vertex, known WW
        from init to every writer of the key (init is first in every
        version order), and the implied anti-dependencies."""
        self._init_keys.add(key)
        self._add_known((0, vertex, WR, key))
        self._readers_from.setdefault((0, key), []).append(vertex)
        self._reads_of[vertex].append((0, key))
        for writer in self._writers_of.get(key, ()):
            self._add_known((0, writer, WW, key))
            if vertex != writer:
                self._add_known((vertex, writer, RW, key))

    def _register_constraints(self, txn: Transaction, vertex: int) -> None:
        """One fresh generalized constraint per key per existing writer."""
        for key in txn.keys_written:
            if key in self._init_keys:
                self._add_known((0, vertex, WW, key))
                for reader in self._readers_from.get((0, key), ()):
                    if reader != vertex:
                        self._add_known((reader, vertex, RW, key))
            for other in self._writers_of.get(key, ()):
                ck = _cons_key(key, other, vertex)
                self._unresolved[ck] = True
                self._solver_dirty = True
                self._unresolved_touch[other] = (
                    self._unresolved_touch.get(other, 0) + 1
                )
                self._unresolved_touch[vertex] = (
                    self._unresolved_touch.get(vertex, 0) + 1
                )
            self._writers_of.setdefault(key, []).append(vertex)

    def _add_known(self, edge: Edge) -> None:
        """Install a known typed edge and its induced-graph consequences."""
        if self._violation is not None or edge in self._known_edges:
            return
        self._known_edges[edge] = None
        self._note_ww(edge)
        if not self._known.add(edge):
            return
        if edge[2] != RW and self._dep_reach is not None:
            self._dep_reach.insert(edge[0], edge[1])
        for a, b in self._known.induced_by(edge):
            self._add_ki(a, b)
            if self._violation is not None:
                return

    def _note_ww(self, edge: Edge) -> None:
        """Window bookkeeping: per-key WW successors of real writers."""
        u, v, label, key = edge
        if label == WW and u != 0:
            self._ww_succ.setdefault(u, {}).setdefault(key, set()).add(v)

    def _rebuild_ww_succ(self) -> None:
        self._ww_succ = {}
        for edge in self._known_edges:
            self._note_ww(edge)

    def _add_ki(self, a: int, b: int) -> None:
        """Insert one induced known edge; a cycle here is a violation."""
        if self._ki.has_edge(a, b):
            return
        self._solver_dirty = True
        status = self._ki.insert(a, b)
        if status == CYCLE:
            self._latch("pruning", cycle=self._witness())
            return
        if self._enc is not None:
            conflict = self._enc.solver.add_static_edge(a, b)
            if conflict is not None:
                # The cycle runs through edges the solver has proven
                # mandatory (root-level facts): a violation, though the
                # typed witness may be partial.
                self._latch("solving", cycle=self._witness())

    # -- incremental pruning ---------------------------------------------------

    def _constraint(self, ck: tuple) -> tuple:
        """An unresolved constraint as the shared encoder consumes it:
        ``(ck, either, orelse)``, branches materialized from the current
        reader index."""
        key, t, s = ck
        return (ck, branch_edges(self._readers_from, key, t, s),
                branch_edges(self._readers_from, key, s, t))

    def _prune_fixpoint(self) -> None:
        reach, pred_mask = self._ki, self._known.pred_mask
        changed = True
        while changed and self._violation is None:
            changed = False
            for ck in list(self._unresolved):
                if ck not in self._unresolved or self._violation is not None:
                    continue
                _ck, either, orelse = self._constraint(ck)
                either_bad = branch_impossible(either, reach, pred_mask)
                orelse_bad = branch_impossible(orelse, reach, pred_mask)
                if either_bad and orelse_bad:
                    cycle = self._witness(either) or self._witness(orelse)
                    self._latch("pruning", cycle=cycle)
                    return
                if either_bad:
                    self._resolve(ck, t_first=False, edges=orelse)
                    changed = True
                elif orelse_bad:
                    self._resolve(ck, t_first=True, edges=either)
                    changed = True

    def _resolve(self, ck: tuple, *, t_first: bool, edges: List[Edge]) -> None:
        del self._unresolved[ck]
        self._solver_dirty = True
        for vert in (ck[1], ck[2]):
            self._unresolved_touch[vert] -= 1
        self._resolved_dir[ck] = t_first
        if self._enc is not None:
            self._enc.resolve(ck, t_first)
        for edge in edges:
            self._add_known(edge)
            if self._violation is not None:
                return

    # -- incremental solving ----------------------------------------------------

    def _solver_substrate(self) -> List[List[int]]:
        return [list(self._ki.successors_direct(u)) for u in range(self._n)]

    def _solve_residue(self) -> None:
        """Encode whatever pruning left unresolved and re-solve.

        The shared encoder adds only the delta; its solver instance —
        learned clauses, saved phases and the topological order the last
        model left behind — carries over from previous calls, so a
        re-solve after an event whose edges agree with that order is a
        handful of decisions and no conflict.  Variables of constraints
        resolved in the meantime stay behind but cost nothing: their
        choice is pinned by a root unit and the rest are never decided.
        Only :meth:`_compact` drops the instance (it renumbers the
        vertices), which bounds the variable pool exactly as it bounds
        the closure rows.
        """
        if self._violation is not None or not self._unresolved:
            return
        if not self._solver_dirty:
            return  # nothing changed since the last (SAT) solve
        t0 = time.perf_counter()
        with trace_span("solve", unresolved=len(self._unresolved)) as span:
            enc = self._enc
            if enc is None:
                enc = self._enc = SIEncoding(
                    self._n, self._solver_substrate())
                enc.solver.stats = self._solver_stats
                self._solver_builds += 1
            constraints = [self._constraint(ck) for ck in self._unresolved]
            enc.encode(constraints, self._known, self._ki.has)
            sat = enc.solver.solve()
            span.set(sat=sat, vars=enc.solver.num_vars)
        self._solves += 1
        self._charge("solve", t0)
        self._publish_metrics()
        if not sat:
            self._latch("solving", cycle=enc.violation_cycle(
                self._known_edges, constraints))
        else:
            self._solver_dirty = False

    # -- verdict plumbing --------------------------------------------------------

    def _witness(self, extra: Sequence[Edge] = ()) -> Optional[List[Edge]]:
        return find_known_cycle(self._known_edges, extra)

    def _latch(self, decided_by: str, *, anomalies: Optional[list] = None,
               cycle: Optional[List[Edge]] = None) -> None:
        if self._violation is not None:
            return
        out = OnlineResult()
        out.satisfies_si = False
        out.final = True
        out.decided_by = decided_by
        out.anomalies = list(anomalies or [])
        out.cycle = cycle
        if cycle:
            for u, v, _label, _key in cycle:
                for vert in (u, v):
                    out.names.setdefault(vert, self._vertex_name(vert))
        self._fill_stats(out)
        self._violation = out

    def _vertex_name(self, vertex: int) -> str:
        if vertex == 0:
            return "T:init"
        txn = self._txn_of[vertex] if vertex < len(self._txn_of) else None
        return txn.name if txn is not None else f"T:evicted({vertex})"

    def _fill_stats(self, out: OnlineResult) -> None:
        out.timings = dict(self._timings)
        out.stats = {
            "accepted": self._accepted,
            "aborted": self._aborted_seen,
            "live": self._live_count,
            "pending_reads": sum(len(v) for v in self._pending.values()),
            "unresolved_constraints": len(self._unresolved),
            "known_edges": len(self._known_edges),
            "solves": self._solves,
            "solver_builds": self._solver_builds,
            "solver": self._solver_stats.as_dict(),
            "window": self._wstats.as_dict(),
            "closure_backend": self.closure_backend,
        }
        out.stats["closure"] = self._ki.counters()

    def _publish_metrics(self) -> None:
        """Mirror the live stream state into the ambient metrics
        registry (one ContextVar read when metrics are disabled)."""
        registry = current_metrics()
        if registry is None:
            return
        registry.gauge("online.accepted").set(self._accepted)
        registry.gauge("online.live").set(self._live_count)
        registry.gauge("online.unresolved").set(len(self._unresolved))
        registry.gauge("online.known_edges").set(len(self._known_edges))
        registry.gauge("online.solves").set(self._solves)
        registry.gauge("online.solver_builds").set(self._solver_builds)
        registry.gauge("window.evicted").set(self._wstats.evicted)
        registry.gauge("window.gc_passes").set(self._wstats.gc_passes)
        registry.gauge("window.compactions").set(self._wstats.compactions)
        registry.gauge("window.peak_live").set(self._wstats.peak_live)

    # -- windowing ---------------------------------------------------------------

    def _maybe_collect(self) -> None:
        if self.window is None or self._violation is not None:
            return
        if not self.window.should_collect(self._live_count, self._accepted):
            return
        t0 = time.perf_counter()
        with trace_span("gc", live=self._live_count) as span:
            evicted_before = self._wstats.evicted
            self._evict_closed()
            span.set(evicted=self._wstats.evicted - evicted_before)
            log.debug(
                "gc pass %d: evicted %d (live=%d)", self._wstats.gc_passes,
                self._wstats.evicted - evicted_before, self._live_count,
            )
            if self.window.should_compact(self._live_count + 1, self._n):
                with trace_span("compact", vertices=self._n):
                    self._compact()
                log.debug("compacted to %d vertices", self._n)
        self._charge("gc", t0)
        self._publish_metrics()

    def _evict_closed(self) -> None:
        """Evict transactions no future undesired cycle can pass through
        (see :mod:`repro.online.window` for the four conditions)."""
        self._wstats.gc_passes += 1
        if any(s not in self._session_tail for s in self.sessions):
            # A declared session has not committed anything yet: its
            # first transaction may still legally read any old version,
            # so nothing is evictable.
            return
        tails = set(self._session_tail.values())
        reach = self._dep_reach
        stable_cache: Dict[int, bool] = {}

        def stable(x: int) -> bool:
            got = stable_cache.get(x)
            if got is None:
                got = all(x == t or reach.has(x, t) for t in tails)
                stable_cache[x] = got
            return got

        for vertex in range(1, self._n):
            if not self._live[vertex] or vertex in tails:
                continue
            if self._unresolved_touch.get(vertex):
                continue
            if self._pending_count[vertex]:
                continue
            txn = self._txn_of[vertex]
            superseded = True
            for key in txn.keys_written:
                succs = self._ww_succ.get(vertex, {}).get(key, ())
                if not any(self._live[s] and stable(s) for s in succs):
                    superseded = False
                    break
            if superseded:
                self._evict(vertex)

    def _evict(self, vertex: int) -> None:
        txn = self._txn_of[vertex]
        for key, value in txn.writes.items():
            if self._writer_index.get((key, value)) == vertex:
                del self._writer_index[(key, value)]
            writers = self._writers_of.get(key)
            if writers is not None and vertex in writers:
                writers.remove(vertex)
            self._readers_from.pop((vertex, key), None)
        for writer, key in self._reads_of[vertex]:
            readers = self._readers_from.get((writer, key))
            if readers is not None and vertex in readers:
                readers.remove(vertex)
        self._ww_succ.pop(vertex, None)
        self._reads_of[vertex] = []
        self._txn_of[vertex] = None
        self._live[vertex] = False
        self._live_count -= 1
        self._wstats.evicted += 1

    def _compact(self) -> None:
        """Renumber onto live vertices; rebuild derived state and drop the
        solver (its variables name the old vertex ids; the next solve
        builds one over the live residue, and the learned clauses go
        with the retired variables)."""
        live_ids = [v for v in range(self._n) if self._live[v]]
        old_to_new = self._ki.compact(live_ids)
        if self._dep_reach is not None:
            self._dep_reach.compact(live_ids)

        def m(v: int) -> int:
            return old_to_new[v]

        self._n = len(live_ids)
        self._txn_of = [self._txn_of[v] for v in live_ids]
        self._live = [True] * self._n
        self._pending_count = [self._pending_count[v] for v in live_ids]
        self._reads_of = [
            [(m(w), key) for (w, key) in self._reads_of[v] if m(w) >= 0]
            for v in live_ids
        ]
        self._session_tail = {s: m(v) for s, v in self._session_tail.items()}
        self._writer_index = {kv: m(v) for kv, v in self._writer_index.items()}
        self._writers_of = {
            key: [m(v) for v in writers if m(v) >= 0]
            for key, writers in self._writers_of.items()
        }
        self._writers_of = {k: ws for k, ws in self._writers_of.items() if ws}
        self._readers_from = {
            (m(w), key): [m(r) for r in readers if m(r) >= 0]
            for (w, key), readers in self._readers_from.items()
            if m(w) >= 0
        }
        self._readers_from = {
            wk: rs for wk, rs in self._readers_from.items() if rs
        }
        self._pending = {
            kv: [m(r) for r in readers]
            for kv, readers in self._pending.items()
        }
        self._known_edges = dict.fromkeys(
            (m(u), m(v), label, key)
            for u, v, label, key in self._known_edges
            if m(u) >= 0 and m(v) >= 0)
        self._known.compact(old_to_new)
        self._rebuild_ww_succ()
        self._unresolved = {
            (key, m(t), m(s)): True
            for (key, t, s) in self._unresolved
        }
        self._recount_touch()
        self._resolved_dir = {
            (key, m(t), m(s)): d
            for (key, t, s), d in self._resolved_dir.items()
            if m(t) >= 0 and m(s) >= 0
        }
        # Drop axiom indexes that predate the oldest live transaction: a
        # later read of such a value surfaces as an unjustified read — the
        # same verdict with a coarser label (DESIGN.md, window soundness).
        horizon = min(
            (t.tid for t in self._txn_of if t is not None), default=0
        )
        self._aborted_writes = {
            kv: rec for kv, rec in self._aborted_writes.items()
            if rec[1] >= horizon
        }
        self._intermediate = {
            kv: rec for kv, rec in self._intermediate.items()
            if rec[1] >= horizon
        }
        self._enc = None
        self._solver_dirty = True
        self._wstats.compactions += 1

    def _recount_touch(self) -> None:
        """Per-vertex count of unresolved constraints touching it."""
        self._unresolved_touch = {}
        for (_key, t, s) in self._unresolved:
            self._unresolved_touch[t] = self._unresolved_touch.get(t, 0) + 1
            self._unresolved_touch[s] = self._unresolved_touch.get(s, 0) + 1
