"""The online incremental SI checker.

:class:`OnlineChecker` accepts transactions in batches (:meth:`extend`;
:meth:`add` is a batch of one) and maintains, incrementally, everything
the batch pipeline (:mod:`repro.core.checker`) recomputes from scratch.
Each arrival runs the front half and the known-edge inserts; pruning,
eviction and solving settle once at the batch end (DESIGN.md S6,
"Settling at a batch boundary"):

- **axioms and known edges** — the batch construction's
  :class:`~repro.core.polygraph.PolygraphBuilder`, called per arrival
  instead of in bulk: a read whose writer has not arrived yet *pends*
  there, and reads still pending at :meth:`finish` are unjustified.
- **constraints** — each committed transaction adds one generalized
  constraint per existing writer of each key it wrote.  Branches are
  materialized lazily from the builder's reader index, so
  a branch automatically reflects readers that arrive *after* the
  constraint was created; when a new reader observes a writer whose
  version order is already resolved, the implied anti-dependency edge is
  emitted immediately.
- **pruning** — the known induced graph ``KI = Dep ∪ (Dep ; AntiDep)``
  grows in :class:`~repro.utils.closure_np.NumpyBitsetClosure`
  (DESIGN.md S10): one ``insert_into`` per arrival for the pairs into
  it (it reaches nothing yet), one ``insert`` per other pair; the
  paper's two impossibility rules (Section 4.3) run to
  fixpoint over the surviving constraints only, and ask only the
  *dirty* ones — those a change to the reader lists, Dep predecessors
  or closure rows they read can have flipped since they were last
  asked (DESIGN.md S6, "What an event can change").  A cycle materializing in the known graph
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
verdict is preserved; see the window module and DESIGN.md).  An
eviction pass examines only *candidates*: vertices one of whose
blocking conditions an event may have cleared.

``stats["prune_asked"]`` and ``stats["gc_examined"]`` count the
constraints asked and the vertices examined; a compaction or a restore
adds one full sweep of each.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..core.axioms import AxiomViolation
from ..core.encoding import SIEncoding
from ..core.history import (
    ABORTED,
    COMMITTED,
    History,
    Operation,
    Transaction,
)
from ..core.known import KnownGraph, mask_of
from ..core.polygraph import (
    Edge,
    PolygraphBuilder,
    RW,
    SO,
    WR,
    WW,
    branch_edges,
)
from ..core.pruning import find_known_cycle, pair_impossible
from ..obs import current_metrics, get_logger, trace_span
from ..solver.cdcl import SolverStats
from ..utils.closure import CYCLE, NEW, iter_bits
from ..utils.closure_np import NumpyBitsetClosure
from ..utils.gcpause import collector_paused
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
        #: unresolved_constraints, solves, solver_builds, prune_asked,
        #: gc_examined, window stats, solver stats (cumulative over
        #: every instance built).
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


class OnlineChecker:
    """Incremental snapshot-isolation checking over a transaction stream.

    Parameters
    ----------
    prune:
        Run the incremental pruning fixpoint at the end of each batch
        (recommended; without it every constraint goes to the solver).
    solve_every:
        Solve the SAT residue at the end of a batch that crossed a
        multiple of N accepted transactions (1 = every batch that
        accepted one).  Between solves the verdict is provisional.
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

    Typical use::

        checker = OnlineChecker()
        for batch in stream:        # lists of (session, ops, status)
            r = checker.extend(batch)
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

        # Vertex 0 is the virtual init transaction.  The front half is
        # the batch pipeline's builder, called per arrival; one arrival's
        # edges wait in ``_arrival`` until its anomalies are known.
        self._n = 1
        self._session_count: Dict[int, int] = {}
        self._arrival: List[Edge] = []
        self._front = PolygraphBuilder(self._arrival.append, 0,
                                       self.initial_values)

        self._known_edges: Dict[Edge, None] = {}    # insertion-ordered set
        self._known = KnownGraph(1)
        self._ww_succ: Dict[int, Dict[object, set]] = {}

        self._ki = NumpyBitsetClosure(1)
        self._dep_reach = NumpyBitsetClosure(1) if window else None
        self._sink = -1         # the arriving vertex: see _flush_sink
        self._ki_into: Dict[int, None] = {}
        self._dep_into: List[int] = []

        self._unresolved: Dict[tuple, bool] = {}
        self._unresolved_touch: Dict[int, int] = {}
        self._resolved_dir: Dict[tuple, bool] = {}

        # What an event can change (DESIGN.md S6): the unresolved
        # constraints whose answer may have moved since pruning last
        # asked, the index finding them from a vertex, and the vertices
        # the next eviction pass examines.  Derived, never persisted.
        self._dirty: Set[tuple] = set()
        self._watch: Dict[int, Set[tuple]] = {}
        self._watched = 0                  # int bitset of _watch's keys
        self._candidates: Set[int] = set()
        self._prune_asked = 0
        self._gc_examined = 0

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
        """Feed one transaction; returns the (provisional) verdict.  The
        same as ``extend([(session, ops, status)])``."""
        return self.extend(((session, ops, status),))

    @collector_paused
    def extend(self, txns: Iterable[tuple]) -> OnlineResult:
        """Feed a batch of ``(session, ops[, status])`` tuples; returns
        the (provisional) verdict at its end.

        Each arrival runs the front half and inserts its known edges, so
        a cycle latches on the edge that closes it.  The rest runs once,
        at the end of a batch that accepted a committed transaction: the
        pruning fixpoint, an eviction pass (over ``max_live``, or when
        the batch crossed a ``gc_every`` multiple of accepted
        transactions), a solve (when it crossed a ``solve_every``
        multiple) and the metrics — DESIGN.md S6, "Settling at a batch
        boundary".  A batch of one is the per-event checker.  The
        cyclic collector sits the batch out (DESIGN.md S4).
        """
        self._feed(txns)
        return self.result()

    @collector_paused
    def replay(self, history: History) -> OnlineResult:
        """Feed a recorded :class:`History` in transaction-id order, one
        transaction per batch, and finish — the online equivalent of one
        batch check."""
        for txn in history.transactions:
            self._feed(((txn.session, txn.ops, txn.status),))
            if self._violation is not None:
                break
        return self.finish()

    def result(self) -> OnlineResult:
        """Verdict so far (does not judge still-pending reads)."""
        if self._violation is not None:
            return self._violation
        out = OnlineResult()
        self._fill_stats(out)
        return out

    @collector_paused
    def finish(self) -> OnlineResult:
        """End-of-stream verdict: pending reads become unjustified reads
        (no writer will ever arrive), and any solver residue is solved."""
        if self._violation is None and self._front.finish():
            self._latch("axioms", anomalies=self._front.anomalies)
        if self._violation is None:
            self._solve_residue()
        self._publish_metrics()
        out = self.result()
        out.final = True
        return out

    @property
    def live_transactions(self) -> int:
        """Committed transactions currently resident in the window."""
        return self._live_count

    @property
    def _writer_index(self) -> Dict[tuple, int]:
        """The builder's ``(key, value) -> writer vertex`` index."""
        return self._front.writer_index

    @property
    def unresolved_constraints(self) -> int:
        """Generalized constraints pruning has not yet resolved."""
        return len(self._unresolved)

    # -- persistence ---------------------------------------------------------

    @collector_paused
    def snapshot(self) -> dict:
        """The checker's full state as a JSON-able dict.

        Captures everything a sound resume needs (DESIGN.md S14): the
        transaction tables and read-matching indexes (the builder's
        :meth:`~repro.core.polygraph.PolygraphBuilder.state`), the known
        typed edges,
        the induced-graph closure rows (through the kernel-independent
        :meth:`~repro.utils.closure.ClosureBackend.int_rows`
        serialization), the unresolved/resolved
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
                # Written for builds that still read it; restore
                # ignores it (the online checker has one kernel).
                "closure_backend": NumpyBitsetClosure.name,
            },
            "n": self._n,
            **self._front.state(self._n),
            "live": [v == 0 or v in self._front.txn_of
                     for v in range(self._n)],
            "session_count": [[s, c]
                              for s, c in self._session_count.items()],
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
                "prune_asked": self._prune_asked,
                "gc_examined": self._gc_examined,
            },
            "timings": dict(self._timings),
            "window_stats": self._wstats.as_dict(),
        }

    @classmethod
    @collector_paused
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
        S14 builds on the S9 window argument for this reason).  The rows
        are kernel-independent int bitsets, so a checkpoint whose
        ``config.closure_backend`` names the python kernel (written
        before the online checker owned the numpy one) continues on
        numpy; the field is not read.
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
        self._front.restore(state)
        self._session_count = {s: c for s, c in state["session_count"]}
        self._known_edges = dict.fromkeys(
            tuple(edge) for edge in state["known_edges"])
        self._known = KnownGraph.from_edges(self._n, self._known_edges)
        self._rebuild_ww_succ()

        self._ki = NumpyBitsetClosure.from_rows(
            [int(row, 16) for row in state["ki_rows"]])
        self._dep_reach = (
            NumpyBitsetClosure.from_rows(
                [int(row, 16) for row in state["dep_rows"]])
            if state["dep_rows"] is not None else None
        )

        self._unresolved = {(key, t, s): True
                            for key, t, s in state["unresolved"]}
        self._reindex()
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
        self._prune_asked = counters.get("prune_asked", 0)
        self._gc_examined = counters.get("gc_examined", 0)
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

    def _feed(self, txns: Iterable[tuple]) -> None:
        """The one ingestion path: every arrival of the batch, then — even
        if one raised — one settling of what the batch accepted."""
        before = self._accepted
        try:
            for item in txns:
                if self._violation is not None:
                    break
                status = item[2] if len(item) > 2 else COMMITTED
                with trace_span("event", session=item[0], status=status):
                    self._ingest_event(item[0], item[1], status)
        finally:
            if self._accepted != before:
                self._settle(before)

    def _settle(self, before: int) -> None:
        """Batch end, given the accepted count at its start: the pruning
        fixpoint over what the batch dirtied, then the eviction pass and
        the solve if their cadence was crossed, then the gauges."""
        if self.prune and self._violation is None:
            t0 = time.perf_counter()
            with trace_span("prune",
                            unresolved=len(self._unresolved)) as span:
                asked = self._prune_fixpoint()
                span.set(asked=asked)
            self._prune_asked += asked
            self._charge("prune", t0)
        after = self._accepted
        if (self.window is not None and self._violation is None
                and self.window.should_collect(self._live_count,
                                               before, after)):
            self._collect()
        if before // self.solve_every != after // self.solve_every:
            self._solve_residue()
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

        # The front half, per arrival: the same two calls the batch
        # construction makes in bulk.  A DuplicateValueError leaves
        # before any index or vertex table has changed.
        front = self._front
        vertex = self._n
        front.index_writes(txn, vertex)
        if status == ABORTED:
            self._aborted_seen += 1
        else:
            self._new_vertex()
            front.match_reads(txn, vertex)
        if front.anomalies or status == ABORTED:
            self._charge("ingest", t0)
            if front.anomalies:
                self._latch("axioms", anomalies=front.anomalies)
            return

        self._accepted += 1
        self._live_count += 1
        self._wstats.peak_live = max(self._wstats.peak_live, self._live_count)
        candidates = self._candidates
        candidates.add(vertex)
        self._sink = vertex
        for edge in self._arrival:
            self._add_known(edge)
            if edge[2] == SO:
                candidates.add(edge[0])     # no longer its session's tail
            elif edge[2] == WR:
                if edge[1] != vertex:
                    candidates.add(edge[1])  # a read of it stopped pending
                self._new_reader(edge)
        self._flush_sink()
        self._sink = -1
        self._arrival.clear()
        # One fresh generalized constraint per key per earlier writer
        # (index_writes just put this one last).
        for key in txn.keys_written:
            for other in front.writers_of[key][:-1]:
                ck = _cons_key(key, other, vertex)
                self._unresolved[ck] = True
                self._dirty.add(ck)
                for vert in self._watch_vertices(ck):
                    self._add_watch(vert, ck)
                self._solver_dirty = True
                for vert in (other, vertex):
                    self._unresolved_touch[vert] = (
                        self._unresolved_touch.get(vert, 0) + 1)
        self._charge("ingest", t0)

    def _charge(self, stage: str, since: float) -> None:
        """Add the seconds since ``since`` to a stage's cumulative time."""
        self._timings[stage] = (
            self._timings.get(stage, 0.0) + time.perf_counter() - since
        )

    def _new_vertex(self) -> None:
        self._n += 1
        self._known.add_vertex()
        self._ki.add_vertex()
        if self._dep_reach is not None:
            self._dep_reach.add_vertex()
        if self._enc is not None:
            self._enc.solver.add_vertex()

    # -- incremental polygraph -----------------------------------------------

    def _new_reader(self, wr: Edge) -> None:
        """A new reader of ``writer``'s version: one more RW edge in a
        branch of every unresolved constraint of that version, so it
        joins their watch vertices and they are asked again; and
        wherever pruning already put ``writer`` first against another
        writer of the key, the reader's anti-dependency on that writer is
        known too."""
        writer, reader, _label, key = wr
        for other in self._front.writers_of.get(key, ()):
            if other == writer or other == reader:
                continue
            ck = _cons_key(key, writer, other)
            if ck in self._unresolved:
                self._add_watch(reader, ck)
                self._dirty.add(ck)
                continue
            direction = self._resolved_dir.get(ck)
            if direction is None:
                continue
            first = ck[1] if direction else ck[2]
            if first == writer:
                self._add_known((reader, other, RW, key))

    def _add_known(self, edge: Edge) -> None:
        """Install a known typed edge and its induced-graph consequences."""
        if self._violation is not None or edge in self._known_edges:
            return
        self._known_edges[edge] = None
        self._note_ww(edge)
        if not self._known.add(edge):
            return
        if edge[2] != RW:
            if edge[0] == self._sink:
                self._flush_sink()
                self._sink = -1             # the arrival gains a successor
            # edge[1] gained a Dep predecessor: its pred_mask grew.
            self._dirty.update(self._watch.get(edge[1], ()))
            if self._dep_reach is not None and edge[1] == self._sink:
                self._dep_into.append(edge[0])
            elif self._dep_reach is not None:
                self._flush_sink()
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
            self._candidates.add(u)

    def _rebuild_ww_succ(self) -> None:
        self._ww_succ = {}
        for edge in self._known_edges:
            self._note_ww(edge)

    def _add_ki(self, a: int, b: int) -> None:
        """Insert one induced known edge; a cycle here is a violation."""
        if self._ki.has_edge(a, b) or (b == self._sink and a in self._ki_into):
            return
        self._solver_dirty = True
        if b == self._sink:
            self._ki_into[a] = None
        else:
            self._flush_sink()
            status = self._ki.insert(a, b)
            if status == CYCLE:
                self._latch("pruning", cycle=self._witness())
                return
            if status == NEW:
                # Every row that grew gained bits of these targets only;
                # ask again whatever watches one of them.
                hit = (self._ki.row(b) | 1 << b) & self._watched
                for vert in iter_bits(hit):
                    self._dirty.update(self._watch[vert])
        if self._enc is not None:
            conflict = self._enc.solver.add_static_edge(a, b)
            if conflict is not None:
                # The cycle runs through edges the solver has proven
                # mandatory (root-level facts): a violation, though the
                # typed witness may be partial.
                self._latch("solving", cycle=self._witness())

    def _flush_sink(self) -> None:
        """Install the pairs waiting for the arriving transaction, one
        ``insert_into`` per closure (DESIGN.md S6, "One flush per arrival")."""
        if self._ki_into:
            # No dirty mark: what watches the arrival is new, so dirty.
            self._ki.insert_into(self._sink, list(self._ki_into))
            self._ki_into.clear()
        if self._dep_into:
            self._dep_reach.insert_into(self._sink, self._dep_into)
            self._dep_into.clear()

    # -- incremental pruning ---------------------------------------------------

    def _constraint(self, ck: tuple) -> tuple:
        """An unresolved constraint as the shared encoder consumes it:
        ``(ck, either, orelse)``, branches materialized from the current
        reader index."""
        key, t, s = ck
        readers_from = self._front.readers_from
        return (ck, branch_edges(readers_from, key, t, s),
                branch_edges(readers_from, key, s, t))

    def _watch_vertices(self, ck: tuple) -> tuple:
        """The vertices whose Dep predecessors or closure row a
        constraint's answer reads: both writers and the readers of both
        versions (DESIGN.md S6, "What an event can change")."""
        key, t, s = ck
        readers_from = self._front.readers_from
        return (t, s, *readers_from.get((t, key), ()),
                *readers_from.get((s, key), ()))

    def _add_watch(self, vertex: int, ck: tuple) -> None:
        watchers = self._watch.get(vertex)
        if watchers is None:
            watchers = self._watch[vertex] = set()
            self._watched |= 1 << vertex
        watchers.add(ck)

    def _drop_watch(self, vertex: int) -> None:
        if self._watch.pop(vertex, None) is not None:
            self._watched &= ~(1 << vertex)

    def _prune_fixpoint(self) -> int:
        """The paper's fixpoint over the unresolved constraints, pass by
        pass in their order, asking only the dirty ones: a constraint
        nothing it reads has changed for since it was last asked answers
        "neither branch impossible" again.  Each is asked in pair form;
        only a winning branch, or a witness, is built.  Returns how many
        were asked."""
        reach, pred_mask = self._ki, self._known.pred_mask
        readers_from = self._front.readers_from
        dirty = self._dirty
        asked = 0
        while dirty:
            for ck in list(self._unresolved):
                if not dirty:
                    break
                if ck not in dirty:
                    continue
                dirty.discard(ck)
                asked += 1
                key, t, s = ck
                either_bad = pair_impossible(
                    t, s, readers_from.get((t, key), ()), reach, pred_mask)
                orelse_bad = pair_impossible(
                    s, t, readers_from.get((s, key), ()), reach, pred_mask)
                if either_bad and orelse_bad:
                    _ck, either, orelse = self._constraint(ck)
                    cycle = self._witness(either) or self._witness(orelse)
                    self._latch("pruning", cycle=cycle)
                elif either_bad:
                    self._resolve(ck, t_first=False, edges=branch_edges(
                        readers_from, key, s, t))
                elif orelse_bad:
                    self._resolve(ck, t_first=True, edges=branch_edges(
                        readers_from, key, t, s))
                if self._violation is not None:
                    return asked
        return asked

    def _resolve(self, ck: tuple, *, t_first: bool,
                 edges: Sequence[Edge]) -> None:
        del self._unresolved[ck]
        self._dirty.discard(ck)
        self._solver_dirty = True
        for vert in self._watch_vertices(ck):
            watchers = self._watch.get(vert)
            if watchers is not None:
                watchers.discard(ck)
                if not watchers:
                    self._drop_watch(vert)
        touch = self._unresolved_touch
        for vert in (ck[1], ck[2]):
            touch[vert] -= 1
            if not touch[vert]:
                del touch[vert]
                self._candidates.add(vert)
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
        self._flush_sink()
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
        txn = self._front.txn_of.get(vertex)
        return txn.name if txn is not None else f"T:evicted({vertex})"

    def _fill_stats(self, out: OnlineResult) -> None:
        out.timings = dict(self._timings)
        out.stats = {
            "accepted": self._accepted,
            "aborted": self._aborted_seen,
            "live": self._live_count,
            "pending_reads": len(self._front.waiting_readers()),
            "unresolved_constraints": len(self._unresolved),
            "known_edges": len(self._known_edges),
            "solves": self._solves,
            "solver_builds": self._solver_builds,
            "solver": self._solver_stats.as_dict(),
            "prune_asked": self._prune_asked,
            "gc_examined": self._gc_examined,
            "window": self._wstats.as_dict(),
            "closure_backend": NumpyBitsetClosure.name,
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
        registry.gauge("online.prune_asked").set(self._prune_asked)
        registry.gauge("window.evicted").set(self._wstats.evicted)
        registry.gauge("window.gc_passes").set(self._wstats.gc_passes)
        registry.gauge("window.gc_examined").set(self._gc_examined)
        registry.gauge("window.compactions").set(self._wstats.compactions)
        registry.gauge("window.peak_live").set(self._wstats.peak_live)

    # -- windowing ---------------------------------------------------------------

    def _collect(self) -> None:
        t0 = time.perf_counter()
        with trace_span("gc", live=self._live_count) as span:
            evicted_before = self._wstats.evicted
            examined = self._evict_closed()
            self._gc_examined += examined
            span.set(evicted=self._wstats.evicted - evicted_before,
                     examined=examined)
            log.debug(
                "gc pass %d: evicted %d (live=%d)", self._wstats.gc_passes,
                self._wstats.evicted - evicted_before, self._live_count,
            )
            if self.window.should_compact(self._live_count + 1, self._n):
                with trace_span("compact", vertices=self._n):
                    self._compact()
                log.debug("compacted to %d vertices", self._n)
        self._charge("gc", t0)

    def _evict_closed(self) -> int:
        """Evict transactions no future undesired cycle can pass through
        (see :mod:`repro.online.window` for the four conditions),
        examining the candidates in ascending vertex order.  A vertex
        leaves the candidates when a condition fails that only an event
        clears; one whose every written key still has a live successor
        stays, since stability moves with the tails and the Dep closure.
        Returns how many vertices were examined."""
        self._wstats.gc_passes += 1
        front = self._front
        if any(s not in front.session_tail for s in self.sessions):
            # A declared session has not committed anything yet: its
            # first transaction may still legally read any old version,
            # so nothing is evictable.
            return 0
        tails = set(front.session_tail.values())
        tail_mask = mask_of(tails)
        waiting = set(front.waiting_readers())
        reach = self._dep_reach
        stable_cache: Dict[int, bool] = {}

        def stable(x: int) -> bool:
            # Is, or Dep-reaches, every session's tail: one closure row.
            got = stable_cache.get(x)
            if got is None:
                got = not tail_mask & ~(reach.row(x) | 1 << x)
                stable_cache[x] = got
            return got

        # Live means not evicted: the builder still holds the transaction.
        txn_of = front.txn_of
        candidates = self._candidates
        order = sorted(candidates)
        for vertex in order:
            if (vertex in tails or self._unresolved_touch.get(vertex)
                    or vertex in waiting):
                candidates.discard(vertex)
                continue
            superseded = True
            for key in txn_of[vertex].keys_written:
                succs = [s for s in self._ww_succ.get(vertex, {}).get(key, ())
                         if s in txn_of]
                if not succs:
                    # Only a new WW successor brings it back.
                    candidates.discard(vertex)
                    superseded = False
                    break
                if superseded and not any(stable(s) for s in succs):
                    superseded = False
            if superseded:
                self._evict(vertex)
        return len(order)

    def _evict(self, vertex: int) -> None:
        self._front.evict(vertex)
        self._ww_succ.pop(vertex, None)
        self._candidates.discard(vertex)
        self._drop_watch(vertex)
        self._live_count -= 1
        self._wstats.evicted += 1

    def _compact(self) -> None:
        """Renumber onto live vertices; rebuild derived state and drop the
        solver (its variables name the old vertex ids; the next solve
        builds one over the live residue, and the learned clauses go
        with the retired variables)."""
        live_ids = [0, *sorted(self._front.txn_of)]
        old_to_new = self._ki.compact(live_ids)
        if self._dep_reach is not None:
            self._dep_reach.compact(live_ids)
        m = old_to_new.__getitem__
        self._n = len(live_ids)
        self._front.compact(old_to_new)
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
        self._reindex()
        self._resolved_dir = {
            (key, m(t), m(s)): d
            for (key, t, s), d in self._resolved_dir.items()
            if m(t) >= 0 and m(s) >= 0
        }
        self._enc = None
        self._solver_dirty = True
        self._wstats.compactions += 1

    def _reindex(self) -> None:
        """Rebuild the per-vertex indexes of the unresolved constraints
        (how many touch each vertex, which watch it) — and, since the
        vertex ids are new or were never seen, ask every constraint and
        examine every live vertex once more."""
        touch: Dict[int, int] = {}
        self._watch, self._watched = {}, 0
        for ck in self._unresolved:
            for vert in (ck[1], ck[2]):
                touch[vert] = touch.get(vert, 0) + 1
            for vert in self._watch_vertices(ck):
                self._add_watch(vert, ck)
        self._unresolved_touch = touch
        self._dirty = set(self._unresolved)
        self._candidates = set(self._front.txn_of)
