"""The ``timestamp`` engine: near-linear SI validation from timestamps.

The fast path treats the recorded per-transaction ``(start_ts,
commit_ts)`` pairs as a *candidate witness* for SI and checks, in
near-linear time, that the observations agree with it:

- **well-formed**: every committed *writing* transaction carries a
  strictly increasing ``start_ts < commit_ts`` pair; a read-only
  transaction logically commits at its snapshot, so it only needs
  ``start_ts <= commit_ts``;
- **session order**: consecutive committed transactions of a session
  satisfy ``effective_commit(A) <= start_ts(B)``, where the effective
  commit of a read-only transaction is its ``start_ts`` (it installs
  nothing, so nothing downstream can depend on its recorded commit
  instant);
- **no-conflict**: per key, committed writer intervals are pairwise
  disjoint in commit order (``commit_ts(W1) <= start_ts(W2)``) with no
  two equal commit timestamps;
- **prefix read**: every external read of ``x`` returns the write of the
  committed writer with the largest ``commit_ts <= start_ts`` of the
  reader (or the initial value when there is none).

When all four hold (and the non-cyclic axioms pass), commit-timestamp
order is a version order under which every dependency edge increases
``commit_ts`` — an explicit acyclic execution, i.e. an SI witness that
stands *whether or not the clocks were truthful* (DESIGN.md S12).
Transactions the numbers cannot certify are grouped into ambiguity
clusters and re-checked by the full PolySI pipeline (the *residue*
fallback); a condition failure can therefore degrade performance but
never the verdict.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from ..core.axioms import check_axioms
from ..core.checker import CheckResult, PolySIChecker
from ..core.history import INITIAL_VALUE, History, Transaction
from ..obs import counter, get_logger, trace_span

__all__ = ["TimestampChecker", "TimestampResult", "PIPELINE_OPTIONS"]

logger = get_logger("timestamp")

#: Pipeline switches forwarded verbatim to the residue fallback's
#: :class:`~repro.core.checker.PolySIChecker`.  ``initial_values`` is
#: deliberately absent: the fast path always reads initial values as
#: :data:`~repro.core.history.INITIAL_VALUE`.
PIPELINE_OPTIONS = ("prune", "compact")


class TimestampResult:
    """Outcome of one :class:`TimestampChecker` run.

    Mirrors :class:`~repro.core.checker.CheckResult` field-for-field
    where the façade reads it, and adds the residue accounting:
    ``stats["residue_txns"]`` / ``stats["residue_fraction"]`` size the
    fallback, ``stats["residue_reasons"]`` counts condition failures by
    kind, ``stats["clusters"]`` / ``stats["residue_clusters"]`` count the
    ambiguity clusters in all and with a failure (both 0 when nothing
    failed: a clean history is never clustered), and
    ``fallback_result`` carries the PolySI verdict on the
    residue subhistory (None when the fast path certified everything).
    """

    def __init__(self) -> None:
        self.satisfies_si: bool = True
        #: Non-cyclic anomalies (axiom violations), if any.
        self.anomalies: List = []
        #: Witness cycle from the fallback run, in residue-subhistory
        #: vertex ids (render through :attr:`names`), or None.
        self.cycle: Optional[List] = None
        #: Which stage decided: timestamps | axioms | fallback, or the
        #: fallback pipeline's own stage name on violation.
        self.decided_by: str = "timestamps"
        self.timings: Dict[str, float] = {}
        self.stats: Dict[str, object] = {}
        #: PolySI's :class:`CheckResult` on the residue subhistory.
        self.fallback_result: Optional[CheckResult] = None
        #: Residue-subhistory vertex id -> original transaction name.
        self.names: Optional[Callable[[int], str]] = None


class TimestampChecker:
    """SI checker that validates recorded timestamps and falls back to
    PolySI on the timestamp-ambiguous residue.

    Keyword arguments are the fallback pipeline's switches (see
    :data:`PIPELINE_OPTIONS`); they do not affect the fast path.
    """

    def __init__(
        self,
        *,
        prune: bool = True,
        compact: bool = True,
    ):
        self._pipeline = {"prune": prune, "compact": compact}

    # -- the check ---------------------------------------------------------

    def check(self, history: History) -> TimestampResult:
        """Validate ``history`` from its timestamps; PolySI the residue.

        Raises :class:`~repro.api.registry.MissingTimestampsError` when
        no committed transaction carries timestamps — such a history
        predates timestamp capture and belongs to the timestamp-free
        engines.
        """
        # Imported here, not at module level: repro.api imports this
        # module through the report adapter.
        from ..api.registry import MissingTimestampsError

        result = TimestampResult()
        committed = [t for t in history.transactions if t.committed]
        stamped = sum(1 for t in committed if t.timestamped)
        result.stats["committed_txns"] = len(committed)
        result.stats["timestamped_txns"] = stamped
        if committed and stamped == 0:
            raise MissingTimestampsError(
                "engine 'timestamp' validates recorded start/commit "
                "timestamps, but no committed transaction in this history "
                "carries any (it was collected before timestamp capture "
                "or loaded from a pre-timestamp file); re-collect with a "
                "current adapter or check with engine='polysi'"
            )

        # Global axiom pass first (exactly PolySI's Algorithm 1, line 2):
        # the timestamp conditions say nothing about Int, AbortedReads,
        # or IntermediateReads, so the fast path may only certify
        # histories these already cleared.
        t0 = time.perf_counter()
        with trace_span("axioms", txns=len(history)) as span:
            anomalies = check_axioms(history)
            span.set(violations=len(anomalies))
        result.timings["axioms"] = time.perf_counter() - t0
        if anomalies:
            result.satisfies_si = False
            result.anomalies = anomalies
            result.decided_by = "axioms"
            return result

        t0 = time.perf_counter()
        with trace_span("validate", txns=len(committed)) as span:
            residue, stats = self._validate(history, committed)
            span.set(
                clusters=stats["clusters"],
                residue_clusters=stats["residue_clusters"],
                residue_txns=stats["residue_txns"],
            )
        result.timings["validate"] = time.perf_counter() - t0
        result.stats.update(stats)
        counter("timestamp.fastpath_txns").inc(len(committed)
                                               - len(residue))
        counter("timestamp.residue_txns").inc(len(residue))

        if not residue:
            return result

        counter("timestamp.fallbacks").inc()
        logger.debug(
            "timestamp fast path left %d/%d txns in %d residue cluster(s); "
            "falling back to polysi", len(residue), len(committed),
            stats["residue_clusters"],
        )
        sub_history, names = _residue_history(history, residue)
        t0 = time.perf_counter()
        with trace_span("fallback", txns=len(residue)) as span:
            fallback = PolySIChecker(**self._pipeline).check(sub_history)
            span.set(satisfied=fallback.satisfies_si,
                     decided_by=fallback.decided_by)
        result.timings["fallback"] = time.perf_counter() - t0
        result.fallback_result = fallback
        result.stats["fallback_decided_by"] = fallback.decided_by
        result.stats["closure_backend"] = fallback.stats["closure_backend"]
        if fallback.satisfies_si:
            result.decided_by = "fallback"
        else:
            result.satisfies_si = False
            result.decided_by = fallback.decided_by
            result.anomalies = list(fallback.anomalies)
            result.cycle = fallback.cycle
        if fallback.polygraph is not None:
            vertex_name = fallback.polygraph.vertex_name
            result.names = lambda v: (
                names[v] if 0 <= v < len(names) else vertex_name(v)
            )
        return result

    # -- validation --------------------------------------------------------

    def _validate(self, history: History,
                  committed: List[Transaction]) -> Tuple[List, Dict]:
        """One pass over the committed transactions: check the four
        timestamp conditions, then cluster the failures, if any.

        Returns ``(residue, stats)`` where ``residue`` lists every
        committed transaction belonging to a cluster with at least one
        condition failure.  Clusters are connected components over
        *shared key or same session* — an over-approximation of
        polygraph connectivity, so every possible dependency edge (and
        hence every possible cycle) touching a failure stays inside the
        residue the fallback re-checks.  With no failure there is
        nothing to cluster: ``stats["clusters"]`` then reads 0.
        """
        reasons: Dict[str, int] = {}
        seeds: set = set()

        def seed(txn: Transaction, reason: str) -> None:
            reasons[reason] = reasons.get(reason, 0) + 1
            seeds.add(txn.tid)

        usable: set = set()
        for txn in committed:
            if not txn.timestamped:
                seed(txn, "missing")
                continue
            # Read-only transactions logically commit at their snapshot
            # (they install nothing), so an equal pair is well-formed
            # for them; writers need a strict interval or equal-stamp
            # read-write cycles could slip through (DESIGN.md S12).
            well_formed = (txn.start_ts < txn.commit_ts if txn.writes
                           else txn.start_ts <= txn.commit_ts)
            if not well_formed:
                seed(txn, "degenerate")
            else:
                usable.add(txn.tid)

        def effective_commit(txn: Transaction) -> float:
            return txn.commit_ts if txn.writes else txn.start_ts

        for a, b in history.session_order_pairs():
            if (a.tid in usable and b.tid in usable
                    and not (effective_commit(a) <= b.start_ts)):
                seed(a, "session-order")
                seed(b, "session-order")

        writers: Dict = {}
        for txn in committed:
            for key in txn.writes:
                writers.setdefault(key, []).append(txn)
        tables: Dict = {}
        for key, key_writers in writers.items():
            ordered = [w for w in key_writers if w.tid in usable]
            ordered.sort(key=lambda w: (w.commit_ts, w.start_ts, w.tid))
            for w1, w2 in zip(ordered, ordered[1:]):
                if w1.commit_ts == w2.commit_ts:
                    seed(w1, "equal-commit")
                    seed(w2, "equal-commit")
                elif w1.commit_ts > w2.start_ts:
                    seed(w1, "overlap")
                    seed(w2, "overlap")
            tables[key] = ([w.commit_ts for w in ordered], ordered)

        empty: Tuple[List, List] = ([], [])
        writer_index = history.writer_index
        for txn in committed:
            if txn.tid not in usable:
                continue
            for key, value in txn.external_reads.items():
                commits, ordered = tables.get(key, empty)
                pos = bisect_right(commits, txn.start_ts) - 1
                expected = ordered[pos] if pos >= 0 else None
                if value == INITIAL_VALUE:
                    if expected is not None:
                        seed(txn, "prefix-read")
                    continue
                writer = writer_index.get((key, value))
                if writer is None or not writer.committed:
                    # The axioms passed, so this is a read of a value no
                    # committed transaction finally wrote — let the
                    # fallback's polygraph construction name the anomaly.
                    seed(txn, "unjustified-read")
                elif writer is not expected:
                    seed(txn, "prefix-read")

        residue, clusters, residue_clusters = (
            _residue(history, committed, seeds) if seeds else ([], 0, 0))
        stats = {
            "clusters": clusters,
            "residue_clusters": residue_clusters,
            "residue_txns": len(residue),
            "residue_fraction": (len(residue) / len(committed)
                                 if committed else 0.0),
            "residue_reasons": reasons,
        }
        return residue, stats


def _residue(history: History, committed: List[Transaction],
             seeds: set) -> Tuple[List[Transaction], int, int]:
    """``(residue, clusters, residue_clusters)``: the committed
    transactions connected to a seed over *shared key or same session*,
    and how many such clusters there are in all and with a seed."""
    parent = {t.tid: t.tid for t in committed}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for sess in history.sessions:
        prev = None
        for txn in sess:
            if not txn.committed:
                continue
            if prev is not None:
                union(prev, txn.tid)
            prev = txn.tid
    last_by_key: Dict = {}
    for txn in committed:
        for op in txn.ops:
            other = last_by_key.get(op.key)
            if other is not None:
                union(other, txn.tid)
            last_by_key[op.key] = txn.tid

    residue_roots = {find(tid) for tid in seeds}
    residue = [t for t in committed if find(t.tid) in residue_roots]
    return (residue, len({find(t.tid) for t in committed}),
            len(residue_roots))


def _residue_history(history: History,
                     residue: List[Transaction]) -> Tuple[History, List[str]]:
    """The subhistory induced by the residue transactions.

    Sessions keep their relative transaction order; the returned name
    list maps the subhistory's dense session-major tids back to the
    original transactions' paper-style names, so fallback witnesses
    render in the caller's terms.
    """
    keep = {t.tid for t in residue}
    session_ops = []
    names: List[str] = []
    for sess in history.sessions:
        kept = [t for t in sess if t.tid in keep]
        if kept:
            session_ops.append([list(t.ops) for t in kept])
            names.extend(t.name for t in kept)
    sub = History.from_ops(session_ops)
    return sub, names
