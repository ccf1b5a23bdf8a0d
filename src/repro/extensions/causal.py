"""Checkers for weaker isolation levels: TCC and Read Atomicity.

The paper's conclusion names SMT-based black-box checking of
*transactional causal consistency* (TCC) as the obvious next step; this
module implements it (and the weaker read-atomicity level) with the
machinery already in the repository.  Both sit below SI in the Figure 1
hierarchy:

    RC -> RA -> TCC -> SI -> SER        (each arrow: strictly weaker)

so every SI-consistent history must pass both checkers, and a TCC/RA
violation is *a fortiori* an SI violation — properties the test suite
enforces against the SI checker on random histories.

With unique values the classic bad-pattern characterizations
[Bouajjani et al., POPL'17; Biswas & Enea, OOPSLA'19] make both levels
polynomial:

- **TCC**: let the causal order be ``CO = (SO ∪ WR)+``.  The history
  violates TCC iff CO is cyclic (a transaction causally precedes
  itself), or some read observes a *causally overwritten* version:
  ``w -CO-> w' -CO-> r`` where ``r`` reads key ``x`` from ``w`` and
  ``w'`` also writes ``x`` (bad pattern "WriteCORead"), or a version
  causally follows the reader ("WriteCOInitRead" style: ``r`` reads the
  initial value of ``x`` but some writer of ``x`` is CO-before ``r``).
- **RA (read atomicity / fractured reads)**: a transaction that reads
  two keys written by one transaction ``w`` must not observe ``x`` from
  ``w`` but ``y`` from a writer that causally precedes ``w`` — and in
  particular must not mix ``w``'s values with pre-``w`` initial values.

Both levels read the history through PolySI's front half
(:func:`repro.core.polygraph.index_history` and ``match_history``, one
read-matching pass).  Its anomaly list applies to every level and, when
non-empty, is the verdict exactly as PolySI reports it: Int,
AbortedReads and IntermediateReads, then the reads no write justifies
(FutureRead, UnjustifiedRead).  A UniqueValue violation raises
:class:`~repro.core.history.DuplicateValueError`, as it does for SI.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..core.axioms import AxiomViolation
from ..core.history import History
from ..core.polygraph import SO, WR, index_history, match_history
from ..utils.reachability import transitive_closure_bits

__all__ = ["WeakCheckResult"]


class WeakCheckResult:
    """Verdict of a TCC / RA check."""

    def __init__(self, level: str) -> None:
        self.level = level
        self.satisfies = True
        self.anomalies: List[AxiomViolation] = []
        self.seconds = 0.0

    def describe(self) -> str:
        """Human-readable verdict with anomaly details."""
        if self.satisfies:
            return f"history satisfies {self.level}"
        lines = [f"history violates {self.level}:"]
        lines += [f"  - {a!r}" for a in self.anomalies]
        return "\n".join(lines)

    def __repr__(self) -> str:
        verdict = "ok" if self.satisfies else f"{len(self.anomalies)} anomalies"
        return f"WeakCheckResult({self.level}, {verdict})"


def _front_half(history: History):
    """PolySI's front half, once (Algorithm 1 line 2, CreateKnownGraph):
    the anomaly list — the verdict when non-empty — the ``(reader, key,
    writer)`` triples in transaction order (writer -1 for the initial
    state), the causal order ``(SO ∪ WR)+`` and each key's writers."""
    builder, graph = index_history(history)
    anomalies = match_history(builder, graph)
    init, n = builder.init_vertex, len(history.transactions)
    reads = [(reader, key, -1 if writer == init else writer)
             for reader in sorted(builder.reads_of)
             for writer, key in builder.reads_of[reader]]
    succ: List[List[int]] = [[] for _ in range(n)]
    for u, v, label, _key in graph.known_edges:
        if label in (SO, WR) and u != init:
            succ[u].append(v)
    return (anomalies, reads, transitive_closure_bits(n, succ),
            builder.writers_of)


def _check_tcc(history: History) -> WeakCheckResult:
    """Decide TCC for ``history`` (bad-pattern search, polynomial)."""
    result = WeakCheckResult("TCC")
    start = time.perf_counter()

    result.anomalies, reads, co, writers_of = _front_half(history)
    txns = history.transactions

    if not result.anomalies:
        # Cyclic causality: a transaction causally precedes itself.
        for txn in txns:
            if txn.committed and co.has(txn.tid, txn.tid):
                result.anomalies.append(
                    AxiomViolation(
                        "CyclicCO", txn, None, None,
                        f"{txn.name} causally precedes itself",
                    )
                )
    if result.anomalies:
        result.satisfies = False
        result.seconds = time.perf_counter() - start
        return result

    # Bad pattern WriteCORead: reader observes a causally overwritten
    # version — some other writer of the key sits CO-between the version
    # it read and itself.
    for reader, key, writer in reads:
        for other in writers_of.get(key, ()):
            if other == reader or other == writer:
                continue
            if writer == -1:
                # Initial read: any writer causally before the reader has
                # overwritten the initial version.
                if co.has(other, reader):
                    result.anomalies.append(
                        AxiomViolation(
                            "WriteCOInitRead", txns[reader], key, None,
                            f"{txns[reader].name} read the initial "
                            f"{key!r} although {txns[other].name} "
                            "causally precedes it",
                        )
                    )
            elif co.has(writer, other) and co.has(other, reader):
                result.anomalies.append(
                    AxiomViolation(
                        "WriteCORead", txns[reader], key, None,
                        f"{txns[reader].name} read {key!r} from "
                        f"{txns[writer].name} although "
                        f"{txns[other].name} causally overwrote it",
                    )
                )

    result.satisfies = not result.anomalies
    result.seconds = time.perf_counter() - start
    return result


def _check_ra(history: History) -> WeakCheckResult:
    """Decide Read Atomicity (no fractured reads) for ``history``."""
    result = WeakCheckResult("RA")
    start = time.perf_counter()

    result.anomalies, reads, co, _writers_of = _front_half(history)
    if result.anomalies:
        result.satisfies = False
        result.seconds = time.perf_counter() - start
        return result
    txns = history.transactions

    # Per reader: the set of writers it observed, per key.
    observed: Dict[int, Dict[object, int]] = {}
    for reader, key, writer in reads:
        observed.setdefault(reader, {})[key] = writer

    for reader, key_writers in observed.items():
        for key, writer in key_writers.items():
            if writer < 0:
                continue
            writer_txn = txns[writer]
            # Every other key the writer also wrote and the reader also
            # read must come from the writer itself or something that does
            # not causally precede it.
            for other_key in writer_txn.keys_written:
                if other_key == key or other_key not in key_writers:
                    continue
                seen_from = key_writers[other_key]
                if seen_from == writer:
                    continue
                fractured = (
                    seen_from == -1 or co.has(seen_from, writer)
                )
                if fractured:
                    source = (
                        "the initial state" if seen_from == -1
                        else txns[seen_from].name
                    )
                    result.anomalies.append(
                        AxiomViolation(
                            "FracturedRead", txns[reader], other_key, None,
                            f"{txns[reader].name} observed {key!r} from "
                            f"{writer_txn.name} but {other_key!r} from "
                            f"{source}, which predates it",
                        )
                    )

    result.satisfies = not result.anomalies
    result.seconds = time.perf_counter() - start
    return result
