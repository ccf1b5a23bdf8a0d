"""Version-order inference for list-append histories.

Lists make most of the polygraph's uncertainty disappear:

- every observed list of key ``x`` must be a *prefix* of every longer
  observed list (append-only semantics) — a mismatch is an immediate
  violation;
- the longest observed list per key therefore totally orders all
  *observed* appends: known WW edges;
- a reader of a length-k list reads-from the appender of the k-th
  element (WR), and anti-depends (RW) on every appender of a later
  version — all later observed appenders and every unobserved appender;
- only the relative order of *unobserved* appends (never returned by any
  read) remains uncertain, yielding pure-WW constraints with no RW
  side-effects.

The result is a :class:`~repro.core.polygraph.GeneralizedPolygraph` over
a faux register history (appends become writes of their value, list reads
become reads of the observed tail), so PolySI's pruning, encoding, and
solving stages run unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.axioms import AxiomViolation
from ..core.history import History, Operation, R, W
from ..core.polygraph import (
    Constraint,
    GeneralizedPolygraph,
    RW,
    SO,
    WR,
    WW,
)
from .model import ListHistory, ListTransaction

__all__ = ["build_list_polygraph", "register_view"]


def register_view(history: ListHistory) -> History:
    """Faux register history used for vertex bookkeeping and display.

    Appends become writes of their value; list reads become reads of the
    observed tail element (or the initial value for an empty list).
    """
    sessions: List[List] = []
    aborted = set()
    for s, sess in enumerate(history.sessions):
        ops_list = []
        for i, txn in enumerate(sess):
            ops: List[Operation] = []
            for op in txn.ops:
                if op.is_append:
                    ops.append(W(op.key, op.value))
                else:
                    tail = op.value[-1] if op.value else None
                    ops.append(R(op.key, tail))
            ops_list.append(ops)
            if not txn.committed:
                aborted.add((s, i))
        sessions.append(ops_list)
    return History.from_ops(sessions, aborted=aborted)


def _check_internal(txn: ListTransaction) -> List[AxiomViolation]:
    """Intra-transaction list consistency: later reads of a key must extend
    earlier observations and must end with the transaction's own appends."""
    violations: List[AxiomViolation] = []
    seen: Dict = {}
    my_appends: Dict = {}
    for op in txn.ops:
        if op.is_append:
            my_appends.setdefault(op.key, []).append(op.value)
            continue
        observed = op.value
        expect_suffix = tuple(my_appends.get(op.key, ()))
        if expect_suffix and observed[-len(expect_suffix):] != expect_suffix:
            violations.append(
                AxiomViolation(
                    "Int", None, op.key, observed,
                    f"list read {list(observed)!r} missing own appends "
                    f"{list(expect_suffix)!r}",
                )
            )
        base = observed[: len(observed) - len(expect_suffix)]
        prev = seen.get(op.key)
        if prev is not None and base[: len(prev)] != prev:
            violations.append(
                AxiomViolation(
                    "Int", None, op.key, observed,
                    f"list read {list(observed)!r} not an extension of "
                    f"earlier read {list(prev)!r}",
                )
            )
        seen[op.key] = base
    for violation in violations:
        violation.txn = txn  # type: ignore[attr-defined]
    return violations


def build_list_polygraph(
    history: ListHistory,
) -> Tuple[GeneralizedPolygraph, List[AxiomViolation], History]:
    """Infer the polygraph of a list-append history.

    Returns ``(polygraph, violations, register_history)``; a non-empty
    violation list means the history already fails before cycle analysis.
    """
    violations: List[AxiomViolation] = []
    for txn in history.transactions:
        violations.extend(_check_internal(txn))

    # Appender index: (key, value) -> committed transaction.
    appender: Dict[Tuple, ListTransaction] = {}
    aborted_appends: Dict[Tuple, ListTransaction] = {}
    for txn in history.transactions:
        index = appender if txn.committed else aborted_appends
        for key, values in txn.appends.items():
            for value in values:
                if (key, value) in appender or (key, value) in aborted_appends:
                    violations.append(
                        AxiomViolation(
                            "DuplicateAppend", txn, key, value,
                            f"value {value!r} appended to {key!r} twice",
                        )
                    )
                index[(key, value)] = txn

    # Longest observed list per key + prefix compatibility of all reads.
    longest: Dict[object, Tuple] = {}
    for txn in history.transactions:
        if not txn.committed:
            continue
        for key, observed in txn.external_reads.items():
            best = longest.get(key, ())
            short, long_ = sorted((tuple(observed), best), key=len)
            if long_[: len(short)] != short:
                violations.append(
                    AxiomViolation(
                        "ListPrefixViolation", txn, key, observed,
                        f"observed {list(observed)!r} incompatible with "
                        f"{list(long_)!r}",
                    )
                )
                continue
            if len(observed) > len(best):
                longest[key] = tuple(observed)

    # Observed values must come from committed appends; transactions whose
    # appends appear in a list must appear contiguously (atomicity).
    for key, chain in longest.items():
        for value in chain:
            if (key, value) in aborted_appends:
                violations.append(
                    AxiomViolation(
                        "AbortedReads",
                        aborted_appends[(key, value)], key, value,
                        f"aborted append {value!r} observed on {key!r}",
                    )
                )
            elif (key, value) not in appender:
                violations.append(
                    AxiomViolation(
                        "UnjustifiedRead", None, key, value,
                        f"observed {value!r} on {key!r} was never appended",
                    )
                )
        owners = [appender.get((key, v)) for v in chain]
        seen_done: set = set()
        prev = None
        for owner in owners:
            if owner is None:
                prev = None
                continue
            if owner is not prev and owner.tid in seen_done:
                violations.append(
                    AxiomViolation(
                        "FracturedAppend", owner, key, None,
                        f"{owner.name}'s appends to {key!r} are not contiguous",
                    )
                )
            if prev is not None and owner is not prev:
                seen_done.add(prev.tid)
            prev = owner

    # A snapshot cuts the version chain *between* transactions, never inside
    # one: an observed list ending mid-way through a transaction's append
    # block is the list analog of an intermediate read.
    for txn in history.transactions:
        if not txn.committed:
            continue
        for key, observed in txn.external_reads.items():
            if not observed:
                continue
            tail_owner = appender.get((key, observed[-1]))
            if tail_owner is None:
                continue  # already reported as unjustified/aborted
            block = tail_owner.appends.get(key, ())
            if tuple(observed[-len(block):]) != tuple(block):
                violations.append(
                    AxiomViolation(
                        "IntermediateReads", txn, key, observed,
                        f"read {list(observed)!r} splits {tail_owner.name}'s "
                        f"atomic appends {list(block)!r}",
                    )
                )

    register = register_view(history)
    if violations:
        graph = GeneralizedPolygraph(register, len(register.transactions), None)
        return graph, violations, register

    # -- build the polygraph -------------------------------------------------
    n = len(register.transactions)
    reads_initial = any(
        not observed
        for txn in history.transactions
        if txn.committed
        for observed in txn.external_reads.values()
    )
    init_vertex = n if reads_initial else None
    graph = GeneralizedPolygraph(
        register, n + (1 if reads_initial else 0), init_vertex
    )

    for a, b in history.session_order_pairs():
        graph.add_known((a.tid, b.tid, SO, None))

    # Each key's appenders and observers, indexed in one pass each (in
    # appender and transaction order), so the per-key loop below reads
    # only its own key's.
    appends_by_key: Dict[object, List[Tuple]] = {}
    for (key, value), txn in appender.items():
        appends_by_key.setdefault(key, []).append((value, txn.tid))
    observers_by_key: Dict[object, List[Tuple]] = {}
    for txn in history.transactions:
        if txn.committed:
            for key, observed in txn.external_reads.items():
                observers_by_key.setdefault(key, []).append((txn.tid, observed))

    # Chain of writer transactions per key (observed order), collapsed to
    # transaction granularity, plus the unobserved appenders.
    for key in {k for (k, _v) in appender}:
        chain = longest.get(key, ())
        chain_txns: List[int] = []
        observed_values = set(chain)
        for value in chain:
            tid = appender[(key, value)].tid
            if not chain_txns or chain_txns[-1] != tid:
                chain_txns.append(tid)
        # No FracturedAppend was found, so each chain transaction appears
        # once and has one position.
        position_of = {tid: at for at, tid in enumerate(chain_txns)}
        unobserved = sorted(
            {
                tid
                for value, tid in appends_by_key[key]
                if value not in observed_values and tid not in position_of
            }
        )
        # Known WW: the observed chain, then every unobserved appender.
        prev_vertex = init_vertex
        for tid in chain_txns:
            if prev_vertex is not None:
                graph.add_known((prev_vertex, tid, WW, key))
            prev_vertex = tid
        for tid in unobserved:
            if prev_vertex is not None:
                graph.add_known((prev_vertex, tid, WW, key))
            elif init_vertex is not None:
                graph.add_known((init_vertex, tid, WW, key))
        # Constraints: relative order of unobserved appenders (no readers,
        # so the branches are pure WW edges).
        for i in range(len(unobserved)):
            for j in range(i + 1, len(unobserved)):
                t, s = unobserved[i], unobserved[j]
                graph.constraints.append(Constraint(key, t, s))
        # WR and RW edges from every observer of the key.
        for reader, observed in observers_by_key.get(key, ()):
            if observed:
                tail_writer = appender[(key, observed[-1])].tid
                position = position_of[tail_writer]
            elif init_vertex is not None:
                tail_writer = init_vertex
                position = -1
            else:  # pragma: no cover - unreachable: empty read implies init
                continue
            if tail_writer != reader:
                graph.add_known((tail_writer, reader, WR, key))
                graph.readers_from.setdefault((tail_writer, key), []).append(
                    reader
                )
            for later in chain_txns[position + 1:] + unobserved:
                if later != reader:
                    graph.add_known((reader, later, RW, key))

    return graph, violations, register
