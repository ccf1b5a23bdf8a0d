"""Non-cyclic axioms: Int, AbortedReads, IntermediateReads (Sections 2.2, 4.5).

Theorem 6 characterizes SI over *committed, whole transactions*, so cycles
alone miss three classes of anomalies that the checker must rule out first
(Algorithm 1, line 2):

- **Int** (internal consistency): inside a transaction, a read of ``x``
  returns the value of the last preceding write of ``x`` or, failing that,
  the value of the last preceding read of ``x``;
- **AbortedReads**: a committed transaction must not observe a value
  written by an aborted transaction;
- **IntermediateReads**: a transaction must not observe a value that its
  writer overwrote later in the same transaction.

Each check returns a list of :class:`AxiomViolation` records so callers can
report *all* offending reads, not just the first.
"""

from __future__ import annotations

from typing import List

from .history import History, Transaction, INITIAL_VALUE

__all__ = [
    "AxiomViolation",
    "int_violations",
    "check_internal_consistency",
    "check_aborted_reads",
    "check_intermediate_reads",
    "check_axioms",
]


class AxiomViolation:
    """A single violating read: which axiom, which transaction, which read."""

    __slots__ = ("axiom", "txn", "key", "value", "detail")

    def __init__(self, axiom: str, txn: Transaction, key, value, detail: str):
        self.axiom = axiom
        self.txn = txn
        self.key = key
        self.value = value
        self.detail = detail

    def __repr__(self) -> str:
        return f"AxiomViolation({self.axiom}, {self.txn.name}, {self.detail})"


def int_violations(txn: Transaction) -> List[AxiomViolation]:
    """The Int axiom of Theorem 6 for one transaction.

    Tracks, per key, the last value seen (written or read); any later
    read of the key must return exactly that value.  Shared by the batch
    pass below and the online checker's per-arrival check.
    """
    violations: List[AxiomViolation] = []
    last_seen: dict = {}
    for op in txn.ops:
        if op.is_read and op.key in last_seen and op.value != last_seen[op.key]:
            violations.append(
                AxiomViolation(
                    "Int",
                    txn,
                    op.key,
                    op.value,
                    f"read {op.value!r} after observing "
                    f"{last_seen[op.key]!r} on {op.key!r}",
                )
            )
        last_seen[op.key] = op.value
    return violations


def check_internal_consistency(history: History) -> List[AxiomViolation]:
    """The Int axiom over every transaction (see :func:`int_violations`)."""
    violations: List[AxiomViolation] = []
    for txn in history.transactions:
        violations.extend(int_violations(txn))
    return violations


def check_aborted_reads(history: History) -> List[AxiomViolation]:
    """No committed transaction reads a value written by an aborted one.

    Under UniqueValue a read can be matched to at most one writer, so this
    reduces to an index lookup over the values aborted transactions wrote.
    """
    aborted_writes: dict = {}
    for txn in history.transactions:
        if txn.committed:
            continue
        for op in txn.ops:
            if op.is_write:
                aborted_writes[(op.key, op.value)] = txn

    violations: List[AxiomViolation] = []
    for txn in history.transactions:
        if not txn.committed:
            continue
        for key, value in txn.external_reads.items():
            if value is INITIAL_VALUE:
                continue
            writer = aborted_writes.get((key, value))
            if writer is not None:
                violations.append(
                    AxiomViolation(
                        "AbortedReads",
                        txn,
                        key,
                        value,
                        f"read {value!r} on {key!r} written by aborted {writer.name}",
                    )
                )
    return violations


def check_intermediate_reads(history: History) -> List[AxiomViolation]:
    """No transaction reads a value overwritten by its own writer.

    A value ``v`` written to ``x`` by ``T`` is *intermediate* when ``T``
    wrote ``x`` again after installing ``v``; only ``T``'s final value may
    be observed by other transactions.
    """
    intermediate: dict = {}
    for txn in history.transactions:
        if not txn.committed:
            continue
        last: dict = {}
        for op in txn.ops:
            if op.is_write:
                if op.key in last:
                    intermediate[(op.key, last[op.key])] = txn
                last[op.key] = op.value

    violations: List[AxiomViolation] = []
    for txn in history.transactions:
        if not txn.committed:
            continue
        for key, value in txn.external_reads.items():
            if value is INITIAL_VALUE:
                continue
            writer = intermediate.get((key, value))
            if writer is not None and writer is not txn:
                violations.append(
                    AxiomViolation(
                        "IntermediateReads",
                        txn,
                        key,
                        value,
                        f"read intermediate {value!r} on {key!r} from {writer.name}",
                    )
                )
    return violations


def check_axioms(history: History) -> List[AxiomViolation]:
    """Run all three non-cyclic axiom checks (Algorithm 1, line 2)."""
    violations = check_internal_consistency(history)
    violations.extend(check_aborted_reads(history))
    violations.extend(check_intermediate_reads(history))
    return violations
