"""Transactions, sessions, and histories (paper Section 2.2).

A *history* records the client-observable interactions with a database:
sessions issue transactions, each transaction is a program-ordered sequence
of read/write operations on keys.  The checker consumes nothing else, which
is what makes it a *black-box* checker.

The model follows Definition 3 and 4 of the paper:

- a transaction is a pair ``(O, po)`` — here the program order is the
  order of the ``ops`` tuple;
- a history is a pair ``(T, SO)`` — here the session order is implied by
  the per-session transaction lists.

The "UniqueValue" assumption (Section 2.3) is enforced by
:meth:`History.validate`: for each key, every committed write installs a
distinct value, so a read can be matched to the unique transaction that
wrote the value it returned.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Optional, Sequence

__all__ = [
    "READ",
    "WRITE",
    "COMMITTED",
    "ABORTED",
    "INITIAL_VALUE",
    "Operation",
    "R",
    "W",
    "Transaction",
    "History",
    "HistoryBuilder",
    "HistoryError",
    "DuplicateValueError",
]

# Operation kinds.  Plain strings keep operations cheap and readable.
READ = "r"
WRITE = "w"

# Transaction statuses (the determinate-transaction assumption of
# Section 4.5: every transaction is either committed or aborted).
COMMITTED = "committed"
ABORTED = "aborted"

#: Reads returning this value are treated as reading the initial database
#: state (before any transaction ran).  The checker materializes a virtual
#: "init" transaction that wrote this value to every key.
INITIAL_VALUE = None


class HistoryError(ValueError):
    """A structurally invalid history."""


class DuplicateValueError(HistoryError):
    """The UniqueValue assumption is broken: two writes installed the same
    value on the same key."""


class Operation:
    """A single read or write of a key.

    ``Operation(READ, "x", 1)`` is the operation ``R(x, 1)`` of the paper;
    ``Operation(WRITE, "x", 1)`` is ``W(x, 1)``.
    """

    __slots__ = ("kind", "key", "value")

    def __init__(self, kind: str, key: Hashable, value: Any):
        if kind not in (READ, WRITE):
            raise HistoryError(f"unknown operation kind: {kind!r}")
        self.kind = kind
        self.key = key
        self.value = value

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Operation)
            and self.kind == other.kind
            and self.key == other.key
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.key, self.value))

    def __repr__(self) -> str:
        label = "R" if self.is_read else "W"
        return f"{label}({self.key!r}, {self.value!r})"


def R(key: Hashable, value: Any) -> Operation:
    """Shorthand for a read operation returning ``value``."""
    return Operation(READ, key, value)


def W(key: Hashable, value: Any) -> Operation:
    """Shorthand for a write operation installing ``value``."""
    return Operation(WRITE, key, value)


class Transaction:
    """A program-ordered sequence of operations issued by one session.

    Derived accessors implement the paper's notation:

    - ``T ⊢ W(x, v)`` — :meth:`writes` maps ``x`` to the *last* value the
      transaction wrote to ``x``;
    - ``T ⊢ R(x, v)`` — :meth:`external_reads` maps ``x`` to the value of
      the *first* read of ``x`` that precedes any write of ``x`` in the
      transaction (an "external" read, i.e. one served by the database
      rather than by the transaction's own buffered writes).
    """

    __slots__ = (
        "tid",
        "session",
        "index",
        "ops",
        "status",
        "start_ts",
        "commit_ts",
        "_writes",
        "_external_reads",
    )

    def __init__(
        self,
        tid: int,
        ops: Sequence[Operation],
        *,
        session: int = 0,
        index: int = 0,
        status: str = COMMITTED,
        start_ts: Optional[float] = None,
        commit_ts: Optional[float] = None,
    ):
        if status not in (COMMITTED, ABORTED):
            raise HistoryError(f"unknown transaction status: {status!r}")
        if not ops:
            raise HistoryError("a transaction must contain at least one operation")
        self.tid = tid
        self.session = session
        self.index = index
        self.ops = tuple(ops)
        self.status = status
        self.start_ts = start_ts
        self.commit_ts = commit_ts
        self._writes: Optional[dict] = None
        self._external_reads: Optional[dict] = None

    # -- derived views -----------------------------------------------------

    @property
    def committed(self) -> bool:
        return self.status == COMMITTED

    @property
    def timestamped(self) -> bool:
        """Whether the transaction carries a recorded start/commit pair.

        Timestamps are *optional observations* (captured by the
        collection harness or synthesized by :mod:`repro.timestamp`);
        the core checkers never read them, so an untimestamped
        transaction is a first-class citizen everywhere except the
        ``timestamp`` engine's fast path.
        """
        return self.start_ts is not None and self.commit_ts is not None

    @property
    def writes(self) -> dict:
        """Map key -> last value written to the key (``T ⊢ W(x, v)``)."""
        if self._writes is None:
            out: dict = {}
            for op in self.ops:
                if op.is_write:
                    out[op.key] = op.value
            self._writes = out
        return self._writes

    @property
    def external_reads(self) -> dict:
        """Map key -> value of first read preceding any write of the key."""
        if self._external_reads is None:
            out: dict = {}
            written: set = set()
            for op in self.ops:
                if op.is_write:
                    written.add(op.key)
                elif op.key not in written and op.key not in out:
                    out[op.key] = op.value
            self._external_reads = out
        return self._external_reads

    @property
    def keys_written(self):
        return self.writes.keys()

    @property
    def keys_read(self):
        return self.external_reads.keys()

    def __repr__(self) -> str:
        flag = "" if self.committed else "!"
        return f"T{flag}({self.session},{self.index})"

    @property
    def name(self) -> str:
        """Paper-style name ``T:(session, index)``."""
        return f"T:({self.session},{self.index})"


class History:
    """A set of transactions partitioned into sessions (Definition 4).

    ``sessions[s]`` lists the transactions of session ``s`` in session
    order; the session order SO is the union of those per-session total
    orders.  Transaction ids are dense integers ``0..len(transactions)-1``
    and index the ``transactions`` tuple, so graph code can use them
    directly as vertex ids.
    """

    __slots__ = ("sessions", "transactions", "_writer_index")

    def __init__(self, sessions: Sequence[Sequence[Transaction]]):
        self.sessions = tuple(tuple(sess) for sess in sessions)
        txns = [t for sess in self.sessions for t in sess]
        txns.sort(key=lambda t: t.tid)
        self.transactions = tuple(txns)
        for expect, txn in enumerate(self.transactions):
            if txn.tid != expect:
                raise HistoryError(
                    f"transaction ids must be dense 0..n-1; found {txn.tid} at {expect}"
                )
        self._writer_index: Optional[dict] = None

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_ops(
        session_ops: Sequence[Sequence[Sequence[Operation]]],
        *,
        aborted: Iterable[tuple] = (),
        timestamps: Optional[dict] = None,
    ) -> "History":
        """Build a history from nested op lists.

        ``session_ops[s][i]`` is the op list of the ``i``-th transaction of
        session ``s``.  ``aborted`` is a set of ``(session, index)`` pairs
        marking aborted transactions.  ``timestamps`` optionally maps
        ``(session, index)`` to a ``(start_ts, commit_ts)`` pair; absent
        entries leave the transaction untimestamped.  Transaction ids are
        assigned in session-major order.
        """
        aborted = set(aborted)
        timestamps = timestamps or {}
        sessions = []
        tid = 0
        for s, ops_list in enumerate(session_ops):
            sess = []
            for i, ops in enumerate(ops_list):
                status = ABORTED if (s, i) in aborted else COMMITTED
                start_ts, commit_ts = timestamps.get((s, i), (None, None))
                sess.append(
                    Transaction(tid, ops, session=s, index=i, status=status,
                                start_ts=start_ts, commit_ts=commit_ts)
                )
                tid += 1
            sessions.append(sess)
        return History(sessions)

    # -- views --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    @property
    def committed(self) -> tuple:
        return tuple(t for t in self.transactions if t.committed)

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    @property
    def num_operations(self) -> int:
        return sum(len(t.ops) for t in self.transactions)

    @property
    def keys(self) -> set:
        """Every key any operation touches."""
        out: set = set()
        for t in self.transactions:
            for op in t.ops:
                out.add(op.key)
        return out

    @property
    def timestamped_fraction(self) -> float:
        """Fraction of *committed* transactions carrying timestamps.

        ``1.0`` means the ``timestamp`` engine can attempt its fast path
        on every committed transaction; ``0.0`` (or an empty committed
        set) means the history predates timestamp capture and must be
        checked by the timestamp-free engines.
        """
        committed = self.committed
        if not committed:
            return 0.0
        stamped = sum(1 for t in committed if t.timestamped)
        return stamped / len(committed)

    def session_order_pairs(self) -> Iterator[tuple]:
        """Yield the *covering* SO pairs (consecutive committed transactions
        of each session).  Transitive SO pairs are implied by these."""
        for sess in self.sessions:
            committed = [t for t in sess if t.committed]
            for a, b in zip(committed, committed[1:]):
                yield a, b

    @property
    def writer_index(self) -> dict:
        """Map ``(key, value) -> Transaction`` over committed transactions.

        Only final writes (``T ⊢ W(x, v)``) are indexed; intermediate
        writes are tracked separately by the axioms module.  Raises
        :class:`DuplicateValueError` if the UniqueValue assumption fails.
        """
        if self._writer_index is None:
            index: dict = {}
            for t in self.transactions:
                if not t.committed:
                    continue
                for key, value in t.writes.items():
                    prev = index.get((key, value))
                    if prev is not None and prev is not t:
                        raise DuplicateValueError(
                            f"value {value!r} written to key {key!r} by both "
                            f"{prev.name} and {t.name}"
                        )
                    index[(key, value)] = t
            self._writer_index = index
        return self._writer_index

    def validate(self) -> None:
        """Check the UniqueValue assumption (and structural invariants)."""
        self.writer_index  # noqa: B018 - raises DuplicateValueError on failure

    def writers_of(self, key: Hashable) -> list:
        """Committed transactions writing ``key`` (``WriteTx_x``), in tid order."""
        return [t for t in self.transactions if t.committed and key in t.writes]

    def __repr__(self) -> str:
        return (
            f"History(sessions={self.num_sessions}, txns={len(self)}, "
            f"ops={self.num_operations})"
        )


class HistoryBuilder:
    """Incremental, ergonomic history construction (used by tests, examples,
    and the storage substrate's history recorder).

    >>> b = HistoryBuilder()
    >>> b.txn(0, [W("x", 1)])
    >>> b.txn(1, [R("x", 1), W("y", 2)])
    >>> h = b.build()
    """

    def __init__(self) -> None:
        self._sessions: dict = {}
        self._aborted: set = set()
        self._timestamps: dict = {}

    def txn(
        self,
        session: int,
        ops: Sequence[Operation],
        *,
        status: str = COMMITTED,
        start_ts: Optional[float] = None,
        commit_ts: Optional[float] = None,
    ) -> tuple:
        """Append a transaction to ``session``; returns ``(session, index)``."""
        sess = self._sessions.setdefault(session, [])
        idx = len(sess)
        sess.append(list(ops))
        if status == ABORTED:
            self._aborted.add((session, idx))
        elif status != COMMITTED:
            raise HistoryError(f"unknown transaction status: {status!r}")
        if start_ts is not None or commit_ts is not None:
            self._timestamps[(session, idx)] = (start_ts, commit_ts)
        return (session, idx)

    def build(self) -> History:
        """Materialize the accumulated transactions as a History."""
        if not self._sessions:
            raise HistoryError("cannot build an empty history")
        ordered = [self._sessions[s] for s in sorted(self._sessions)]
        # Remap the caller's aborted (session, index) pairs onto the dense
        # session numbering used by from_ops.
        session_renumber = {s: i for i, s in enumerate(sorted(self._sessions))}
        aborted = {(session_renumber[s], i) for (s, i) in self._aborted}
        timestamps = {(session_renumber[s], i): ts
                      for (s, i), ts in self._timestamps.items()}
        return History.from_ops(ordered, aborted=aborted,
                                timestamps=timestamps)
