"""The incremental transitive-closure kernel: one contract, two kernels.

One closure *contract* (:class:`ClosureBackend`) serves every checker
in the codebase, and each checker owns the kernel that suits its access
pattern (DESIGN.md S10):

- the **batch** pruning fixpoint (:mod:`repro.core.pruning`) — and
  with it segmented checking and the timestamp engine's fallback —
  seeds :class:`PyBitsetClosure` (arbitrary-precision-int bitsets) from
  the SCC-condensed bitset closure on iteration 1 and then only
  propagates the edges each later iteration promotes to *known*.  It is
  lookup-bound: one ``row()`` per pair-form question, which an int row
  answers without conversion;
- the **online** checker (:mod:`repro.online.checker`) grows
  :class:`~repro.utils.closure_np.NumpyBitsetClosure` (packed ``uint64``
  matrices) one transaction at a time and additionally relies on cycle
  reporting and window compaction.  It is update-bound (one bulk-OR
  ``insert`` per pair, one ``insert_into`` per arrival's in-pairs).

Because two kernels serve the same contract, a fast-but-wrong kernel
would silently corrupt a mode.  :class:`PyBitsetClosure` is therefore
also the reference: ``tests/test_closure_backends.py`` replays
identical operation scripts against both kernels and asserts identical
observable behaviour, counters included.

The kernel maintains *both* directions of the closure:

- ``rows[u]`` — vertices strictly reachable from ``u``;
- ``co_rows[v]`` — vertices that strictly reach ``v``.

Inserting ``u -> v`` unions ``v``'s forward row into every ancestor of
``u`` (and symmetrically for the backward rows), touching only ancestors
whose rows actually change — O(|ancestors| * n/64) words per edge, and
O(1) when the edge is already implied.  Insertion reports whether the
edge closed a directed cycle: for the online checker that is the moment
a known-graph SI violation becomes undeniable, while batch pruning
tolerates it (a cyclic known graph is decided later, at encoding time)
because the rows stay exact — cycle members become self-reaching, the
same facts the SCC-condensed recompute would produce.

The backward rows are *lazy*: a closure built through ``from_rows``
(the batch seeding path) defers them, and ``insert`` then finds the
ancestors of ``u`` by an O(n) row scan instead — cheaper than
materializing the transpose when only a trickle of late-iteration edges
ever arrives.  A closure built through the constructor (the online
path, which inserts every edge it will ever know about) materializes
them eagerly and pays O(|ancestors|) per insert as before.

``compact`` renumbers the closure onto a surviving subset of vertices
(window eviction): transitive facts *through* evicted vertices are
preserved, because the rows already contain the closed-over reachability
rather than raw adjacency.

Each kernel's :attr:`~ClosureBackend.name` (``"python"``, ``"numpy"``)
is reported in ``Report.stats["closure_backend"]`` and names its
``closure.<name>.*`` counters, as provenance.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "ClosureBackend",
    "PyBitsetClosure",
    "NEW",
    "KNOWN",
    "CYCLE",
    "iter_bits",
]

# Insertion outcomes.
NEW = "new"
KNOWN = "known"
CYCLE = "cycle"


def iter_bits(mask: int) -> Iterable[int]:
    """Yield the set bit positions of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClosureBackend:
    """The incremental-closure contract both kernels honour.

    All behaviour observable through this surface must be identical
    across kernels — the differential suite
    (``tests/test_closure_backends.py``) replays identical operation
    scripts against both and asserts exactly that,
    and the property suite checks the closure invariants (transitivity,
    insert idempotence, ``reaches_any``/``successors`` consistency,
    ``compact`` preserving live reachability) against this abstract
    spec.

    Vertices are dense ids ``0..num_vertices-1``.  Bit masks passed to
    :meth:`reaches_any` and lists returned by :meth:`int_rows` /
    :attr:`co_rows` are arbitrary-precision Python ints with bit ``v``
    standing for vertex ``v`` — the backend-independent serialization
    (what a checkpoint stores).
    """

    __slots__ = ()

    #: Kernel name (``"python"``, ``"numpy"``), reported as provenance.
    name: str = "abstract"

    def __init__(self, n: int = 0):
        raise NotImplementedError

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "ClosureBackend":
        """Wrap precomputed closure ``rows`` (e.g. the batch SCC kernel's
        :attr:`~repro.utils.reachability.Reachability.rows`, as int
        bitsets) into an incremental closure.  The backward rows stay
        unmaterialized until something reads :attr:`co_rows`; inserts
        meanwhile find ancestors by row scan.  Direct-edge bookkeeping
        collapses onto the closure, as after a compaction.
        """
        raise NotImplementedError

    # -- observability -------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Monotonic per-instance operation counters: inserts by outcome
        (``inserts_new`` / ``inserts_known`` / ``inserts_cycle``),
        ``compacts``, and ``queries`` — closure lookups issued: one per
        ``has``, ``reaches_any`` or ``row`` call, however many pairs the
        caller then decides from the answer.

        Deterministic across kernels for identical operation scripts —
        the differential suite holds the numpy kernel to the python
        reference, counters included.  Kernels maintain the
        ``_inew`` / ``_iknown`` / ``_icycle`` / ``_ncompact`` /
        ``_nquery`` int slots this default implementation reads.
        """
        return {
            "inserts_new": self._inew,
            "inserts_known": self._iknown,
            "inserts_cycle": self._icycle,
            "compacts": self._ncompact,
            "queries": self._nquery,
        }

    def adopt_counters(self, other: "ClosureBackend") -> None:
        """Continue ``other``'s operation counters — for a closure that
        replaces ``other`` (a bulk reseed), so what :meth:`counters`
        reports stays monotone across the swap."""
        self._inew, self._iknown, self._icycle = (
            other._inew, other._iknown, other._icycle)
        self._ncompact, self._nquery = other._ncompact, other._nquery

    # -- introspection -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently tracked."""
        raise NotImplementedError

    @property
    def co_materialized(self) -> bool:
        """Whether the backward rows are currently materialized (False
        after ``from_rows``/``compact`` until :attr:`co_rows` is read —
        pinned by the differential suite, since laziness is part of the
        performance contract)."""
        raise NotImplementedError

    def int_rows(self) -> List[int]:
        """The forward rows as a fresh list of int bitsets — the
        backend-independent serialization used for checkpoints and
        cross-backend comparison."""
        raise NotImplementedError

    @property
    def co_rows(self) -> List[int]:
        """Backward rows (``co_rows[v]`` = int bitset of vertices
        strictly reaching ``v``), materialized from the forward rows on
        first use."""
        raise NotImplementedError

    # -- growth --------------------------------------------------------------

    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id."""
        raise NotImplementedError

    # -- queries -------------------------------------------------------------

    def has(self, u: int, v: int) -> bool:
        """True iff a path of length >= 1 leads from ``u`` to ``v``."""
        raise NotImplementedError

    def reaches_any(self, u: int, targets: int) -> bool:
        """``targets`` is an int bitmask of candidate vertices."""
        raise NotImplementedError

    def row(self, u: int) -> int:
        """The forward row of ``u`` as an int bitset (bit ``v`` set iff
        ``has(u, v)``): one lookup that answers any number of
        ``has(u, ·)`` / ``reaches_any(u, ·)`` questions by plain int
        arithmetic — how pruning tests every reader of a constraint
        branch."""
        raise NotImplementedError

    def has_cycle(self) -> bool:
        """True iff some vertex reaches itself, i.e. the graph whose
        closure this is contains a directed cycle.  The rows are exact,
        so this is a read of their diagonal, not a search."""
        raise NotImplementedError

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``u -> v`` was inserted as a direct edge."""
        raise NotImplementedError

    def successors(self, u: int) -> Iterable[int]:
        """Vertices strictly reachable from ``u`` (transitive),
        ascending."""
        raise NotImplementedError

    def successors_direct(self, u: int) -> Iterable[int]:
        """Direct successors of ``u`` (edges as inserted; after a
        compaction these are the closed-over edges), ascending."""
        raise NotImplementedError

    # -- mutation ------------------------------------------------------------

    def insert(self, u: int, v: int) -> str:
        """Insert edge ``u -> v``; returns ``"new"``, ``"known"`` (edge
        already implied transitively — rows unchanged beyond recording
        the direct edge), or ``"cycle"`` (the edge closes a directed
        cycle; it is still inserted, leaving the rows self-reaching).
        """
        raise NotImplementedError

    def insert_into(self, v: int, sources: Sequence[int]) -> List[str]:
        """``[insert(u, v) for u in sources]`` into a ``v`` that reaches
        nothing (else ``ValueError``), in one pass: each pair only sets
        bit ``v`` in the rows of ``v``'s new ancestors.  Kernels provide
        ``_peek`` (``row``, not counted) and ``_install_into``."""
        if self._peek(v):
            raise ValueError(f"insert_into: vertex {v} is not a sink")
        # ``u`` reaches ``v`` already iff its row meets ``v`` or an earlier
        # source (or it is one); only ``u == v`` closes a cycle.
        seen, new, outcomes = 1 << v, 0, []
        for u in sources:
            ubit = 1 << u
            if u != v and (self._peek(u) | ubit) & seen:
                self._iknown += 1
                outcomes.append(KNOWN)
            else:
                outcomes.append(self._insert_outcome(u == v))
                new |= ubit
            seen |= ubit
        self._install_into(v, sources, new)
        return outcomes

    def _insert_outcome(self, cyclic: bool) -> str:
        if cyclic:
            self._icycle += 1
            return CYCLE
        self._inew += 1
        return NEW

    def compact(self, live: Sequence[int]) -> List[int]:
        """Renumber onto ``live`` (old vertex ids; their order of
        appearance defines the new ids — in-repo callers pass them
        ascending).  Returns ``old_to_new`` as a list with -1 for
        evicted vertices.  Transitive reachability between surviving
        vertices — including paths through evicted ones — is preserved;
        direct-edge bookkeeping is collapsed onto the closure.  An empty
        ``live`` empties the closure (and ``add_vertex`` must keep
        working afterwards); a one-shot iterator is accepted.
        """
        raise NotImplementedError


class PyBitsetClosure(ClosureBackend):
    """Strict reachability under incremental edge insertion, rows as
    arbitrary-precision-int bitsets.

    Batch pruning's kernel, and the reference: pure Python, no
    dependencies, and the differential baseline the numpy kernel is
    fuzzed against.  Compatible with the ``has``/``reaches_any``/``row`` query surface of
    :class:`repro.utils.reachability.Reachability`, so pruning logic can
    run against either oracle.
    """

    __slots__ = ("rows", "_co_rows", "edges",
                 "_inew", "_iknown", "_icycle", "_ncompact", "_nquery")

    name = "python"

    def __init__(self, n: int = 0):
        self.rows: List[int] = [0] * n
        self._co_rows: Optional[List[int]] = [0] * n
        #: Direct (non-transitive) edges actually inserted, as pair masks;
        #: used to rebuild typed structure after compaction.
        self.edges: List[int] = [0] * n
        self._inew = self._iknown = self._icycle = 0
        self._ncompact = self._nquery = 0

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "PyBitsetClosure":
        """See :meth:`ClosureBackend.from_rows`."""
        out = cls(0)
        out.rows = list(rows)
        out._co_rows = None
        out.edges = list(out.rows)
        return out

    @property
    def co_rows(self) -> List[int]:
        """See :attr:`ClosureBackend.co_rows`."""
        if self._co_rows is None:
            co: List[int] = [0] * len(self.rows)
            for u, row in enumerate(self.rows):
                bit = 1 << u
                for v in iter_bits(row):
                    co[v] |= bit
            self._co_rows = co
        return self._co_rows

    @property
    def co_materialized(self) -> bool:
        return self._co_rows is not None

    @property
    def num_vertices(self) -> int:
        return len(self.rows)

    def int_rows(self) -> List[int]:
        return list(self.rows)

    def add_vertex(self) -> int:
        """See :meth:`ClosureBackend.add_vertex`."""
        self.rows.append(0)
        if self._co_rows is not None:
            self._co_rows.append(0)
        self.edges.append(0)
        return len(self.rows) - 1

    # -- queries -------------------------------------------------------------

    def has(self, u: int, v: int) -> bool:
        self._nquery += 1
        return bool((self.rows[u] >> v) & 1)

    def reaches_any(self, u: int, targets: int) -> bool:
        self._nquery += 1
        return bool(self.rows[u] & targets)

    def row(self, u: int) -> int:
        self._nquery += 1
        return self.rows[u]

    def has_cycle(self) -> bool:
        return any(row >> u & 1 for u, row in enumerate(self.rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.edges[u] >> v) & 1)

    def successors(self, u: int) -> Iterable[int]:
        return iter_bits(self.rows[u])

    def successors_direct(self, u: int) -> Iterable[int]:
        return iter_bits(self.edges[u])

    # -- mutation ------------------------------------------------------------

    def insert(self, u: int, v: int) -> str:
        """See :meth:`ClosureBackend.insert`."""
        rows, co = self.rows, self._co_rows
        self.edges[u] |= 1 << v
        # Cycle first: on a closure that is already cyclic an implied
        # edge may close a cycle too.  Otherwise bit ``v`` of ``rows[u]``
        # decides — the rows are transitively closed, so ``u`` reaching
        # ``v`` means it reaches everything ``v`` does.
        cyclic = u == v or bool((rows[v] >> u) & 1)
        if not cyclic and (rows[u] >> v) & 1:
            self._iknown += 1
            return KNOWN
        targets = rows[v] | (1 << v)
        if co is None:
            # Backward rows unmaterialized: scan for the ancestors of
            # ``u`` instead (O(n) cheap bit tests).
            for x in range(len(rows)):
                if (x == u or (rows[x] >> u) & 1) and targets & ~rows[x]:
                    rows[x] |= targets
            return self._insert_outcome(cyclic)
        sources = co[u] | (1 << u)
        for x in iter_bits(sources):
            if targets & ~rows[x]:
                rows[x] |= targets
        for y in iter_bits(targets):
            if sources & ~co[y]:
                co[y] |= sources
        return self._insert_outcome(cyclic)

    def _peek(self, u: int) -> int:
        return self.rows[u]

    def _install_into(self, v: int, sources: Sequence[int], new: int) -> None:
        rows, co, bit = self.rows, self._co_rows, 1 << v
        for u in sources:
            self.edges[u] |= bit
        if co is None:  # the new sources and every row meeting one
            gained = [x for x, row in enumerate(rows)
                      if (new >> x & 1 or row & new) and not row & bit]
        else:
            for u in iter_bits(new):
                new |= co[u]
            gained = iter_bits(new & ~co[v])
            co[v] |= new
        for x in gained:
            rows[x] |= bit

    def compact(self, live: Sequence[int]) -> List[int]:
        """See :meth:`ClosureBackend.compact`."""
        # ``live`` is iterated more than once below: materialize it so a
        # one-shot iterator cannot silently empty the closure (a latent
        # edge case surfaced by the cross-backend fuzz suite).
        self._ncompact += 1
        live = list(live)
        old_n = len(self.rows)
        old_to_new = [-1] * old_n
        for new_id, old_id in enumerate(live):
            old_to_new[old_id] = new_id

        def remap(mask: int) -> int:
            out = 0
            for bit in iter_bits(mask):
                mapped = old_to_new[bit]
                if mapped >= 0:
                    out |= 1 << mapped
            return out

        self.rows = [remap(self.rows[v]) for v in live]
        if self._co_rows is not None:
            self._co_rows = [remap(self._co_rows[v]) for v in live]
        # After compaction the surviving "direct" edges are the closure
        # itself: paths through evicted vertices must stay edges.
        self.edges = list(self.rows)
        return old_to_new
