"""Generalized polygraphs (paper Section 3).

A generalized polygraph ``G = (V, E, C)`` compactly represents *all*
dependency graphs that could extend a history:

- ``V`` — one vertex per transaction (plus a virtual "init" vertex when
  some read observed the initial database state);
- ``E`` — the *known* edges: session order (SO), write-read (WR), and any
  WW/RW edges that pruning has promoted from constraints;
- ``C`` — *generalized constraints* ``<either, or>``: for every key ``x``
  and every unordered pair of transactions ``{T, S}`` writing ``x``,
  either ``T`` precedes ``S`` in the version order of ``x`` (which forces
  an RW edge from every transaction reading ``x`` from ``T`` to ``S``) or
  vice versa (Definition 9).

``build_polygraph`` also supports the *non-compacted* construction used by
the "PolySI w/o compaction" ablation (Figure 10): each generalized
constraint is decomposed into one WW-direction constraint per writer pair
plus one constraint per reader, following classic polygraphs
(Definition 8) while remaining complete for SI.  Both constructions emit
the one :class:`Constraint` form — a writer pair and two reader lists —
so everything downstream handles a single shape.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from .axioms import AxiomViolation
from .history import (
    COMMITTED,
    DuplicateValueError,
    History,
    INITIAL_VALUE,
    Operation,
    READ,
    Transaction,
)

if TYPE_CHECKING:
    from .known import KnownGraph

__all__ = [
    "SO",
    "WR",
    "WW",
    "RW",
    "DEP_LABELS",
    "Edge",
    "Constraint",
    "GeneralizedPolygraph",
    "PolygraphBuilder",
    "branch_edges",
    "index_history",
    "match_history",
    "build_polygraph",
]

# Edge labels (Table 1).
SO = "SO"
WR = "WR"
WW = "WW"
RW = "RW"

#: Labels contributing to the Dep relation of the induced SI graph
#: (everything except RW, which forms AntiDep).
DEP_LABELS = (SO, WR, WW)

#: A typed, keyed edge ``(src, dst, label, key)``; ``key`` is None for SO.
Edge = Tuple[int, int, str, object]


class Constraint:
    """A generalized constraint ``<either, or>`` over typed edges.

    Exactly one of the two branches holds in any dependency graph
    extending the history: all edges of the chosen branch are present.

    A constraint is its key, its writer pair ``(t, s)`` (:attr:`pair`)
    and the two reader lists its branches carry (:attr:`readers`):
    ``either`` is "``t`` before ``s``" — WW ``t -> s`` plus RW
    ``r -> s`` for each ``r`` in ``readers_t`` other than ``s`` — and
    ``orelse`` the mirror image over ``readers_s``.  ``build_polygraph``
    passes ``readers_from[(t, key)]`` and ``readers_from[(s, key)]``;
    the ablation's Definition 8 pieces carry one reader or none (DESIGN.md
    S4).  Each branch is built from them on first access and kept.  The
    lists are final before any constraint exists, so a late build equals
    an eager one.  Pruning answers a constraint from its pair and reader
    lists without building either branch.
    """

    __slots__ = ("key", "pair", "readers", "_either", "_orelse")

    def __init__(self, key, t: int, s: int, readers_t: Sequence[int] = (),
                 readers_s: Sequence[int] = ()):
        self.key = key
        self.pair = (t, s)
        #: ``(readers of t, readers of s)`` the two branches carry.
        self.readers = (readers_t, readers_s)
        self._either: Optional[Tuple[Edge, ...]] = None
        self._orelse: Optional[Tuple[Edge, ...]] = None

    @property
    def either(self) -> Tuple[Edge, ...]:
        """The branch in which ``t`` precedes ``s``."""
        if self._either is None:
            t, s = self.pair
            self._either = _branch(self.readers[0], self.key, t, s)
        return self._either

    @property
    def orelse(self) -> Tuple[Edge, ...]:
        """The branch in which ``s`` precedes ``t``."""
        if self._orelse is None:
            t, s = self.pair
            self._orelse = _branch(self.readers[1], self.key, s, t)
        return self._orelse

    @property
    def num_unknown_deps(self) -> int:
        """Typed edges in both branches, counted without building them."""
        t, s = self.pair
        readers_t, readers_s = self.readers
        return (2 + len(readers_t) - readers_t.count(s)
                + len(readers_s) - readers_s.count(t))

    @property
    def built_edges(self) -> int:
        """How many typed branch edges exist for this constraint: those
        asked for."""
        either, orelse = self._either, self._orelse
        return ((0 if either is None else len(either))
                + (0 if orelse is None else len(orelse)))

    def __reduce__(self):
        # Pickles as its pair and its two reader lists: never a built
        # branch, never the whole reader index.
        return (Constraint, (self.key, *self.pair, *self.readers))

    def __repr__(self) -> str:
        return f"Constraint(key={self.key!r}, either={self.either}, or={self.orelse})"


class KeyOrder:
    """One key's winners of pruning's first iteration, decided without
    a :class:`Constraint` each (DESIGN.md S9): the writer pairs the
    seeded closure orders (``after[i]``: the bits of the writers
    ``writers[i]`` reaches) and the unordered pairs ``(i, j)`` the RW
    rule decided (``decided``: whether ``writers[i]`` goes first).
    Logged on the graph in place of one entry per winner
    (:meth:`GeneralizedPolygraph.promote_key`)."""

    __slots__ = ("key", "writers", "readers", "after", "decided")

    def __init__(self, key, writers: Sequence[int],
                 readers: Sequence[Sequence[int]], after: Sequence[int],
                 decided: Dict[Tuple[int, int], bool]):
        self.key = key
        self.writers = writers
        #: ``readers[i]``: the readers of ``writers[i]``.
        self.readers = readers
        self.after = after
        self.decided = decided

    def branches(self):
        """The winning branches, in the key's pair order."""
        key, writers, readers, after = (self.key, self.writers,
                                        self.readers, self.after)
        decided = self.decided
        for i, t in enumerate(writers):
            for j in range(i + 1, len(writers)):
                s = writers[j]
                if after[i] >> s & 1:
                    yield _branch(readers[i], key, t, s)
                elif after[j] >> t & 1:
                    yield _branch(readers[j], key, s, t)
                elif (i, j) in decided:
                    yield (_branch(readers[i], key, t, s) if decided[(i, j)]
                           else _branch(readers[j], key, s, t))


class GeneralizedPolygraph:
    """Vertices, known edges, and generalized constraints for a history."""

    def __init__(self, history: Optional[History], num_vertices: int,
                 init_vertex: Optional[int]):
        self.history = history
        self.num_vertices = num_vertices
        self.init_vertex = init_vertex
        self._known_edges: List[Edge] = []
        #: :attr:`known_edges` as a set, built the first time something
        #: asks for membership (:meth:`_edge_set`): batch construction
        #: emits each edge once, so a check that never asks — a
        #: satisfied one — never builds it.
        self._known_set: Optional[set] = None
        #: The pair graph construction installed while emitting the
        #: known edges, until pruning adopts it (:meth:`take_known`) or
        #: an edge joins afterwards.
        self._known: Optional["KnownGraph"] = None
        #: Promoted branches not yet written into the known edges, in
        #: promotion order: ``(constraint, either_wins)`` per winning
        #: constraint (:meth:`promote`), or one key's :class:`KeyOrder`
        #: (:meth:`promote_key`).
        self._promoted: List[object] = []
        #: Typed branch edges the promotion log has written so far.
        self.branch_edges_written = 0
        #: None while the constraints are only implied by
        #: :attr:`writers_of` (:attr:`constraints`).
        self._constraints: Optional[List[Constraint]] = []
        #: Each key's writers, where two or more write it; with a
        #: compact polygraph's constraints still unbuilt, the one
        #: description of them (:attr:`writer_lists`).
        self.writers_of: Dict[object, List[int]] = {}
        # (writer_vertex, key) -> list of reader vertices (from WR edges).
        self.readers_from: Dict[Tuple[int, object], List[int]] = {}
        # Set on subgraphs (whose dense vertex ids no longer index the
        # history): display names and transactions per local vertex.
        self.labels: Optional[List[str]] = None
        self._txn_of: Optional[List[Optional[Transaction]]] = None

    # -- mutation -------------------------------------------------------------

    def add_known(self, edge: Edge) -> bool:
        """Add a known (certain) edge, deduplicating repeats; returns
        whether the edge was actually new (callers maintaining derived
        state, e.g. :class:`repro.core.pruning.PruneState`, key off it)."""
        if self._promoted:
            self._write_promoted()
        seen = self._edge_set()
        if edge in seen:
            return False
        seen.add(edge)
        self._known_edges.append(edge)
        self._known = None
        return True

    def add_known_many(self, edges: Sequence[Edge]) -> None:
        for edge in edges:
            self.add_known(edge)

    def promote(self, cons: Constraint, either_wins: bool) -> None:
        """Make one branch of ``cons`` known, lazily: the branch's edges
        join :attr:`known_edges` the first time anything reads it, in
        promotion order and deduplicated — the list ``add_known_many``
        per promotion would have built.  A check that never reads the
        list (a satisfied one) never builds the branch."""
        self._promoted.append((cons, either_wins))
        self._known = None

    def promote_key(self, order: "KeyOrder") -> None:
        """As :meth:`promote`, for every winner of one key decided
        without a :class:`Constraint` (:class:`KeyOrder`): their
        branches are written in pair order when read."""
        self._promoted.append(order)
        self._known = None

    def _edge_set(self) -> set:
        if self._known_set is None:
            self._known_set = set(self._known_edges)
        return self._known_set

    def _write_promoted(self) -> None:
        log, self._promoted = self._promoted, []
        seen, edges = self._edge_set(), self._known_edges
        written = 0
        for entry in log:
            if type(entry) is KeyOrder:
                branches = entry.branches()
            else:
                cons, either_wins = entry
                branches = (cons.either if either_wins else cons.orelse,)
            for branch in branches:
                written += len(branch)
                for edge in branch:
                    if edge not in seen:
                        seen.add(edge)
                        edges.append(edge)
        self.branch_edges_written += written

    # -- views ------------------------------------------------------------------

    @property
    def known_edges(self) -> List[Edge]:
        """The known edges in the order they became known."""
        if self._promoted:
            self._write_promoted()
        return self._known_edges

    @property
    def known_set(self) -> set:
        """:attr:`known_edges` as a set."""
        if self._promoted:
            self._write_promoted()
        return self._edge_set()

    def take_known(self) -> "KnownGraph":
        """The pair graph of :attr:`known_edges`, for the caller to own
        and grow (:class:`repro.core.pruning.PruneState`): the one batch
        construction installed as it emitted the edges, handed over
        once; otherwise — a copy, a subgraph, a polygraph assembled
        edge by edge, one pruned before —
        :meth:`KnownGraph.from_edges <repro.core.known.KnownGraph.from_edges>`
        over the edges."""
        known, self._known = self._known, None
        if known is None:
            from .known import KnownGraph
            known = KnownGraph.from_edges(self.num_vertices,
                                          self.known_edges)
        return known

    def known_by_label(self, *labels: str) -> List[Edge]:
        wanted = set(labels)
        return [e for e in self.known_edges if e[2] in wanted]

    @property
    def constraints(self) -> List[Constraint]:
        """The constraints, in order.  A compact polygraph builds them
        from :attr:`writers_of` the first time this is read: per key,
        one per unordered writer pair (DESIGN.md S4)."""
        if self._constraints is None:
            self._constraints = [
                cons for key, writers in self.writers_of.items()
                for cons in self.key_constraints(key, writers)]
        return self._constraints

    @constraints.setter
    def constraints(self, constraints: List[Constraint]) -> None:
        self._constraints = constraints

    @property
    def writer_lists(self) -> Optional[Dict[object, List[int]]]:
        """:attr:`writers_of` while it is all there is of the
        constraints (none built yet), else None."""
        return self.writers_of if self._constraints is None else None

    def key_constraints(self, key, writers: Sequence[int]) -> List[Constraint]:
        """One key's constraints in order: ``(writers[i], writers[j])``
        for every ``i < j``, over the reader index's lists."""
        readers_from = self.readers_from
        readers = [readers_from.get((w, key), ()) for w in writers]
        return [Constraint(key, t, writers[j], readers[i], readers[j])
                for i, t in enumerate(writers)
                for j in range(i + 1, len(writers))]

    @property
    def num_constraints(self) -> int:
        """How many constraints; unbuilt, ``k(k-1)/2`` per key of ``k``
        writers."""
        if self._constraints is None:
            return sum(len(writers) * (len(writers) - 1) // 2
                       for writers in self.writers_of.values())
        return len(self._constraints)

    @property
    def num_unknown_deps(self) -> int:
        """Typed edges over both branches of every constraint.  Unbuilt,
        a key with ``k`` writers contributes its ``k(k-1)`` WW edges and
        each reader of a writer once per other writer, less the readers
        that are another writer (``reader != second``; no writer reads
        its own write)."""
        if self._constraints is not None:
            return sum(c.num_unknown_deps for c in self._constraints)
        readers_from, total = self.readers_from, 0
        for key, writers in self.writers_of.items():
            k, others = len(writers), set(writers)
            total += k * (k - 1)
            for w in writers:
                readers = readers_from.get((w, key), ())
                total += (k - 1) * len(readers) - sum(
                    1 for r in readers if r in others)
        return total

    def vertex_name(self, v: int) -> str:
        """Paper-style display name of vertex ``v`` (``T:init`` for init)."""
        if v == self.init_vertex:
            return "T:init"
        if self.labels is not None:
            return self.labels[v]
        return self.history.transactions[v].name

    def vertex_txn(self, v: int) -> Optional[Transaction]:
        """The transaction behind vertex ``v`` (None for the init vertex)."""
        if v == self.init_vertex:
            return None
        if self._txn_of is not None:
            return self._txn_of[v]
        return self.history.transactions[v]

    def copy(self) -> "GeneralizedPolygraph":
        """Shallow copy: shares edges/constraints (immutable tuples) and
        the reader index (final once constraints exist, and shared with
        their reader lists) but can be pruned independently.  Neither
        the edge set nor construction's pair graph is copied: the copy
        derives each if asked."""
        out = GeneralizedPolygraph(
            self.history, self.num_vertices, self.init_vertex
        )
        out._known_edges = list(self.known_edges)
        # Unbuilt, the copy builds its own list if something reads it.
        out._constraints = (None if self._constraints is None
                            else list(self._constraints))
        out.writers_of = self.writers_of
        out.readers_from = self.readers_from
        out.labels = list(self.labels) if self.labels is not None else None
        out._txn_of = list(self._txn_of) if self._txn_of is not None else None
        return out

    # -- decomposition ----------------------------------------------------------

    def weakly_connected_components(self) -> List[List[int]]:
        """Weakly-connected components over known edges *and* every
        constraint branch edge, as sorted vertex lists ordered by their
        smallest member.

        The init vertex is excluded from the union step (and from the
        output): it has no incoming edges, so it can never lie on a
        cycle, and treating its outgoing edges as connecting would merge
        otherwise-independent components into one.  Transactions on
        disjoint key/session footprints therefore land in different
        components, and no undesired cycle can span two components —
        every edge the cycle could use is intra-component by
        construction.  This is what makes per-component checking exact.
        """
        parent = list(range(self.num_vertices))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def union(a: int, b: int) -> None:
            if a == self.init_vertex or b == self.init_vertex:
                return
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for u, v, _label, _key in self.known_edges:
            union(u, v)
        for cons in self.constraints:
            # Unioning the writer pair covers every branch edge: a branch
            # RW edge runs reader -> other-writer, and the reader is
            # already connected to its writer by a known WR edge.
            union(*cons.pair)

        groups: Dict[int, List[int]] = {}
        for v in range(self.num_vertices):
            if v == self.init_vertex:
                continue
            groups.setdefault(find(v), []).append(v)
        return [groups[root] for root in sorted(groups)]

    def constrained_components(
        self,
    ) -> Tuple[List[List[int]], List[List[Constraint]]]:
        """The component decomposition paired with each component's
        constraints: ``(components, constraints_of)`` where
        ``constraints_of[i]`` lists the constraints whose edges live in
        ``components[i]`` (empty for pure known-graph components).

        The checker does not decompose: it reads which vertices a
        constraint cycle can visit off pruning's closure
        (:func:`repro.core.encoding.cycle_core`).
        """
        components = self.weakly_connected_components()
        comp_of: Dict[int, int] = {}
        for ci, comp in enumerate(components):
            for v in comp:
                comp_of[v] = ci
        constraints_of: List[List[Constraint]] = [[] for _ in components]
        for cons in self.constraints:
            constraints_of[comp_of[cons.pair[0]]].append(cons)
        return components, constraints_of

    def subgraph(
        self, vertices: Sequence[int]
    ) -> Tuple["GeneralizedPolygraph", List[int]]:
        """The induced sub-polygraph over ``vertices``, densely renumbered.

        Returns ``(sub, old_of_new)`` where ``old_of_new[new_id]`` is the
        vertex id in ``self``.  ``vertices`` must be closed under the
        graph's edges (e.g. a :meth:`weakly_connected_components` member
        or a union of members); edges from the init vertex into the
        selection are kept by materializing a local init copy, so the
        fragment is checkable on its own.  Display names survive the
        renumbering via :attr:`labels`.
        """
        order = sorted(vertices)
        # old id -> new id, -1 outside the selection.
        remap = [-1] * self.num_vertices
        for new, old in enumerate(order):
            remap[old] = new
        init = self.init_vertex
        needs_init = init is not None and any(
            u == init and remap[v] >= 0
            for u, v, _label, _key in self.known_edges
        )
        init_new = len(order) if needs_init else None
        if needs_init:
            remap[init] = init_new
        sub = GeneralizedPolygraph(
            self.history, len(order) + (1 if needs_init else 0), init_new
        )
        sub.labels = [self.vertex_name(old) for old in order]
        sub._txn_of = [self.vertex_txn(old) for old in order]
        if needs_init:
            sub.labels.append("T:init")
            sub._txn_of.append(None)
        # Known edges are unique and the renumbering is injective, so the
        # renamed edges are unique too: assign them in bulk instead of
        # deduplicating one add_known() call at a time.
        sub._known_edges = [
            (remap[u], remap[v], label, key)
            for u, v, label, key in self.known_edges
            if remap[v] >= 0 and remap[u] >= 0
        ]
        # Each reader list is renamed once, keyed by the source list's
        # identity, so constraints keep sharing the reader index's lists.
        renamed: Dict[int, List[int]] = {}
        for (writer, key), readers in self.readers_from.items():
            if remap[writer] >= 0:
                kept = [remap[r] for r in readers if remap[r] >= 0]
                renamed[id(readers)] = kept
                if kept:
                    sub.readers_from[(remap[writer], key)] = kept

        def rename(readers):
            kept = renamed.get(id(readers))
            if kept is None:    # the ablation's own one-reader lists
                kept = [remap[r] for r in readers if remap[r] >= 0]
            return kept

        for cons in self.constraints:
            t, s = cons.pair
            if remap[t] >= 0:
                # Every reader of a selected writer is selected (a WR
                # edge joins them), so the renamed lists are complete.
                sub.constraints.append(Constraint(
                    cons.key, remap[t], remap[s],
                    *(rename(readers) for readers in cons.readers)))
        old_of_new = list(order)
        if needs_init:
            old_of_new.append(init)
        return sub, old_of_new

    def __repr__(self) -> str:
        return (
            f"GeneralizedPolygraph(vertices={self.num_vertices}, "
            f"known={len(self.known_edges)}, constraints={self.num_constraints}, "
            f"unknown_deps={self.num_unknown_deps})"
        )


_AXIOM_ORDER = {"Int": 0, "AbortedReads": 1, "IntermediateReads": 2}


def _aborted_read(reader: Transaction, key, value, writer: str):
    return AxiomViolation(
        "AbortedReads", reader, key, value,
        f"read {value!r} on {key!r} written by aborted {writer}")


def _intermediate_read(reader: Transaction, key, value, writer: str):
    return AxiomViolation(
        "IntermediateReads", reader, key, value,
        f"read intermediate {value!r} on {key!r} from {writer}")


def _enc_txn(txn: Optional[Transaction]):
    if txn is None:
        return None
    record = [txn.tid, txn.session, txn.index, txn.status,
              [[op.kind, op.key, op.value] for op in txn.ops]]
    if txn.start_ts is not None or txn.commit_ts is not None:
        record.append([txn.start_ts, txn.commit_ts])
    return record


def _dec_txn(record) -> Transaction:
    tid, session, index, status, ops = record[:5]
    ts = record[5] if len(record) > 5 else (None, None)
    return Transaction(
        tid, [Operation(kind, key, value) for kind, key, value in ops],
        session=session, index=index, status=status,
        start_ts=ts[0], commit_ts=ts[1],
    )


class PolygraphBuilder:
    """The front half of the checker, written once: which write does
    each external read observe, and what does that force (Algorithm 1
    line 2, Algorithm 2's CreateKnownGraph).

    The builder owns the read-matching indexes and the only two
    functions that touch them: :meth:`index_writes` (what a transaction
    is, whatever it observed) and :meth:`match_reads` (what a committed
    one observed).  Batch and online are two schedules of those calls —
    :func:`build_polygraph` indexes every transaction before it matches
    any, :class:`repro.online.checker.OnlineChecker` does both per
    arrival — and agree at :meth:`finish` (DESIGN.md S4, "One front
    half").  Known edges leave through ``emit(edge)``, anomalies collect
    in :attr:`anomalies`; vertex ids are the caller's, ``init_vertex``
    the virtual writer of every initial value.

    :mod:`repro.core.axioms` states Int / AbortedReads /
    IntermediateReads declaratively for the baselines and the oracle;
    ``tests/test_front_half.py`` holds this class to it.
    """

    def __init__(self, emit: Callable[[Edge], object], init_vertex: int,
                 initial_values: Optional[dict] = None):
        self.emit = emit
        self.init_vertex = init_vertex
        self.initial_values = initial_values or {}
        self.anomalies: List[AxiomViolation] = []
        # Per committed vertex, until evicted: the transaction and the
        # (writer, key) of each matched read.
        self.txn_of: Dict[int, Transaction] = {}
        self.reads_of: Dict[int, List[tuple]] = {}
        self.session_tail: Dict[object, int] = {}
        self.writer_index: Dict[tuple, int] = {}       # (key, v) -> writer
        self.aborted_writes: Dict[tuple, tuple] = {}   # (key, v) -> (name, tid)
        self.intermediate: Dict[tuple, tuple] = {}     # (key, v) -> (name, tid)
        self.pending: Dict[tuple, List[int]] = {}      # (key, v) -> readers
        self.writers_of: Dict[object, List[int]] = {}
        self.readers_from: Dict[tuple, List[int]] = {}
        self.init_keys: set = set()
        # (key, v) -> an evicted committed reader of the declared initial
        # value v: it left readers_from[(init, key)], and a later aborted
        # or intermediate write of v must still flag it (one reader is
        # enough: a stream stops at its first anomaly).
        self.evicted_init_reads: Dict[tuple, Transaction] = {}

    # -- the two functions ----------------------------------------------------

    def index_writes(self, txn: Transaction, vertex: int) -> None:
        """Int, UniqueValue (raised before any index changes), SO from
        the session tail, the value indexes — final, overwritten,
        aborted — with the reads that were waiting for them, and the
        writer's side of the init rule.  An aborted ``txn`` has no
        vertex."""
        committed = txn.status == COMMITTED
        last_seen: dict = {}
        finals: dict = {}
        unreadable: dict = {}
        for op in txn.ops:
            key, value = op.key, op.value
            if op.kind == READ:
                if key in last_seen and value != last_seen[key]:
                    self.anomalies.append(AxiomViolation(
                        "Int", txn, key, value,
                        f"read {value!r} after observing "
                        f"{last_seen[key]!r} on {key!r}"))
            elif not committed:
                unreadable[(key, value)] = None
            else:
                if key in finals:
                    unreadable[(key, finals[key])] = None
                finals[key] = value
            last_seen[key] = value
        if not committed:
            for kv in unreadable:
                self._retract(self.aborted_writes, kv, txn, _aborted_read)
            return

        writer_index = self.writer_index
        for key, value in finals.items():
            prev = writer_index.get((key, value))
            if prev is not None:
                raise DuplicateValueError(
                    f"value {value!r} written to key {key!r} by both "
                    f"{self.txn_of[prev].name} and {txn.name}")
        self.txn_of[vertex] = txn
        self.reads_of[vertex] = []
        emit, init, pending = self.emit, self.init_vertex, self.pending
        tail = self.session_tail.get(txn.session)
        if tail is not None:
            emit((tail, vertex, SO, None))
        self.session_tail[txn.session] = vertex
        # Overwritten values first: a read waiting for one is an
        # IntermediateReads anomaly even when the final write repeats it.
        for kv in unreadable:
            self._retract(self.intermediate, kv, txn, _intermediate_read)
        for key, value in finals.items():
            writer_index[(key, value)] = vertex
            if pending:
                for reader in pending.pop((key, value), ()):
                    self._wr(vertex, key, reader)
            self.writers_of.setdefault(key, []).append(vertex)
            if key in self.init_keys:
                # Init precedes every writer in every version order
                # (Section 2.3): known edges, not a constraint.
                emit((init, vertex, WW, key))
                for reader in self.readers_from.get((init, key), ()):
                    if reader != vertex:
                        emit((reader, vertex, RW, key))

    def match_reads(self, txn: Transaction, vertex: int) -> None:
        """Each external read of committed ``txn`` (already indexed):
        init rule, AbortedReads, IntermediateReads, FutureRead, a WR
        edge, or pending until its writer is indexed."""
        aborted_writes, intermediate = self.aborted_writes, self.intermediate
        initial_values, writer_index = self.initial_values, self.writer_index
        for key, value in txn.external_reads.items():
            if value is INITIAL_VALUE:
                self._init_read(key, vertex)
                continue
            kv = (key, value)
            # Every axiom the read breaks is reported; evidence in the
            # history outranks the caller's initial_values (DESIGN.md S4).
            unreadable = aborted_writes.get(kv)
            if unreadable is not None:
                self.anomalies.append(
                    _aborted_read(txn, key, value, unreadable[0]))
            mid = intermediate.get(kv)
            if mid is not None and mid[1] != txn.tid:
                unreadable = mid
                self.anomalies.append(
                    _intermediate_read(txn, key, value, mid[0]))
            if unreadable is not None:
                continue
            if key in initial_values and value == initial_values[key]:
                self._init_read(key, vertex)
                continue
            writer = writer_index.get(kv)
            if writer is None:
                # Not indexed (yet): a stream delivers in commit order,
                # not dependency order.  Also where a read of the
                # transaction's own overwritten value ends up.
                self.pending.setdefault(kv, []).append(vertex)
            elif writer == vertex:
                self.anomalies.append(AxiomViolation(
                    "FutureRead", txn, key, value,
                    f"read {value!r} on {key!r} before writing it itself"))
            else:
                self._wr(writer, key, vertex)

    def finish(self) -> List[AxiomViolation]:
        """End of input: a read still pending has no writer.  Returns
        every anomaly found, in report order: the three axioms of
        Algorithm 1 line 2, then the reads no write justifies — each
        group by transaction."""
        for (key, value), readers in self.pending.items():
            for reader in readers:
                self.anomalies.append(AxiomViolation(
                    "UnjustifiedRead", self.txn_of[reader], key, value,
                    f"read {value!r} on {key!r}, written by no committed "
                    "transaction"))
        self.anomalies.sort(
            key=lambda a: (_AXIOM_ORDER.get(a.axiom, 3), a.txn.tid))
        return self.anomalies

    def waiting_readers(self) -> List[int]:
        """The reader of every pending read (the window keeps them)."""
        return [r for readers in self.pending.values() for r in readers]

    def _wr(self, writer: int, key, reader: int) -> None:
        self.emit((writer, reader, WR, key))
        self.readers_from.setdefault((writer, key), []).append(reader)
        self.reads_of[reader].append((writer, key))

    def _init_read(self, key, reader: int) -> None:
        """A read of the initial state: WR from init, and init first in
        the key's version order against every writer indexed so far."""
        init, emit = self.init_vertex, self.emit
        self._wr(init, key, reader)
        writers = self.writers_of.get(key, ())
        if key not in self.init_keys:
            self.init_keys.add(key)
            for writer in writers:
                emit((init, writer, WW, key))
        for writer in writers:
            if writer != reader:
                emit((reader, writer, RW, key))

    def _retract(self, index: dict, kv: tuple, txn: Transaction,
                 anomaly) -> None:
        """``kv`` turned out aborted or overwritten by ``txn``: index it,
        and flag the reads that were waiting for it or were matched
        without knowing — to a committed final write of the same value,
        or to the caller's ``initial_values`` (an evicted one included)."""
        key, value = kv
        name = txn.name
        index[kv] = (name, txn.tid)
        readers = self.pending.pop(kv, [])
        writer = self.writer_index.get(kv)
        if writer is not None:
            readers = readers + self.readers_from.get((writer, key), [])
        gone = None
        if key in self.initial_values and value == self.initial_values[key]:
            readers = readers + [
                r for r in self.readers_from.get((self.init_vertex, key), ())
                if self.txn_of[r].external_reads[key] is not INITIAL_VALUE]
            gone = self.evicted_init_reads.get(kv)
        for reader in readers:
            self.anomalies.append(
                anomaly(self.txn_of[reader], key, value, name))
        if gone is not None:
            self.anomalies.append(anomaly(gone, key, value, name))

    # -- a bounded window over an unbounded stream ----------------------------

    def evict(self, vertex: int) -> None:
        """Forget ``vertex``: the window proved no later read or write
        can involve it."""
        txn = self.txn_of.pop(vertex)
        for key, value in txn.writes.items():
            if self.writer_index.get((key, value)) == vertex:
                del self.writer_index[(key, value)]
            writers = self.writers_of.get(key)
            if writers is not None and vertex in writers:
                writers.remove(vertex)
            self.readers_from.pop((vertex, key), None)
        for writer, key in self.reads_of.pop(vertex):
            readers = self.readers_from.get((writer, key))
            if readers is not None and vertex in readers:
                readers.remove(vertex)
            value = txn.external_reads[key]
            if writer == self.init_vertex and value is not INITIAL_VALUE:
                self.evicted_init_reads.setdefault((key, value), txn)

    def compact(self, old_to_new: Sequence[int]) -> None:
        """Renumber the vertices (``old_to_new[v]`` is -1 for an evicted
        one)."""
        m = old_to_new.__getitem__
        self.txn_of = {m(v): txn for v, txn in self.txn_of.items()}
        self.reads_of = {
            m(v): [(m(w), key) for (w, key) in reads if m(w) >= 0]
            for v, reads in self.reads_of.items()
        }
        self.session_tail = {s: m(v) for s, v in self.session_tail.items()}
        self.writer_index = {kv: m(v) for kv, v in self.writer_index.items()}
        # An evicted vertex was already taken out of these lists.
        self.writers_of = {
            key: [m(v) for v in writers]
            for key, writers in self.writers_of.items() if writers
        }
        self.readers_from = {
            (m(w), key): [m(r) for r in readers]
            for (w, key), readers in self.readers_from.items() if readers
        }
        self.pending = {
            kv: [m(r) for r in readers]
            for kv, readers in self.pending.items()
        }
        # Drop axiom indexes that predate the oldest live transaction: a
        # later read of such a value surfaces as an unjustified read — the
        # same verdict with a coarser label (DESIGN.md, window soundness).
        # Not a value the caller declared initial: a read of that one
        # would match the init rule instead, and pass.
        horizon = min((t.tid for t in self.txn_of.values()), default=0)
        initial = self.initial_values

        def keep(kv, rec) -> bool:
            return (rec[1] >= horizon
                    or (kv[0] in initial and initial[kv[0]] == kv[1]))

        self.aborted_writes = {
            kv: rec for kv, rec in self.aborted_writes.items() if keep(kv, rec)
        }
        self.intermediate = {
            kv: rec for kv, rec in self.intermediate.items() if keep(kv, rec)
        }

    # -- persistence (keys of the STATE_VERSION 1 checkpoint payload) ---------

    def state(self, num_vertices: int) -> dict:
        """The indexes as JSON-able lists (keys, values and session ids
        must be JSON scalars); per-vertex tables as dense lists.
        ``evicted_init_reads`` is optional: absent, as every earlier
        build wrote it, when there is none."""
        vertices = range(num_vertices)
        waiting = Counter(self.waiting_readers())
        return {
            "txns": [_enc_txn(self.txn_of.get(v)) for v in vertices],
            "pending_count": [waiting[v] for v in vertices],
            "reads_of": [[[w, key] for (w, key) in self.reads_of.get(v, ())]
                         for v in vertices],
            "session_tail": [[s, v] for s, v in self.session_tail.items()],
            "writer_index": [[key, value, v] for (key, value), v in
                             self.writer_index.items()],
            "aborted_writes": [[key, value, name, tid]
                               for (key, value), (name, tid) in
                               self.aborted_writes.items()],
            "intermediate": [[key, value, name, tid]
                             for (key, value), (name, tid) in
                             self.intermediate.items()],
            "pending": [[key, value, list(readers)]
                        for (key, value), readers in self.pending.items()],
            "writers_of": [[key, list(writers)]
                           for key, writers in self.writers_of.items()],
            "readers_from": [[w, key, list(readers)]
                             for (w, key), readers in
                             self.readers_from.items()],
            "init_keys": sorted(self.init_keys, key=repr),
            # Written only when there is one, so that every checkpoint
            # without one keeps its bytes.
            **({"evicted_init_reads": [
                [key, value, _enc_txn(txn)] for (key, value), txn in
                self.evicted_init_reads.items()]}
               if self.evicted_init_reads else {}),
        }

    def restore(self, state: dict) -> None:
        """Load what :meth:`state` wrote."""
        self.txn_of = {v: _dec_txn(record)
                       for v, record in enumerate(state["txns"])
                       if record is not None}
        self.reads_of = {v: [(w, key) for w, key in state["reads_of"][v]]
                         for v in self.txn_of}
        self.session_tail = {s: v for s, v in state["session_tail"]}
        self.writer_index = {(key, value): v
                             for key, value, v in state["writer_index"]}
        self.aborted_writes = {
            (key, value): (name, tid)
            for key, value, name, tid in state["aborted_writes"]}
        self.intermediate = {
            (key, value): (name, tid)
            for key, value, name, tid in state["intermediate"]}
        self.pending = {(key, value): list(readers)
                        for key, value, readers in state["pending"]}
        self.writers_of = {key: list(writers)
                           for key, writers in state["writers_of"]}
        self.readers_from = {(w, key): list(readers)
                             for w, key, readers in state["readers_from"]}
        self.init_keys = set(state["init_keys"])
        self.evicted_init_reads = {
            (key, value): _dec_txn(record)
            for key, value, record in state.get("evicted_init_reads", ())}


def index_history(
    history: History, initial_values: Optional[dict] = None,
) -> Tuple[PolygraphBuilder, GeneralizedPolygraph]:
    """First half of the bulk schedule: index every transaction's
    writes, session by session (SO follows the session lists, not the
    ids), so that no read matched afterwards pends on a writer the
    history contains.  Int and UniqueValue are checked on the way."""
    from .known import KnownGraph

    n = len(history.transactions)
    graph = GeneralizedPolygraph(history, n, None)
    # Each edge is emitted once, so it is appended as it comes, and its
    # pair installed in the graph pruning adopts; the init vertex ``n``
    # keeps its slot only if some read needs it (match_history).
    graph._known = KnownGraph(n + 1)
    builder = PolygraphBuilder(graph._known.recorder(graph._known_edges), n,
                               initial_values)
    graph.readers_from = builder.readers_from
    for session in history.sessions:
        for txn in session:
            builder.index_writes(txn, txn.tid)
    return builder, graph


def match_history(
    builder: PolygraphBuilder, graph: GeneralizedPolygraph,
    compact: bool = True,
) -> List[AxiomViolation]:
    """Second half of the bulk schedule: match every committed
    transaction's reads (known edges go straight into ``graph``), then
    GenerateConstraints.  Returns every anomaly of both halves."""
    for txn in graph.history.transactions:
        if txn.committed:
            builder.match_reads(txn, txn.tid)
    anomalies = builder.finish()
    if builder.init_keys:
        graph.init_vertex = builder.init_vertex
        graph.num_vertices += 1
    graph._known.seal(graph.num_vertices)
    # One generalized constraint per key per unordered writer pair.  Per
    # key, not per arrival: the clause set would be the same but its
    # order — and with it the search — would not (DESIGN.md S4).  Every
    # read is matched by now, so the writer and reader lists are final.
    graph.writers_of = {key: writers
                        for key, writers in builder.writers_of.items()
                        if len(writers) > 1}
    if compact:
        # Built on first read (GeneralizedPolygraph.constraints), if
        # ever: pruning decides most pairs from the writer lists.
        graph.constraints = None
        return anomalies
    for key, writers in graph.writers_of.items():
        for i, t in enumerate(writers):
            for s in writers[i + 1:]:
                _emit_explicit(graph, key, t, s)
    return anomalies


def build_polygraph(
    history: History,
    *,
    compact: bool = True,
    initial_values: Optional[dict] = None,
) -> Tuple[GeneralizedPolygraph, List[AxiomViolation]]:
    """Construct the generalized polygraph of ``history`` (Algorithm 2,
    CreateKnownGraph + GenerateConstraints): the bulk schedule of
    :class:`PolygraphBuilder`.

    Returns the polygraph and the reads no committed final write
    justifies (aborted, intermediate, unjustified and future reads): a
    non-empty list means the history violates SI before any cycle
    analysis.  Int says nothing about the polygraph and is left to
    :class:`repro.core.checker.PolySIChecker`, which reports it from the
    same pass.

    ``initial_values`` optionally maps keys to the value considered
    *initial* for this history — used by segmented checking (Section 6),
    where a snapshot's observations seed the next segment.
    """
    builder, graph = index_history(history, initial_values)
    anomalies = match_history(builder, graph, compact)
    return graph, [a for a in anomalies if a.axiom != "Int"]


def branch_edges(readers_from: Dict[Tuple[int, object], List[int]],
                 key, first: int, second: int) -> Tuple[Edge, ...]:
    """Edges forced when ``first`` precedes ``second`` in the version order
    of ``key``: the WW edge plus one RW edge per reader of ``first``
    (``readers_from`` maps ``(writer, key)`` to the readers).  The
    online checker materializes its branches with it, lazily, from its
    running reader index; a batch :class:`Constraint` builds its own."""
    return _branch(readers_from.get((first, key), ()), key, first, second)


def _branch(readers: Sequence[int], key, first: int,
            second: int) -> Tuple[Edge, ...]:
    """The branch "``first`` before ``second``" over ``first``'s
    ``readers`` of ``key``."""
    return ((first, second, WW, key),
            *[(reader, second, RW, key) for reader in readers
              if reader != second])


def _emit_explicit(graph: GeneralizedPolygraph, key, t: int, s: int) -> None:
    # Non-compacted construction (Definition 8 style): the WW direction
    # choice plus one constraint per reader, each still a writer pair
    # with at most one reader.  Shared pair-level variables in the
    # encoding keep the decomposition semantically equivalent.
    append = graph.constraints.append
    append(Constraint(key, t, s))
    for first, second in ((t, s), (s, t)):
        for reader in graph.readers_from.get((first, key), ()):
            if reader != second:
                append(Constraint(key, first, second, [reader]))
