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
(Definition 8) while remaining complete for SI.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .axioms import AxiomViolation
from .history import History, INITIAL_VALUE, Transaction

__all__ = [
    "SO",
    "WR",
    "WW",
    "RW",
    "DEP_LABELS",
    "Edge",
    "Constraint",
    "GeneralizedPolygraph",
    "branch_edges",
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
    """

    __slots__ = ("either", "orelse", "key", "pair")

    def __init__(
        self,
        either: Sequence[Edge],
        orelse: Sequence[Edge],
        *,
        key=None,
        pair: Optional[Tuple[int, int]] = None,
    ):
        self.either = tuple(either)
        self.orelse = tuple(orelse)
        self.key = key
        self.pair = pair

    @property
    def num_unknown_deps(self) -> int:
        return len(self.either) + len(self.orelse)

    def __repr__(self) -> str:
        return f"Constraint(key={self.key!r}, either={self.either}, or={self.orelse})"


class GeneralizedPolygraph:
    """Vertices, known edges, and generalized constraints for a history."""

    def __init__(self, history: Optional[History], num_vertices: int,
                 init_vertex: Optional[int]):
        self.history = history
        self.num_vertices = num_vertices
        self.init_vertex = init_vertex
        self.known_edges: List[Edge] = []
        self._known_set: set = set()
        self.constraints: List[Constraint] = []
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
        if edge in self._known_set:
            return False
        self._known_set.add(edge)
        self.known_edges.append(edge)
        return True

    def add_known_many(self, edges: Sequence[Edge]) -> None:
        for edge in edges:
            self.add_known(edge)

    # -- views ------------------------------------------------------------------

    def known_by_label(self, *labels: str) -> List[Edge]:
        wanted = set(labels)
        return [e for e in self.known_edges if e[2] in wanted]

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_unknown_deps(self) -> int:
        return sum(c.num_unknown_deps for c in self.constraints)

    def vertex_name(self, v: int) -> str:
        """Paper-style display name of vertex ``v`` (``T:init`` for init)."""
        if v == self.init_vertex:
            return "T:init"
        if self.labels is not None:
            return self.labels[v]
        if self.history is None:
            # History-free fragment (a worker-rebuilt shard): stable
            # fallback names so further subgraphing never dereferences
            # the absent history.
            return f"T{v}"
        return self.history.transactions[v].name

    def vertex_txn(self, v: int) -> Optional[Transaction]:
        """The transaction behind vertex ``v`` (None for the init vertex)."""
        if v == self.init_vertex:
            return None
        if self._txn_of is not None:
            return self._txn_of[v]
        if self.history is None:
            return None
        return self.history.transactions[v]

    def copy(self) -> "GeneralizedPolygraph":
        """Shallow copy: shares edges/constraints (immutable tuples) but can
        be pruned independently."""
        out = GeneralizedPolygraph(
            self.history, self.num_vertices, self.init_vertex
        )
        out.known_edges = list(self.known_edges)
        out._known_set = set(self._known_set)
        out.constraints = list(self.constraints)
        out.readers_from = {k: list(v) for k, v in self.readers_from.items()}
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
        construction.  This is what makes per-component checking exact
        (see DESIGN.md, shard soundness).
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
            if cons.pair is not None:
                union(cons.pair[0], cons.pair[1])
            else:
                for u, v, _label, _key in list(cons.either) + list(cons.orelse):
                    union(u, v)

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

        The shard planner's pure-vs-constrained classification
        (:mod:`repro.parallel.planner`).  The serial checker does not
        decompose: it reads which vertices a constraint cycle can visit
        off pruning's closure (:func:`repro.core.encoding.cycle_core`).
        """
        components = self.weakly_connected_components()
        comp_of: Dict[int, int] = {}
        for ci, comp in enumerate(components):
            for v in comp:
                comp_of[v] = ci
        constraints_of: List[List[Constraint]] = [[] for _ in components]
        for cons in self.constraints:
            constraints_of[comp_of[cons.either[0][0]]].append(cons)
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
        sub.known_edges = [
            (remap[u], remap[v], label, key)
            for u, v, label, key in self.known_edges
            if remap[v] >= 0 and remap[u] >= 0
        ]
        sub._known_set = set(sub.known_edges)
        for cons in self.constraints:
            if remap[cons.either[0][0]] < 0:
                continue
            sub.constraints.append(Constraint(
                [(remap[u], remap[v], label, key)
                 for u, v, label, key in cons.either],
                [(remap[u], remap[v], label, key)
                 for u, v, label, key in cons.orelse],
                key=cons.key,
                pair=(remap[cons.pair[0]], remap[cons.pair[1]])
                if cons.pair is not None else None,
            ))
        for (writer, key), readers in self.readers_from.items():
            if remap[writer] >= 0:
                kept = [remap[r] for r in readers if remap[r] >= 0]
                if kept:
                    sub.readers_from[(remap[writer], key)] = kept
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


def build_polygraph(
    history: History,
    *,
    compact: bool = True,
    initial_values: Optional[dict] = None,
) -> Tuple[GeneralizedPolygraph, List[AxiomViolation]]:
    """Construct the generalized polygraph of ``history`` (Algorithm 2,
    CreateKnownGraph + GenerateConstraints).

    Returns the polygraph together with any construction-time anomalies:
    reads of values no committed transaction wrote ("unjustified reads",
    which subsume reads from aborted transactions when the axioms were
    skipped) and reads of a value the reader itself wrote later ("future
    reads").  A non-empty anomaly list means the history violates SI
    before any cycle analysis.

    ``initial_values`` optionally maps keys to the value considered
    *initial* for this history — used by segmented checking (Section 6),
    where a snapshot's observations seed the next segment.  Keys absent
    from the map keep :data:`INITIAL_VALUE` as their initial value.
    """
    history.validate()
    n = len(history.transactions)
    writer_index = history.writer_index
    initial_values = initial_values or {}

    violations: List[AxiomViolation] = []
    # (reader_vertex, key, writer_vertex) WR triples; writer -1 means init.
    wr_edges: List[Tuple[int, object, int]] = []
    init_needed = False
    for txn in history.transactions:
        if not txn.committed:
            continue
        for key, value in txn.external_reads.items():
            if value == initial_values.get(key, INITIAL_VALUE) or (
                value is INITIAL_VALUE
            ):
                init_needed = True
                wr_edges.append((txn.tid, key, -1))
                continue
            writer = writer_index.get((key, value))
            if writer is None:
                violations.append(
                    AxiomViolation(
                        "UnjustifiedRead", txn, key, value,
                        f"read {value!r} on {key!r}, written by no committed "
                        "transaction",
                    )
                )
            elif writer is txn:
                violations.append(
                    AxiomViolation(
                        "FutureRead", txn, key, value,
                        f"read {value!r} on {key!r} before writing it itself",
                    )
                )
            else:
                wr_edges.append((txn.tid, key, writer.tid))

    init_vertex = n if init_needed else None
    graph = GeneralizedPolygraph(
        history, n + (1 if init_needed else 0), init_vertex
    )

    # Known SO edges: covering pairs per session (reachability-equivalent to
    # the full session order and much sparser).
    for a, b in history.session_order_pairs():
        graph.add_known((a.tid, b.tid, SO, None))

    # Known WR edges, and the reader index used to expand constraints.
    for reader, key, writer in wr_edges:
        src = init_vertex if writer == -1 else writer
        graph.add_known((src, reader, WR, key))
        graph.readers_from.setdefault((src, key), []).append(reader)

    # Writers per key (committed final writes only).
    writers_of: Dict[object, List[int]] = {}
    for txn in history.transactions:
        if not txn.committed:
            continue
        for key in txn.keys_written:
            writers_of.setdefault(key, []).append(txn.tid)

    # The init vertex is a known-first writer of every key read from the
    # initial state: its version order w.r.t. real writers is certain, so it
    # yields known WW and RW edges rather than constraints (Section 2.3).
    if init_vertex is not None:
        init_keys = {key for _, key, writer in wr_edges if writer == -1}
        for key in init_keys:
            readers = graph.readers_from.get((init_vertex, key), [])
            for other in writers_of.get(key, []):
                graph.add_known((init_vertex, other, WW, key))
                for reader in readers:
                    if reader != other:
                        graph.add_known((reader, other, RW, key))

    # Generalized constraints: one per key per unordered pair of writers.
    for key, writers in writers_of.items():
        for i in range(len(writers)):
            for j in range(i + 1, len(writers)):
                t, s = writers[i], writers[j]
                _emit_constraints(graph, key, t, s, compact)

    return graph, violations


def branch_edges(readers_from: Dict[Tuple[int, object], List[int]],
                 key, first: int, second: int) -> List[Edge]:
    """Edges forced when ``first`` precedes ``second`` in the version order
    of ``key``: the WW edge plus one RW edge per reader of ``first``
    (``readers_from`` maps ``(writer, key)`` to the readers).  Shared by
    batch construction and the online checker, which materializes
    branches lazily from its running reader index."""
    edges: List[Edge] = [(first, second, WW, key)]
    for reader in readers_from.get((first, key), ()):
        if reader != second:
            edges.append((reader, second, RW, key))
    return edges


def _emit_constraints(
    graph: GeneralizedPolygraph, key, t: int, s: int, compact: bool
) -> None:
    either = branch_edges(graph.readers_from, key, t, s)
    orelse = branch_edges(graph.readers_from, key, s, t)
    if compact:
        graph.constraints.append(
            Constraint(either, orelse, key=key, pair=(t, s))
        )
        return
    # Non-compacted construction (Definition 8 style): the WW direction
    # choice plus one constraint per reader.  Shared pair-level variables in
    # the encoding keep the decomposition semantically equivalent.
    ww_ts: Edge = (t, s, WW, key)
    ww_st: Edge = (s, t, WW, key)
    graph.constraints.append(
        Constraint([ww_ts], [ww_st], key=key, pair=(t, s))
    )
    for edge in either[1:]:
        graph.constraints.append(
            Constraint([ww_ts, edge], [ww_st], key=key, pair=(t, s))
        )
    for edge in orelse[1:]:
        graph.constraints.append(
            Constraint([ww_st, edge], [ww_ts], key=key, pair=(t, s))
        )
