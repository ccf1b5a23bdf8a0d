"""Shard planning: turning one checking job into independent work units.

A *shard* is a self-contained, picklable payload that a worker process
can check without the parent's ``History`` or ``GeneralizedPolygraph``
objects — only plain tuples, op lists, and small dicts cross the process
boundary.  Two shard sources (see DESIGN.md, shard soundness):

- **component shards** — weakly-connected components of the generalized
  polygraph (over known edges *and* every constraint branch edge).
  Every edge a cycle could use is intra-component, so the history
  satisfies SI iff every component fragment does;
- **segment shards** — the inter-snapshot slices of a segmented run
  (:mod:`repro.extensions.segmented`): each segment is checked as its
  own history seeded with the previous snapshot's observations.

The planner never talks to a process pool — it only decides the
decomposition and builds payloads; :class:`repro.parallel.ParallelChecker`
owns execution, cancellation, and merging.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.polygraph import Constraint, GeneralizedPolygraph

__all__ = ["Shard", "ShardPlan", "ShardPlanner"]

#: Picklable structural image of a component fragment:
#: ``(num_vertices, init_vertex, known_edges, constraint_tuples)``.
ComponentPayload = Tuple[int, Optional[int], tuple, tuple]


class Shard:
    """One independently checkable work unit.

    ``index`` is the shard's deterministic position: merge order, witness
    selection, and worker-count-independent results all key off it.
    ``vertex_map`` (component shards only) translates shard-local vertex
    ids back to the parent polygraph's ids.
    """

    __slots__ = ("index", "kind", "payload", "vertex_map", "cost")

    def __init__(self, index: int, kind: str, payload,
                 vertex_map: Optional[List[int]] = None, cost: int = 0):
        self.index = index
        self.kind = kind  # "component" | "segment"
        self.payload = payload
        self.vertex_map = vertex_map
        self.cost = cost

    def __repr__(self) -> str:
        return f"Shard(#{self.index}, {self.kind}, cost={self.cost})"


class ShardPlan:
    """A planner decision: the shards plus what stays in the parent."""

    __slots__ = ("strategy", "shards", "components", "skipped_components",
                 "pure_vertices")

    def __init__(self, strategy: str):
        self.strategy = strategy
        self.shards: List[Shard] = []
        #: Total weakly-connected components of the planned polygraph.
        self.components = 0
        #: Components with no constraints: checked in the parent with one
        #: static acyclicity pass instead of a shard (the fast path).
        self.skipped_components = 0
        #: The vertices of those constraint-free components.
        self.pure_vertices: List[int] = []

    def __repr__(self) -> str:
        return (
            f"ShardPlan({self.strategy}, shards={len(self.shards)}, "
            f"components={self.components}, "
            f"skipped={self.skipped_components})"
        )


def component_payload(sub: GeneralizedPolygraph) -> ComponentPayload:
    """Strip a component fragment down to picklable structure."""
    return (
        sub.num_vertices,
        sub.init_vertex,
        tuple(sub.known_edges),
        tuple((c.either, c.orelse, c.key, c.pair) for c in sub.constraints),
    )


def rebuild_component(payload: ComponentPayload) -> GeneralizedPolygraph:
    """Worker-side inverse of :func:`component_payload`.

    The rebuilt fragment has no ``History`` behind it — every stage after
    construction (prune / encode / solve) only reads the
    structural fields, so that is all a worker needs.
    """
    num_vertices, init_vertex, known_edges, constraints = payload
    graph = GeneralizedPolygraph(None, num_vertices, init_vertex)
    graph.add_known_many(known_edges)
    graph.constraints = [
        Constraint(either, orelse, key=key, pair=pair)
        for either, orelse, key, pair in constraints
    ]
    return graph


def _build_payload(
    graph: GeneralizedPolygraph,
    vertices: List[int],
    edges: list,
    constraints: List[Constraint],
) -> Tuple[ComponentPayload, List[int]]:
    """Densely renumber one shard's pre-grouped slice of the polygraph.

    Equivalent to ``component_payload(graph.subgraph(vertices)[0])`` but
    fed the component-local edge/constraint lists, avoiding a full-graph
    scan per shard.  A local init copy is materialized when any edge
    leaves the init vertex into the slice.
    """
    order = sorted(vertices)
    remap = {old: new for new, old in enumerate(order)}
    init = graph.init_vertex
    needs_init = init is not None and any(e[0] == init for e in edges)
    init_new = len(order) if needs_init else None
    if needs_init:
        remap[init] = init_new
    known = tuple(
        (remap[u], remap[v], label, key) for u, v, label, key in edges
    )
    cons_tuples = tuple(
        (
            tuple((remap[u], remap[v], label, key)
                  for u, v, label, key in cons.either),
            tuple((remap[u], remap[v], label, key)
                  for u, v, label, key in cons.orelse),
            cons.key,
            (remap[cons.pair[0]], remap[cons.pair[1]])
            if cons.pair is not None else None,
        )
        for cons in constraints
    )
    old_of_new = list(order)
    if needs_init:
        old_of_new.append(init)
    payload = (len(old_of_new), init_new, known, cons_tuples)
    return payload, old_of_new


class ShardPlanner:
    """Chooses a decomposition for a polygraph (or segmented run) and
    builds the shard payloads.

    Parameters
    ----------
    max_shards:
        Soft cap on component shards: when the decomposition yields more
        components than this, neighbouring components (in smallest-vertex
        order) are packed together so each worker receives fewer, larger
        payloads.  0 means one shard per constrained component.
    """

    def __init__(self, *, max_shards: int = 0):
        self.max_shards = max_shards

    # -- component shards -----------------------------------------------------

    def plan_polygraph(
        self,
        graph: GeneralizedPolygraph,
        decomposition=None,
    ) -> ShardPlan:
        """Decompose ``graph`` into component shards.

        ``decomposition`` is an optional precomputed
        ``graph.constrained_components()`` result (the engine passes the
        one it used to decide whether to shard, so nothing is decomposed
        twice).  One pass groups the known edges by component, so
        payload building is O(V + E) overall rather than one full-graph
        scan per shard.  Constraint-free components are *not* sharded —
        they need one cheap acyclicity check, which the parent performs
        itself (the same fast path the serial checker takes); shipping
        them to a worker would cost more than checking them.
        """
        plan = ShardPlan("components")
        if decomposition is None:
            decomposition = graph.constrained_components()
        components, comp_cons = decomposition
        plan.components = len(components)

        comp_of: dict = {}
        for ci, comp in enumerate(components):
            for v in comp:
                comp_of[v] = ci
        # Known edges land with their component; edges out of the init
        # vertex belong to their *target*'s component.
        init = graph.init_vertex
        comp_edges: List[list] = [[] for _ in components]
        for edge in graph.known_edges:
            owner = edge[1] if edge[0] == init else edge[0]
            comp_edges[comp_of[owner]].append(edge)

        constrained: List[int] = []
        for ci, comp in enumerate(components):
            if comp_cons[ci]:
                constrained.append(ci)
            else:
                plan.pure_vertices.extend(comp)
        plan.skipped_components = plan.components - len(constrained)

        groups = self._pack(
            constrained,
            [len(comp_cons[ci]) for ci in constrained],
            [components[ci][0] for ci in constrained],
        )
        for index, group in enumerate(groups):
            vertices = [v for ci in group for v in components[ci]]
            edges = [e for ci in group for e in comp_edges[ci]]
            constraints = [c for ci in group for c in comp_cons[ci]]
            payload, old_of_new = _build_payload(
                graph, vertices, edges, constraints
            )
            plan.shards.append(Shard(
                index, "component", payload,
                vertex_map=old_of_new, cost=len(constraints),
            ))
        return plan

    def _pack(
        self, indices: List[int], costs: List[int], firsts: List[int]
    ) -> List[List[int]]:
        """Group component indices into at most ``max_shards`` shards.

        Deterministic greedy fold (largest cost first, ties by smallest
        vertex): packing depends only on the polygraph, never on worker
        count or timing.
        """
        if not self.max_shards or len(indices) <= self.max_shards:
            return [[ci] for ci in indices]
        order = sorted(range(len(indices)),
                       key=lambda i: (-costs[i], firsts[i]))
        bins: List[List[int]] = [[] for _ in range(self.max_shards)]
        bin_cost = [0] * self.max_shards
        for i in order:
            target = min(range(self.max_shards),
                         key=lambda b: (bin_cost[b], b))
            bins[target].append(indices[i])
            bin_cost[target] += costs[i]
        return [sorted(b) for b in bins if b]

    # -- segment shards -------------------------------------------------------

    def plan_segments(self, run) -> ShardPlan:
        """One shard per non-empty segment of a
        :class:`repro.extensions.segmented.SegmentedRun`.

        The payload carries the segment's recorded ``(session, ops,
        status)`` triples plus its snapshot-seeded initial values; the
        worker rebuilds the segment history and runs the full pipeline
        on it (axioms included, as serial segmented checking does).
        """
        plan = ShardPlan("segments")
        index = 0
        for segment in run.segments:
            if not segment.txns:
                continue
            plan.shards.append(Shard(
                index, "segment",
                (segment.index, dict(segment.initial_values),
                 list(segment.txns)),
                cost=len(segment.txns),
            ))
            index += 1
        return plan
