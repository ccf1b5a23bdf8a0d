"""The counterexample interpretation algorithm (Section 5.3, Appendix C).

MonoSAT-style cycles are *uninformative*: Figure 5(a) shows a raw lost-
update cycle whose cause is invisible because the transaction both
readers read from is missing.  ``interpret_violation`` turns a raw cycle
into an explainable scenario in three stages, mirroring Algorithm 3:

1. **Restore** — for every RW edge on the cycle, bring back the writer
   transaction it pivots on (the WR and WW dependencies of its
   constraint), and grow the cycle into an *adjoining cycle set*: for
   every constraint the cycle uses, the opposite branch must fail too, so
   a small witness cycle for the opposite branch is attached (Appendix E
   shows minimal violations are exactly minimal complete adjoining cycle
   sets).
2. **Resolve** — tag each dependency certain/uncertain; a constraint
   whose opposite branch would close a cycle against certain
   dependencies is resolved, promoting its branch (and the RW edges the
   branch derives) to certain.  This is the reasoning of Figure 5(c).
3. **Finalize** — drop the remaining uncertain dependencies (they are
   consequences, not causes) and restrict to the participating
   transactions and keys, yielding the Figure 5(d) scenario.

The result carries all three stages plus an anomaly classification and a
Graphviz DOT rendering.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.checker import CheckResult
from ..core.known import KnownGraph
from ..core.polygraph import (
    Constraint,
    Edge,
    GeneralizedPolygraph,
    RW,
    SO,
)
from ..utils.reachability import transitive_closure_bits
from .classify import classify_anomalies, classify_cycle
from .dot import counterexample_to_dot

__all__ = ["Counterexample", "interpret_violation", "InterpretationError"]


class InterpretationError(ValueError):
    """The check result does not carry enough evidence to interpret."""


class Counterexample:
    """An explained SI violation.

    ``recovered`` / ``resolved`` map typed edges to ``"certain"`` or
    ``"uncertain"``; ``finalized`` is the pruned list of certain edges
    that constitutes the minimal explainable scenario.
    """

    def __init__(self, graph: GeneralizedPolygraph):
        self.graph = graph
        self.cycle: List[Edge] = []
        self.acs_cycles: List[List[Edge]] = []
        self.restored_vertices: Set[int] = set()
        self.recovered: Dict[Edge, str] = {}
        self.resolved: Dict[Edge, str] = {}
        self.finalized: List[Edge] = []
        self.classification: str = "SI violation (cycle)"
        self.anomalies: list = []

    # -- rendering -----------------------------------------------------------

    @property
    def vertices(self) -> Set[int]:
        """All transactions participating in the explanation."""
        out: Set[int] = set()
        for edge in self.resolved or self.recovered:
            out.add(edge[0])
            out.add(edge[1])
        for edge in self.cycle:
            out.add(edge[0])
            out.add(edge[1])
        return out

    def describe(self) -> str:
        """Multi-line text: classification, cycle, finalized scenario."""
        name = self.graph.vertex_name
        lines = [f"anomaly: {self.classification}"]
        if self.anomalies:
            lines += [f"  {a!r}" for a in self.anomalies]
            return "\n".join(lines)
        lines.append("violation cycle:")
        for u, v, label, key in self.cycle:
            suffix = f"({key})" if key is not None else ""
            lines.append(f"  {name(u)} -{label}{suffix}-> {name(v)}")
        if self.finalized:
            lines.append("finalized scenario:")
            for u, v, label, key in self.finalized:
                suffix = f"({key})" if key is not None else ""
                lines.append(f"  {name(u)} -{label}{suffix}-> {name(v)}")
        return "\n".join(lines)

    def to_dot(self, stage: str = "finalized") -> str:
        return counterexample_to_dot(self, stage)


def interpret_violation(result: CheckResult) -> Counterexample:
    """Explain a failed :class:`~repro.core.checker.CheckResult`."""
    if result.satisfies_si:
        raise InterpretationError("the history satisfies SI; nothing to explain")
    if result.polygraph is None:
        # Axiom-stage violations carry no polygraph; classify directly.
        example = Counterexample(GeneralizedPolygraph.__new__(GeneralizedPolygraph))
        example.anomalies = list(result.anomalies)
        example.classification = classify_anomalies(result.anomalies)
        return example

    graph = result.polygraph
    example = Counterexample(graph)
    if result.anomalies:
        example.anomalies = list(result.anomalies)
        example.classification = classify_anomalies(result.anomalies)
        return example
    if not result.cycle:
        raise InterpretationError("violation without a witness cycle")

    example.cycle = list(result.cycle)

    constraint_index = _index_constraints(graph)
    _restore(example, constraint_index)
    _resolve(example, constraint_index)
    _finalize(example)
    example.classification = classify_cycle(example.cycle, graph)
    return example


# -- stage 1: restore ---------------------------------------------------------------


def _index_constraints(
    graph: GeneralizedPolygraph,
) -> Dict[Edge, Tuple[Constraint, str]]:
    """Map each constraint edge to (constraint, branch name)."""
    index: Dict[Edge, Tuple[Constraint, str]] = {}
    for cons in graph.constraints:
        for edge in cons.either:
            index.setdefault(edge, (cons, "either"))
        for edge in cons.orelse:
            index.setdefault(edge, (cons, "orelse"))
    return index


def _potential_adjacency(graph: GeneralizedPolygraph) -> Dict[int, List[Edge]]:
    """Known plus all constraint edges (the search space for adjoining
    cycles)."""
    adj: Dict[int, List[Edge]] = {}
    for edge in graph.known_edges:
        adj.setdefault(edge[0], []).append(edge)
    for cons in graph.constraints:
        for edge in list(cons.either) + list(cons.orelse):
            adj.setdefault(edge[0], []).append(edge)
    return adj


def _shortest_cycle_through(
    adj: Dict[int, List[Edge]], edge: Edge
) -> Optional[List[Edge]]:
    """Shortest cycle containing ``edge`` (BFS head -> tail, then close)."""
    src, dst = edge[1], edge[0]
    if src == dst:
        return [edge]
    parents: Dict[int, Edge] = {}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for hop in adj.get(node, ()):
            nxt = hop[1]
            if nxt == dst:
                path = [hop]
                cur = node
                while cur != src:
                    prev = parents[cur]
                    path.append(prev)
                    cur = prev[0]
                path.reverse()
                return [edge] + path
            if nxt not in parents and nxt != src:
                parents[nxt] = hop
                queue.append(nxt)
    return None


def _restore(
    example: Counterexample,
    constraint_index: Dict[Edge, Tuple[Constraint, str]],
) -> None:
    """Bring back missing writers and attach adjoining cycles."""
    graph = example.graph
    adj = _potential_adjacency(graph)
    cycle_vertices = {e[0] for e in example.cycle} | {e[1] for e in example.cycle}

    recovered: Dict[Edge, str] = {}

    def add(edge: Edge, status: str) -> None:
        if edge not in recovered or recovered[edge] == "uncertain":
            recovered[edge] = status

    known_set = graph.known_set
    for edge in example.cycle:
        add(edge, "certain" if edge in known_set else "uncertain")

    # 1a. For each RW edge on the cycle, restore the WW and WR deps of its
    # branch (Algorithm 3, Restore lines 8-11).
    for edge in list(example.cycle):
        if edge[2] != RW:
            continue
        hit = constraint_index.get(edge)
        if hit is None:
            # An RW edge already known (e.g. derived from the init vertex):
            # restore its WR support directly.
            continue
        cons, branch_name = hit
        branch = cons.either if branch_name == "either" else cons.orelse
        for dep in branch:
            add(dep, "uncertain")
        # The branch's WW edge w -> s pivots on writer w; its WR edge to
        # the reader is known.
        ww = branch[0]
        writer = ww[0]
        if writer not in cycle_vertices:
            example.restored_vertices.add(writer)
        for wr_edge in graph.known_edges:
            if wr_edge[0] == writer and wr_edge[2] == "WR" and wr_edge[3] == cons.key:
                add(wr_edge, "certain")

    # 1b. Adjoining cycle set: every constraint used by a recovered cycle
    # must fail in the opposite branch too; attach a short witness cycle.
    example.acs_cycles = [list(example.cycle)]
    worklist = list(example.cycle)
    seen_constraints: Set[int] = set()
    budget = 16
    while worklist and budget > 0:
        edge = worklist.pop()
        hit = constraint_index.get(edge)
        if hit is None:
            continue
        cons, branch_name = hit
        if id(cons) in seen_constraints:
            continue
        seen_constraints.add(id(cons))
        opposite = cons.orelse if branch_name == "either" else cons.either
        best: Optional[List[Edge]] = None
        for dep in opposite:
            cycle = _shortest_cycle_through(adj, dep)
            if cycle is not None and (best is None or len(cycle) < len(best)):
                best = cycle
        if best is None:
            continue
        budget -= 1
        example.acs_cycles.append(best)
        for dep in best:
            status = "certain" if dep in known_set else "uncertain"
            add(dep, status)
            if dep not in example.cycle:
                worklist.append(dep)
        for vertex in {e[0] for e in best} | {e[1] for e in best}:
            if vertex not in cycle_vertices:
                example.restored_vertices.add(vertex)

    example.recovered = recovered


# -- stage 2: resolve ---------------------------------------------------------------


def _resolve(
    example: Counterexample,
    constraint_index: Dict[Edge, Tuple[Constraint, str]],
) -> None:
    """Promote uncertain dependencies whose opposite would close a cycle
    against certain dependencies (Algorithm 3, Resolve)."""
    graph = example.graph
    resolved = dict(example.recovered)

    constraints: List[Constraint] = []
    seen: Set[int] = set()
    for edge in resolved:
        hit = constraint_index.get(edge)
        if hit and id(hit[0]) not in seen:
            seen.add(id(hit[0]))
            constraints.append(hit[0])

    certain_edges: Set[Edge] = set(graph.known_edges)
    certain_edges.update(e for e, s in resolved.items() if s == "certain")

    changed = True
    while changed:
        changed = False
        certain = KnownGraph.from_edges(graph.num_vertices, certain_edges)
        reach = transitive_closure_bits(graph.num_vertices,
                                        certain.induced_adjacency())
        for cons in constraints:
            either_bad = _branch_closes_cycle(cons.either, reach)
            orelse_bad = _branch_closes_cycle(cons.orelse, reach)
            winner: Optional[Sequence[Edge]] = None
            if either_bad and not orelse_bad:
                winner = cons.orelse
            elif orelse_bad and not either_bad:
                winner = cons.either
            if winner is None:
                continue
            for dep in winner:
                if resolved.get(dep) != "certain":
                    resolved[dep] = "certain"
                    changed = True
                if dep not in certain_edges:
                    certain_edges.add(dep)
                    changed = True

    example.resolved = resolved


def _branch_closes_cycle(branch: Sequence[Edge], reach) -> bool:
    for src, dst, _label, _key in branch:
        if reach.has(dst, src) or src == dst:
            return True
    return False


# -- stage 3: finalize ---------------------------------------------------------------


def _finalize(example: Counterexample) -> None:
    """Keep certain, relevant dependencies only (Algorithm 3, Finalize)."""
    keys = {e[3] for e in example.recovered if e[3] is not None}
    vertices = example.vertices
    finalized: List[Edge] = []
    for edge, status in example.resolved.items():
        if status != "certain":
            continue
        if edge[0] not in vertices or edge[1] not in vertices:
            continue
        if edge[3] is not None and edge[3] not in keys:
            continue
        finalized.append(edge)
    # Session edges between participants add context.
    for edge in example.graph.known_edges:
        if (
            edge[2] == SO
            and edge[0] in vertices
            and edge[1] in vertices
            and edge not in finalized
        ):
            finalized.append(edge)
    example.finalized = finalized
