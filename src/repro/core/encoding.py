"""SAT encoding of the induced SI graph (paper Section 4.4).

The encoding follows Algorithm 2 (SAT-Encode) with four refinements that
keep it sound in corner cases and small in practice:

- **Static/variable split.**  Known edges are facts: they need no Boolean
  variables.  The known part of the induced SI graph
  ``KI = Dep ∪ (Dep ; AntiDep)`` is computed concretely
  (:class:`~repro.core.known.KnownGraph`), checked for cycles directly (a
  cycle there is already a violation), and handed to the acyclicity
  theory as a transitive-closure substrate.  Only edges occurring in the
  *remaining constraints* — a few hundred after pruning (Table 3) — get
  variables, which is why PolySI's solving stage is cheap on pruned
  polygraphs (Figure 9).  After pruning none of it is computed anew:
  the fixpoint's known graph and closure are handed over, and the
  substrate is ``KI`` restricted to the :func:`cycle_core`.
- **Typed pair variables.**  ``dep(u, v)`` means "some Dep-type edge
  (SO/WR/WW) from u to v is present" and ``rw(u, v)`` means "some RW edge
  from u to v is present".  One untyped variable per pair (the paper's
  ``BV``) would let an RW edge masquerade as a Dep edge inside
  compositions, producing spurious induced edges.
- **Implication-only constraint clauses.**  A constraint contributes a
  choice variable ``c`` with ``c -> either-edges`` and ``¬c -> or-edges``.
  Requiring the *absence* of the opposite branch is unnecessary (extra
  edges only make acyclicity harder) and would be unsound when an
  unrelated known edge shares a pair with an opposite-branch edge.
- **The search decides choice variables only.**  Every typed-pair, and-gate
  and or-gate variable is a function of the choices, so it is allocated
  ``decision=False`` and left to unit propagation; with all choices
  assigned, the derived variables propagation did not force are false,
  which satisfies each of the five clause shapes emitted below and adds
  no edge (DESIGN.md S4 has the argument).  A new choice's first phase
  is the branch that agrees with the theory's current topological order.

Induced edges with a variable part are defined by Tseitin translation
over four derivation shapes: a constraint Dep edge itself, constraint-Dep
composed with known-RW, known-Dep composed with constraint-RW, and
constraint-Dep composed with constraint-RW.  Pairs already present in the
known induced graph are skipped — they are permanently true; after
pruning, so are the pairs it already *reaches*, whose edge adds no
cycle the known path in its place does not.

There is one encoder, and it is *incremental*: :meth:`SIEncoding.encode`
may be called any number of times with the constraints currently
unresolved, and each call adds only what earlier calls have not — clauses
for branch edges not yet clausified, gates for derivation terms not yet
emitted — into one persistent solver instance.  That is sound because
everything it adds is monotone: a clause, once implied, stays implied; an
induced pair whose term set grows gets one more gate variable registered
as a parallel edge, and the pair is present iff any of its gates is.  The
online checker calls it once per solve; :func:`encode_polygraph` is the
same encoder called once, and its output is the reference clause set.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..solver.monosat import AcyclicGraphSolver
from ..utils.closure import iter_bits
from ..utils.reachability import is_acyclic
from .known import KnownGraph, mask_of
from .polygraph import Constraint, Edge, GeneralizedPolygraph, RW, WW
from .pruning import PruneResult, find_known_cycle

__all__ = ["SIEncoding", "cycle_core", "encode_polygraph",
           "graph_constraints"]

#: What the encoder consumes per constraint: a hashable identity tuple
#: (stable across calls) and the two branches' typed edges.
ConstraintSpec = Tuple[tuple, Sequence[Edge], Sequence[Edge]]


def graph_constraints(graph: GeneralizedPolygraph) -> List[ConstraintSpec]:
    """A polygraph's constraints as the encoder consumes them, identified
    by position."""
    return [((index,), cons.either, cons.orelse)
            for index, cons in enumerate(graph.constraints)]


class SIEncoding:
    """The incremental encoder, and the encoded instance it maintains.

    ``static_adj`` seeds the solver's static substrate (None builds no
    solver — the known graph is cyclic and there is nothing to solve);
    growing the substrate afterwards (``solver.add_vertex`` /
    ``solver.add_static_edge``) is the caller's business.  The encoder
    keeps only what it emitted — variable tables and the solver — and
    is handed the caller's known graph per call, so a one-shot encoding
    does not pin the graph it was built from.
    """

    def __init__(self, num_vertices: int,
                 static_adj: Optional[Sequence[Iterable[int]]] = None):
        self.solver: Optional[AcyclicGraphSolver] = (
            AcyclicGraphSolver(num_vertices, static_adj=static_adj)
            if static_adj is not None else None
        )
        #: True when the known induced graph already contains a cycle; the
        #: history violates SI without any solving.
        self.static_cycle = False
        #: Set by :func:`encode_polygraph`: size of the static substrate
        #: the solver was built over, and the vertices it spans.
        self.num_static_induced_edges = 0
        self.num_solver_vertices = 0
        self.dep_var: Dict[Tuple[int, int], int] = {}
        self.rw_var: Dict[Tuple[int, int], int] = {}
        self.choice_var: Dict[tuple, int] = {}
        self.and_var: Dict[Tuple[int, int], int] = {}
        # What has been emitted so far: per constraint the clausified
        # (branch tag, edge) pairs, per induced pair the derivation terms.
        self._emitted_branch: Dict[tuple, set] = {}
        self._emitted_terms: Dict[Tuple[int, int], set] = {}

    # -- encoding --------------------------------------------------------------

    def encode(self, constraints: Iterable[ConstraintSpec],
               known: KnownGraph, present: Callable[[int, int], bool]) -> None:
        """Bring the instance up to date with ``constraints`` (every
        constraint currently unresolved) and the current ``known``
        graph; ``present(u, v)`` says whether the induced pair
        ``u -> v`` is already permanently true and needs no gate."""
        solver = self.solver
        cur_dep: Dict[Tuple[int, int], int] = {}
        cur_rw: Dict[Tuple[int, int], int] = {}
        for ident, either, orelse in constraints:
            cvar = self.choice_var.get(ident)
            if cvar is None:
                cvar = self.choice_var[ident] = solver.new_var(
                    phase=self._order_phase(either))
            emitted = self._emitted_branch.setdefault(ident, set())
            for tag, lit, branch in (("e", -cvar, either), ("o", cvar, orelse)):
                for edge in branch:
                    pair = (edge[0], edge[1])
                    table, cur = ((self.rw_var, cur_rw) if edge[2] == RW
                                  else (self.dep_var, cur_dep))
                    var = table.get(pair)
                    if var is None:
                        var = table[pair] = solver.new_var(decision=False)
                    cur[pair] = var
                    if (tag, edge) not in emitted:
                        emitted.add((tag, edge))
                        solver.add_clause([lit, var])
        self._emit_gates(self._derive_terms(cur_dep, cur_rw, known, present))

    def _order_phase(self, either: Iterable[Edge]) -> bool:
        """Initial phase of a choice variable: the branch whose WW edge
        agrees with the theory's current topological order (batch: a
        Kahn order of KI; online: the order the last model left behind,
        new transactions last) — taking it asserts edges that need no
        reorder, so it is the cheap branch to try and, on histories a
        real database produced, nearly always the right one."""
        for u, v, label, _key in either:
            if label == WW:
                return self.solver.precedes(u, v)
        return False

    def _derive_terms(self, cur_dep: Dict, cur_rw: Dict, known: KnownGraph,
                      present: Callable[[int, int], bool]) -> Dict:
        """The not-yet-emitted ways each induced pair can arise from the
        current constraint variables: a term is a single variable or a
        conjunction of two."""
        emitted = self._emitted_terms
        terms: Dict[Tuple[int, int], List[tuple]] = {}

        def add_term(u: int, v: int, term: tuple) -> None:
            if present(u, v):
                return
            seen = emitted.setdefault((u, v), set())
            if term not in seen:
                seen.add(term)
                terms.setdefault((u, v), []).append(term)

        rw_by_tail: Dict[int, List[Tuple[int, int]]] = {}
        for (k, j), rvar in cur_rw.items():
            rw_by_tail.setdefault(k, []).append((j, rvar))
        for (u, k), dvar in cur_dep.items():
            # The constraint Dep edge is itself an induced edge.
            add_term(u, k, ("single", dvar))
            # Constraint-Dep ; known-RW.
            for j in known.antidep[k]:
                add_term(u, j, ("single", dvar))
            # Constraint-Dep ; constraint-RW.
            for j, rvar in rw_by_tail.get(k, ()):
                add_term(u, j, ("and", dvar, rvar))
        for (k, j), rvar in cur_rw.items():
            # Known-Dep ; constraint-RW.
            for i in known.dep_preds[k]:
                add_term(i, j, ("single", rvar))
        return terms

    def _emit_gates(self, terms: Dict) -> None:
        """Tseitin gates and graph-edge registration for new terms."""
        solver = self.solver
        for (u, v), term_list in terms.items():
            if len(term_list) == 1 and term_list[0][0] == "single":
                var = term_list[0][1]
                if not solver.watches_var(var):
                    solver.add_edge(var, u, v)
                    continue
                # The variable already stands for another induced edge;
                # fall through to an equivalent fresh variable.
            term_vars: List[int] = []
            for term in term_list:
                if term[0] == "single":
                    term_vars.append(term[1])
                    continue
                _tag, a, b = term
                aux = self.and_var[(a, b)] = solver.new_var(decision=False)
                solver.add_clause([-aux, a])
                solver.add_clause([-aux, b])
                solver.add_clause([aux, -a, -b])
                term_vars.append(aux)
            gate = solver.new_var(decision=False)
            for tvar in term_vars:
                solver.add_clause([-tvar, gate])
            solver.add_clause([-gate] + term_vars)
            solver.add_edge(gate, u, v)

    def resolve(self, ident: tuple, either_wins: bool) -> None:
        """Pin an encoded constraint the caller resolved outside the
        solver (a unit clause on its choice variable)."""
        cvar = self.choice_var.get(ident)
        if cvar is not None:
            self.solver.add_clause([cvar if either_wins else -cvar])

    # -- model decoding ----------------------------------------------------------

    def resolved_edges(self, model, known_edges: Iterable[Edge],
                       constraints: Iterable[ConstraintSpec]) -> List[Edge]:
        """Typed edge set of one concrete resolution of ``constraints``
        on top of ``known_edges``.

        ``model`` is any object with ``model_value(var)`` (the theory-free
        solver returned by ``solve_without_acyclicity``, or the main
        solver after SAT).  Known edges are always present; each
        constraint contributes the branch selected by its choice variable.
        """
        edges: List[Edge] = list(known_edges)
        for ident, either, orelse in constraints:
            chosen = model.model_value(self.choice_var[ident])
            edges.extend(either if chosen else orelse)
        return edges

    def violation_cycle(
        self, known_edges: Iterable[Edge],
        constraints: Iterable[ConstraintSpec],
    ) -> Optional[List[Edge]]:
        """After an UNSAT answer, one concrete undesired cycle.

        Solves the clause set without the acyclicity requirement to
        obtain a concrete resolution of ``constraints`` (the ones last
        encoded), then searches the resolution's induced graph for a
        shortest cycle (:func:`repro.core.pruning.find_known_cycle`).
        """
        plain = self.solver.solve_without_acyclicity()
        return find_known_cycle(
            self.resolved_edges(plain, known_edges, constraints))

    def stats(self) -> dict:
        """Structural size counters (vars/clauses/edges) for the harness."""
        solver = self.solver
        return {
            "vars": solver.num_vars if solver else 0,
            "clauses": solver.num_clauses if solver else 0,
            "induced_edges": solver.num_edges if solver else 0,
            "static_induced_edges": self.num_static_induced_edges,
            "aux_vars": len(self.and_var),
        }

    # -- persistence (checkpointed online checking) ------------------------------

    def export_state(self) -> dict:
        """JSON-able snapshot: the solver's Boolean side
        (:meth:`AcyclicGraphSolver.export_state`) plus the variable and
        emitted-so-far tables.  Identity tuples are flattened in front
        of their payload, so their members must be JSON scalars."""
        state = self.solver.export_state()
        state["dep_var"] = [[u, v, var]
                            for (u, v), var in self.dep_var.items()]
        state["rw_var"] = [[u, v, var] for (u, v), var in self.rw_var.items()]
        state["choice_var"] = [[*ident, var]
                               for ident, var in self.choice_var.items()]
        state["and_cache"] = [[a, b, var]
                              for (a, b), var in self.and_var.items()]
        state["emitted_branch"] = [
            [*ident, sorted(([tag, *edge] for tag, edge in emitted), key=repr)]
            for ident, emitted in self._emitted_branch.items()]
        state["emitted_terms"] = [
            [u, v, sorted((list(term) for term in terms), key=repr)]
            for (u, v), terms in self._emitted_terms.items()]
        return state

    @classmethod
    def import_state(cls, state: dict, num_vertices: int,
                     static_adj: Sequence[Iterable[int]]) -> "SIEncoding":
        """Rebuild an encoder from :meth:`export_state` output over the
        caller's restored static substrate."""
        enc = cls(num_vertices)
        enc.solver = AcyclicGraphSolver.import_state(
            state, num_vertices, static_adj=static_adj, decision=False)
        enc.dep_var = {(u, v): var for u, v, var in state["dep_var"]}
        enc.rw_var = {(u, v): var for u, v, var in state["rw_var"]}
        enc.choice_var = {tuple(rec[:-1]): rec[-1]
                          for rec in state["choice_var"]}
        enc.and_var = {(a, b): var for a, b, var in state["and_cache"]}
        enc._emitted_branch = {
            tuple(rec[:-1]): {(tag, (u, v, label, key))
                              for tag, u, v, label, key in rec[-1]}
            for rec in state["emitted_branch"]}
        enc._emitted_terms = {(u, v): {tuple(term) for term in terms}
                              for u, v, terms in state["emitted_terms"]}
        # Which variables the search decides, and which way first, is
        # derived (never serialised): the choice variables, by the
        # restored order.
        for ident, cvar in enc.choice_var.items():
            enc.solver.set_decision_var(cvar, enc._order_phase(
                edge for tag, edge in enc._emitted_branch.get(ident, ())
                if tag == "e"))
        return enc


def cycle_core(constraints: Iterable[Constraint], known: KnownGraph,
               reach) -> int:
    """The vertices a cycle through a constraint edge can visit, as an
    int bitset; ``reach`` is the closure of an *acyclic* ``KI``.

    ``tails`` / ``heads`` are the endpoints of every induced pair the
    constraints can create (:meth:`SIEncoding._derive_terms`: a Dep edge
    ``u -> k`` leaves ``u`` for ``k`` and its AntiDep successors, an RW
    edge ``k -> j`` arrives at ``j`` from the Dep predecessors of ``k``).
    A cycle is such pairs joined by known paths, so each of its vertices
    is a tail, a head, or below a head and above a tail; the subgraph
    induced on those has a cycle iff the whole graph has (DESIGN.md S4).
    """
    tails = heads = 0
    for cons in constraints:
        for u, v, label, _key in chain(cons.either, cons.orelse):
            heads |= 1 << v
            if label == RW:
                tails |= known.pred_mask[u]
            else:
                tails |= 1 << u
                heads |= mask_of(known.antidep[v])
    down = heads
    for head in iter_bits(heads):
        down |= reach.row(head)
    core = tails | heads
    for v in iter_bits(down & ~core):
        if reach.reaches_any(v, tails):
            core |= 1 << v
    return core


def encode_polygraph(graph: GeneralizedPolygraph,
                     pruned: Optional[PruneResult] = None) -> SIEncoding:
    """Encode the (pruned) polygraph in one shot; returns the
    ready-to-solve instance.

    With ``pruned`` — :func:`~repro.core.pruning.prune_constraints`'s
    result for this graph, state (hence a clean closure diagonal) still
    attached — nothing is derived twice: the known graph is the
    fixpoint's own — reachability-equivalent to the typed edges' pairs,
    over fewer of them — the solver's static substrate is its ``KI``
    restricted to the :func:`cycle_core` (same vertex ids, empty rows
    outside it), and a pair the closure already has gets no gate.
    Otherwise the known graph is derived from the typed edges and
    walked, and every vertex is in the core — Algorithm 1 as written,
    and the reference clause set.  If it is cyclic, ``static_cycle`` is
    set and no solver built: the caller reports the known cycle.
    """
    n = graph.num_vertices
    state = pruned and pruned.state
    if state is None:
        known = KnownGraph.from_edges(n, graph.known_edges)
        ki = known.induced_adjacency()
        if not is_acyclic(n, ki):
            enc = SIEncoding(n)
            enc.static_cycle = True
            return enc
        core = range(n)
    else:
        known = state.known
        core = set(iter_bits(
            cycle_core(graph.constraints, known, state.reach)))
        ki = known.induced_adjacency(core)
    enc = SIEncoding(n, ki)
    enc.num_static_induced_edges = sum(len(row) for row in ki)
    enc.num_solver_vertices = len(core)
    enc.encode(graph_constraints(graph), known,
               (lambda u, v: v in ki[u]) if state is None else state.reach.has)
    return enc
