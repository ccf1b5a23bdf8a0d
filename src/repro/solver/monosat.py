"""MonoSAT-style facade: SAT + one acyclic graph (see DESIGN.md, sub. 1).

:class:`AcyclicGraphSolver` exposes the small API PolySI needs from
MonoSAT:

- allocate Boolean variables and clauses,
- declare Boolean variables as directed edges of a graph,
- assert that the graph (restricted to true edges) is acyclic,
- solve, read back a model,
- on UNSAT, obtain a *witness resolution*: a model of the clauses alone
  (ignoring acyclicity), whose true-edge graph necessarily contains a
  cycle.  The checker extracts its counterexample cycle from that graph,
  mirroring how PolySI reconstructs cycles from MonoSAT's output logs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..obs import trace_span
from .cdcl import CDCLSolver
from .graph import AcyclicityTheory

__all__ = ["AcyclicGraphSolver"]


class AcyclicGraphSolver:
    """SAT solver with a single built-in acyclicity constraint.

    ``static_adj`` optionally supplies the adjacency of an acyclic set of
    *permanent* edges: paths through them count for cycle detection, but
    they carry no Boolean variables (see
    :class:`~repro.solver.graph.AcyclicityTheory`).
    """

    def __init__(self, num_vertices: int, static_adj=None):
        self.num_vertices = num_vertices
        self._solver = CDCLSolver()
        self._theory = AcyclicityTheory(num_vertices, static_adj)
        self._solver.attach_theory(self._theory)
        self._clauses: List[List[int]] = []
        self._edges: Dict[int, Tuple[int, int]] = {}
        self._solved: Optional[bool] = None

    # -- construction -------------------------------------------------------

    def new_var(self, decision: bool = True, phase: bool = False) -> int:
        """Allocate a variable; see :meth:`CDCLSolver.new_var` for the
        contract a ``decision=False`` variable must meet."""
        return self._solver.new_var(decision, phase)

    def set_decision_var(self, var: int, phase: bool = False) -> None:
        """See :meth:`CDCLSolver.set_decision_var`."""
        self._solver.set_decision_var(var, phase)

    def precedes(self, u: int, v: int) -> bool:
        """Whether ``u`` is before ``v`` in the theory's current
        topological order (:meth:`AcyclicityTheory.precedes`)."""
        return self._theory.precedes(u, v)

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a CNF clause over previously allocated variables.

        Valid both at construction time and between solve calls (the
        solver is returned to its root level first).
        """
        lits = list(lits)
        self._clauses.append(lits)
        self._solver.backtrack_to_root()
        self._solver.add_clause(lits)

    def add_edge(self, var: int, u: int, v: int) -> None:
        """Declare ``var`` to mean "edge u -> v is present"."""
        self._theory.register_edge(var, u, v)
        self._edges[var] = (u, v)

    def watches_var(self, var: int) -> bool:
        """Whether ``var`` already stands for an edge."""
        return self._theory.watches_var(var)

    # -- persistence (checkpointed online checking) ---------------------------

    def export_state(self) -> dict:
        """JSON-able snapshot of the Boolean side of the instance: the
        variable pool, every clause added through :meth:`add_clause`,
        the edge-variable registrations, and the clauses the underlying
        CDCL solver has *learned* so far.

        The graph side (vertices and static edges) is deliberately not
        captured — callers rebuild it from their own source of truth
        (the online checker re-derives static adjacency from its
        restored closure, which is a superset of the edges this
        instance had and therefore sound; see DESIGN.md S14).
        """
        return {
            "num_vars": self.num_vars,
            "clauses": [list(clause) for clause in self._clauses],
            "edges": [[var, u, v] for var, (u, v) in self._edges.items()],
            "learned": [list(clause)
                        for clause in self._solver.learned_clauses],
        }

    @classmethod
    def import_state(cls, state: dict, num_vertices: int, static_adj=None,
                     decision: bool = True) -> "AcyclicGraphSolver":
        """Rebuild an instance from :meth:`export_state` output.

        Edge variables are registered before any clause is added so
        unit propagation at the root already sees them as theory
        atoms.  Learned clauses are re-added as *ordinary* clauses:
        each one is implied by the original formula (that is what
        "learned" means), so strengthening the clause database with
        them preserves the solution set while carrying the conflict
        knowledge across the restart.

        Decision flags and phases are not part of the payload: every
        variable comes back with ``decision`` as its flag, and a caller
        that knows which ones the search must decide says so afterwards
        (:meth:`set_decision_var`).
        """
        out = cls(num_vertices, static_adj)
        for _ in range(state["num_vars"]):
            out.new_var(decision)
        for var, u, v in state["edges"]:
            out.add_edge(var, u, v)
        for clause in state["clauses"]:
            out.add_clause(list(clause))
        for clause in state["learned"]:
            out.add_clause(list(clause))
        return out

    # -- incremental growth (online checking) --------------------------------

    def add_vertex(self) -> int:
        """Append a fresh vertex to the graph; returns its id."""
        self.num_vertices += 1
        return self._theory.add_vertex()

    def add_static_edge(self, u: int, v: int) -> Optional[List[int]]:
        """Insert a permanent (variable-free) edge between solves.

        Returns None on success, or the variable edges of the directed
        cycle the insertion would close (empty list: a purely static
        cycle).  See :meth:`AcyclicityTheory.add_static_edge`.
        """
        self._solver.backtrack_to_root()
        return self._theory.add_static_edge(u, v)

    def backtrack_to_root(self) -> None:
        """Return the underlying solver to decision level 0.

        Required before adding clauses or edges between solve calls;
        learned clauses and root-level facts survive, which is how the
        online checker reuses conflict knowledge across micro-batches.
        """
        self._solver.backtrack_to_root()

    @property
    def num_vars(self) -> int:
        return self._solver.num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def stats(self):
        return self._solver.stats

    @stats.setter
    def stats(self, stats) -> None:
        """Count into a caller-owned :class:`SolverStats` (the online
        checker keeps one across the instances it builds)."""
        self._solver.stats = stats

    # -- solving ----------------------------------------------------------------

    def solve(self) -> bool:
        """True iff the clauses admit a model whose edge graph is acyclic."""
        with trace_span("monosat", vars=self.num_vars,
                        clauses=self.num_clauses,
                        edges=self.num_edges) as span:
            self._solved = self._solver.solve()
            span.set(sat=self._solved, **self._solver.stats.as_dict())
        return self._solved

    def model_value(self, var: int) -> bool:
        return self._solver.model_value(var)

    def true_edges(self) -> List[Tuple[int, int, int]]:
        """(u, v, var) for every edge variable true in the current model."""
        return [
            (u, v, var)
            for var, (u, v) in self._edges.items()
            if self._solver.model_value(var)
        ]

    def solve_without_acyclicity(self) -> "CDCLSolver":
        """Solve the clause set alone, ignoring the graph constraint.

        Used after an UNSAT answer to materialize one concrete resolution
        of the constraints; its true-edge graph must contain a cycle (or
        the theory-aware solve would have succeeded).  Returns the plain
        solver so callers can query the model.
        """
        plain = CDCLSolver()
        plain.ensure_vars(self._solver.num_vars)
        for clause in self._clauses:
            plain.add_clause(list(clause))
        if not plain.solve():
            raise RuntimeError(
                "constraint clauses are unsatisfiable even without the "
                "acyclicity requirement; the encoding is inconsistent"
            )
        return plain
