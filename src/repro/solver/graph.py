"""Graph acyclicity theory for the CDCL solver (MonoSAT's ``graph.acyclic``).

Boolean variables are registered as directed edges of a finite graph.  The
theory maintains the subgraph of edges whose variables are currently
*true*; whenever a new true edge would close a directed cycle, it reports
the cycle's edge variables as a conflict.  The solver turns that into the
learned clause "not all of these edges" — exactly how MonoSAT's monotonic
acyclicity predicate cooperates with CDCL search [Bayless et al., AAAI'15].

Beyond variable edges, the theory accepts a *static* substrate: an acyclic
set of permanent edges.  PolySI's known induced graph (after pruning)
lands there, so the SAT search only manipulates the few hundred
constraint-derived edges while cycle detection still accounts for paths
through the full known graph.

Cycle detection maintains a dynamic topological order with the
Pearce-Kelly algorithm [Pearce & Kelly 2006]: inserting an edge that
already respects the order costs O(1); otherwise a bounded forward DFS
either finds a cycle (conflict) or discovers the affected region, which is
locally reordered.  Edge *removal* (backtracking) never invalidates a
topological order, so backjumps are trivially cheap — crucial, because
CDCL re-asserts the same edges many times across restarts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["AcyclicityTheory", "StaticCycleError"]


class StaticCycleError(ValueError):
    """The permanent (static) edge set is already cyclic."""


class AcyclicityTheory:
    """Acyclicity theory over vertices ``0..num_vertices-1``.

    ``static_adj[u]`` iterates the permanent successors of ``u``; the
    permanent subgraph must be acyclic (raises :class:`StaticCycleError`
    otherwise).
    """

    def __init__(self, num_vertices: int,
                 static_adj: Optional[Sequence[Sequence[int]]] = None):
        self.num_vertices = num_vertices
        if static_adj is None:
            static_adj = [() for _ in range(num_vertices)]
        self.static_adj: List[List[int]] = [list(row) for row in static_adj]
        self.static_pred: List[List[int]] = [[] for _ in range(num_vertices)]
        for u, row in enumerate(self.static_adj):
            for v in row:
                self.static_pred[v].append(u)
        self.order: List[int] = self._initial_order()
        self.edge_of: Dict[int, Tuple[int, int]] = {}
        # Currently-true variable edges.
        self.var_out: List[List[Tuple[int, int]]] = [
            [] for _ in range(num_vertices)
        ]
        self.var_in: List[List[Tuple[int, int]]] = [
            [] for _ in range(num_vertices)
        ]
        self._stack: List[Tuple[int, int, int, int]] = []  # (u, v, var, pos)
        # Edge assertions and local reorders since the solver last
        # drained them into its SolverStats.
        self.checks = 0
        self.reorders = 0

    def _initial_order(self) -> List[int]:
        """Kahn topological order of the static subgraph."""
        n = self.num_vertices
        indegree = [0] * n
        for row in self.static_adj:
            for v in row:
                indegree[v] += 1
        queue = [v for v in range(n) if indegree[v] == 0]
        order = [0] * n
        position = 0
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order[u] = position
            position += 1
            for v in self.static_adj[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    queue.append(v)
        if position != n:
            raise StaticCycleError("static edge set contains a cycle")
        return order

    # -- incremental growth ---------------------------------------------------

    def add_vertex(self) -> int:
        """Append a fresh isolated vertex; returns its id.

        A vertex with no edges can take any order position, so appending
        it at the end keeps the current topological order valid.
        """
        v = self.num_vertices
        self.num_vertices += 1
        self.static_adj.append([])
        self.static_pred.append([])
        self.var_out.append([])
        self.var_in.append([])
        self.order.append(v)
        return v

    def add_static_edge(self, u: int, v: int) -> Optional[List[int]]:
        """Insert a permanent edge ``u -> v`` between solves.

        Returns None on success.  If the edge closes a directed cycle,
        returns the *variable* edge vars on that cycle without inserting
        it — an empty list means the cycle is entirely static, i.e. the
        permanent facts alone are inconsistent.
        """
        if u == v:
            return []
        if self.order[u] >= self.order[v]:
            conflict = self._discover_and_reorder(u, v)
            if conflict is not None:
                return conflict
        self.static_adj[u].append(v)
        self.static_pred[v].append(u)
        return None

    # -- registration ---------------------------------------------------------

    def register_edge(self, var: int, u: int, v: int) -> None:
        """Declare that ``var`` means "edge u -> v exists"."""
        if var in self.edge_of:
            raise ValueError(f"variable {var} already registered as an edge")
        self.edge_of[var] = (u, v)

    def watches_var(self, var: int) -> bool:
        return var in self.edge_of

    def precedes(self, u: int, v: int) -> bool:
        """Whether ``u`` comes before ``v`` in the current topological
        order, i.e. asserting ``u -> v`` now would need no reorder.  The
        order outlives backtracking, which makes it a free phase hint
        for a choice between ``u -> v`` and ``v -> u``."""
        return self.order[u] < self.order[v]

    # -- solver callbacks -------------------------------------------------------

    def assert_var(self, var: int, trail_pos: int) -> Optional[List[int]]:
        """Called when an edge variable becomes true.

        Returns None if the edge keeps the graph acyclic (inserting it), or
        the list of *variable* edge vars on the directed cycle it would
        close (without inserting it).  Static edges on the cycle are
        permanent facts and do not appear in the conflict.
        """
        u, v = self.edge_of[var]
        self.checks += 1
        if u == v:
            return [var]
        order = self.order
        if order[u] >= order[v]:
            # The edge contradicts the current order: search for a cycle
            # and reorder the affected region if there is none.
            conflict = self._discover_and_reorder(u, v)
            if conflict is not None:
                conflict.append(var)
                return conflict
        self.var_out[u].append((v, var))
        self.var_in[v].append((u, var))
        self._stack.append((u, v, var, trail_pos))
        return None

    def backtrack(self, trail_len: int) -> None:
        """Remove every edge asserted at a trail position >= ``trail_len``.

        Removals keep any valid topological order valid, so the order is
        left untouched.
        """
        stack = self._stack
        while stack and stack[-1][3] >= trail_len:
            u, v, _var, _pos = stack.pop()
            self.var_out[u].pop()
            self.var_in[v].pop()

    # -- Pearce-Kelly internals ------------------------------------------------------

    def _discover_and_reorder(self, u: int, v: int) -> Optional[List[int]]:
        """Handle insertion of u -> v with order[u] >= order[v].

        Forward-searches from ``v`` within the affected region
        ``order <= order[u]``.  If ``u`` is reached there is a cycle:
        return its variable-edge vars.  Otherwise backward-search from
        ``u`` and reorder the region (Pearce-Kelly merge).
        """
        order = self.order
        upper = order[u]
        lower = order[v]
        # Forward DFS from v, bounded by order <= upper.
        parent: Dict[int, Tuple[int, Optional[int]]] = {}
        forward: List[int] = [v]
        seen_f = {v}
        stack = [v]
        while stack:
            node = stack.pop()
            for nxt, evar in self._successors(node):
                if nxt == u:
                    # Cycle: v ~> node -> u (plus the new edge u -> v).
                    path_vars = [] if evar is None else [evar]
                    cur = node
                    while cur != v:
                        _prev, pvar = parent[cur]
                        if pvar is not None:
                            path_vars.append(pvar)
                        cur = _prev
                    path_vars.reverse()
                    return path_vars
                if nxt in seen_f or order[nxt] > upper:
                    continue
                seen_f.add(nxt)
                parent[nxt] = (node, evar)
                forward.append(nxt)
                stack.append(nxt)
        # Backward DFS from u, bounded by order >= lower.
        backward: List[int] = [u]
        seen_b = {u}
        stack = [u]
        while stack:
            node = stack.pop()
            for prev in self._predecessors(node):
                if prev in seen_b or order[prev] < lower:
                    continue
                seen_b.add(prev)
                backward.append(prev)
                stack.append(prev)
        # Reorder: backward nodes first, then forward nodes, packed into
        # the union of their old positions (ascending).
        self.reorders += 1
        backward.sort(key=order.__getitem__)
        forward.sort(key=order.__getitem__)
        nodes = backward + forward
        positions = sorted(order[w] for w in nodes)
        for node, pos in zip(nodes, positions):
            order[node] = pos
        return None

    def _successors(self, node: int):
        for nxt in self.static_adj[node]:
            yield nxt, None
        for nxt, evar in self.var_out[node]:
            yield nxt, evar

    def _predecessors(self, node: int):
        yield from self.static_pred[node]
        for prev, _evar in self.var_in[node]:
            yield prev

    # -- diagnostics ------------------------------------------------------------------

    def current_edges(self) -> List[Tuple[int, int, int]]:
        """Current true variable edges as (u, v, var) triples (for tests)."""
        return [(u, v, var) for u, v, var, _pos in self._stack]
