"""Graph reachability kernels used by constraint pruning (Section 4.3).

The paper computes reachability of the known induced graph with
Floyd–Warshall (O(n^3)).  In Python that is prohibitively slow, so the
default kernel condenses strongly connected components (iterative Tarjan)
and propagates *bitset* reachability rows (arbitrary-precision ints) in
reverse topological order — O(n * E / 64) in practice and exact.  It
also stands in for Cobra's GPU-accelerated closure (see DESIGN.md,
substitution 3).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = [
    "tarjan_scc",
    "transitive_closure_bits",
    "transitive_closure_sets",
    "is_acyclic",
    "Reachability",
]


def is_acyclic(n: int, succ: "Sequence[Iterable[int]]") -> bool:
    """True iff the graph has no directed cycle (self-loops included)."""
    for u in range(n):
        for v in succ[u]:
            if v == u:
                return False
    return all(len(comp) == 1 for comp in tarjan_scc(n, succ))


def tarjan_scc(n: int, succ: Sequence[Iterable[int]]) -> List[List[int]]:
    """Strongly connected components, emitted in reverse topological order.

    Iterative Tarjan (explicit stack) so deep graphs do not hit the
    recursion limit.  ``succ[u]`` lists the successors of vertex ``u``.
    """
    index = [0] * n
    low = [0] * n
    on_stack = bytearray(n)
    visited = bytearray(n)
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 1

    for root in range(n):
        if visited[root]:
            continue
        # Each frame is (vertex, iterator over its successors).
        work = [(root, iter(succ[root]))]
        visited[root] = 1
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = 1
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


class Reachability:
    """Strict reachability oracle: ``has(u, v)`` iff a path of length >= 1
    leads from ``u`` to ``v`` (``u`` reaches itself only via a cycle)."""

    __slots__ = ("rows",)

    def __init__(self, rows: List[int]):
        self.rows = rows

    def has(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def reaches_any(self, u: int, targets: int) -> bool:
        """``targets`` is a bitmask of candidate vertices."""
        return bool(self.rows[u] & targets)

    def row(self, u: int) -> int:
        """The forward row of ``u`` as an int bitset."""
        return self.rows[u]


def transitive_closure_bits(n: int, succ: Sequence[Iterable[int]],
                            visible: Optional[int] = None) -> Reachability:
    """Exact strict transitive closure using bitset rows.

    Handles cyclic graphs by condensing SCCs first; members of a non-trivial
    SCC (or a vertex with a self-loop) reach themselves.

    With ``visible``, only nodes ``0 .. visible-1`` get a bit and a row:
    the rest are interior nodes that paths run through but that no row
    records — the hop nodes of
    :meth:`repro.core.known.KnownGraph.closure`.
    """
    if visible is None:
        visible = n
    sccs = tarjan_scc(n, succ)
    comp_of = [0] * n
    # Per component: ``reach`` is what it strictly reaches, ``closed``
    # that plus its own members — what a predecessor component inherits.
    # Tarjan emits SCCs in reverse topological order: every successor
    # component of sccs[i] appears at an index < i, so one forward pass
    # suffices.
    reach = [0] * len(sccs)
    closed = [0] * len(sccs)
    for cid, comp in enumerate(sccs):
        members = 0
        for v in comp:
            comp_of[v] = cid
            if v < visible:
                members |= 1 << v
        row = 0
        internal = len(comp) > 1
        for v in comp:
            for w in succ[v]:
                wc = comp_of[w]
                if wc == cid:
                    internal = True  # self-loop or intra-SCC edge
                else:
                    row |= closed[wc]
        if internal:
            row |= members
        reach[cid] = row
        closed[cid] = row | members

    return Reachability([reach[comp_of[v]] for v in range(visible)])


def transitive_closure_sets(n: int, succ: Sequence[Iterable[int]]) -> Reachability:
    """Naive per-node BFS closure over Python sets.

    This is the *unaccelerated* kernel: the stand-in for running Cobra's
    reachability without its GPU (see the CobraSI baseline).  Same results
    as :func:`transitive_closure_bits`, much larger constants.
    """
    rows: List[int] = []
    adj = [list(row) for row in succ]
    for src in range(n):
        seen: set = set()
        stack = list(adj[src])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adj[node])
        row = 0
        for node in seen:
            row |= 1 << node
        rows.append(row)
    return Reachability(rows)
