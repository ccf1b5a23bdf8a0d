"""Graph reachability kernels used by constraint pruning (Section 4.3).

The paper computes reachability of the known induced graph with
Floyd–Warshall (O(n^3)).  In Python that is prohibitively slow, so the
default kernel condenses strongly connected components in one iterative
Tarjan walk and computes each component's *bitset* reachability row
(an arbitrary-precision int) as the walk emits it, in reverse
topological order — O(n * E / 64) in practice and exact.  It
also stands in for Cobra's GPU-accelerated closure (see DESIGN.md,
substitution 3).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "tarjan_scc",
    "transitive_closure_bits",
    "transitive_closure_sets",
    "is_acyclic",
    "Reachability",
]


def is_acyclic(n: int, succ: "Sequence[Iterable[int]]") -> bool:
    """True iff the graph has no directed cycle (self-loops included)."""
    return not any(cyclic for _comp, cyclic, _row in _condense(n, succ, 0))


def tarjan_scc(n: int, succ: Sequence[Iterable[int]]) -> List[List[int]]:
    """Strongly connected components, emitted in reverse topological order.

    ``succ[u]`` lists the successors of vertex ``u``.
    """
    return [comp for comp, _cyclic, _row in _condense(n, succ, 0)]


def _condense(n: int, succ: Sequence[Iterable[int]],
              visible: int) -> Iterator[Tuple[List[int], bool, int]]:
    """The one Tarjan walk: ``(members, cyclic, row)`` per strongly
    connected component, in the order Tarjan emits them (reverse
    topological).  ``cyclic``: more than one member, or a self-loop.
    ``row``: the bits of the vertices below ``visible`` the component
    strictly reaches.

    Iterative (explicit stack), so deep graphs do not hit the recursion
    limit.  The rows come out of the same walk: every successor
    component is emitted before the component itself, so an edge into a
    finished vertex ORs in that vertex's component row plus members
    (``row[w]`` once ``w`` is finished), and a vertex leaving the DFS
    path hands its parent what its subtree reached — its own row plus
    members if it closed a component, else what it accumulated, which
    ends at the component's root.  No edge is walked twice.
    """
    index = [0] * n         # DFS number; 0 while unvisited
    low = [0] * n
    on_stack = bytearray(n)
    into_stack = bytearray(n)   # an edge to a vertex on the stack
    row = [0] * n
    stack: List[int] = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = 1
        # Each frame is (vertex, iterator over its successors).
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    # w is in v's component (w == v: a self-loop).
                    into_stack[v] = 1
                    if index[w] < low[v]:
                        low[v] = index[w]
                else:
                    row[v] |= row[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    members = 0
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                        if w < visible:
                            members |= 1 << w
                        if w == v:
                            break
                    reach = row[v]
                    cyclic = len(comp) > 1 or bool(into_stack[v])
                    if cyclic:
                        reach |= members
                    closed = reach | members
                    for w in comp:
                        row[w] = closed
                    yield comp, cyclic, reach
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    row[parent] |= row[v]


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

    Handles cyclic graphs by condensing SCCs, each component's row
    computed as the walk emits it; members of a non-trivial SCC (or a
    vertex with a self-loop) reach themselves.

    With ``visible``, only nodes ``0 .. visible-1`` get a bit and a row:
    the rest are interior nodes that paths run through but that no row
    records — the hop nodes of
    :meth:`repro.core.known.KnownGraph.closure`.
    """
    if visible is None:
        visible = n
    rows = [0] * visible
    for comp, _cyclic, reach in _condense(n, succ, visible):
        for v in comp:
            if v < visible:
                rows[v] = reach
    return Reachability(rows)


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
