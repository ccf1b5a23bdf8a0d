"""Tests for the reachability kernels (repro.utils.reachability)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.utils.reachability import (
    is_acyclic,
    tarjan_scc,
    transitive_closure_bits,
    transitive_closure_sets,
)


def adj_from_edges(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    return adj


class TestTarjan:
    def test_empty_graph(self):
        assert tarjan_scc(0, []) == []

    def test_isolated_vertices(self):
        sccs = tarjan_scc(3, [[], [], []])
        assert sorted(map(tuple, sccs)) == [(0,), (1,), (2,)]

    def test_simple_cycle(self):
        sccs = tarjan_scc(3, adj_from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert len(sccs) == 1
        assert sorted(sccs[0]) == [0, 1, 2]

    def test_chain_emits_reverse_topological(self):
        sccs = tarjan_scc(3, adj_from_edges(3, [(0, 1), (1, 2)]))
        # Every successor SCC appears before its predecessors.
        positions = {tuple(c)[0]: i for i, c in enumerate(sccs)}
        assert positions[2] < positions[1] < positions[0]

    def test_two_components(self):
        edges = [(0, 1), (1, 0), (2, 3)]
        sccs = tarjan_scc(4, adj_from_edges(4, edges))
        sizes = sorted(len(c) for c in sccs)
        assert sizes == [1, 1, 2]


class TestIsAcyclic:
    def test_dag(self):
        assert is_acyclic(3, adj_from_edges(3, [(0, 1), (1, 2), (0, 2)]))

    def test_cycle(self):
        assert not is_acyclic(2, adj_from_edges(2, [(0, 1), (1, 0)]))

    def test_self_loop(self):
        assert not is_acyclic(1, adj_from_edges(1, [(0, 0)]))

    def test_empty(self):
        assert is_acyclic(0, [])


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=20))
    edges = set()
    for _ in range(m):
        edges.add((
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        ))
    return n, sorted(edges)


def reference_reachability(n, edges):
    """Strict reachability via networkx descendants."""
    graph = nx.DiGraph(edges)
    graph.add_nodes_from(range(n))
    out = {}
    for u in range(n):
        desc = nx.descendants(graph, u)
        # networkx descendants exclude u itself; u reaches u via a cycle.
        if u in desc or any(
            u in nx.descendants(graph, v) for v in graph.successors(u)
        ) or (u, u) in graph.edges:
            desc = desc | {u}
        out[u] = desc
    return out


class TestClosures:
    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_bits_matches_networkx(self, instance):
        n, edges = instance
        reach = transitive_closure_bits(n, adj_from_edges(n, edges))
        want = reference_reachability(n, edges)
        for u in range(n):
            got = {v for v in range(n) if reach.has(u, v)}
            assert got == want[u], (edges, u)

    @given(digraphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_visible_prefix_is_the_full_closure_masked(self, instance, data):
        """Nodes past ``visible`` carry paths but get no bit and no
        row: what is left is the full closure's first rows, masked."""
        n, edges = instance
        adj = adj_from_edges(n, edges)
        k = data.draw(st.integers(min_value=0, max_value=n))
        full = transitive_closure_bits(n, adj).rows
        mask = (1 << k) - 1
        got = transitive_closure_bits(n, adj, visible=k).rows
        assert got == [row & mask for row in full[:k]]
        assert transitive_closure_bits(n, adj, visible=n).rows == full

    @given(digraphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_as_the_walk_emits_them_equal_the_search(self, instance,
                                                          data):
        """The closure computes each component's row inside the Tarjan
        walk: the rows are the per-vertex search's, on graphs with
        cycles, self-loops and ``visible < n``, and ``is_acyclic``
        (the same walk) agrees with their diagonal."""
        n, edges = instance
        adj = adj_from_edges(n, edges)
        k = data.draw(st.integers(min_value=0, max_value=n))
        want = transitive_closure_sets(n, adj).rows
        assert transitive_closure_bits(n, adj).rows == want
        mask = (1 << k) - 1
        assert (transitive_closure_bits(n, adj, visible=k).rows
                == [row & mask for row in want[:k]])
        assert is_acyclic(n, adj) == (
            not any(row >> v & 1 for v, row in enumerate(want)))

    def test_reaches_any_bitmask(self):
        reach = transitive_closure_bits(3, adj_from_edges(3, [(0, 1), (1, 2)]))
        assert reach.reaches_any(0, (1 << 2))
        assert not reach.reaches_any(2, (1 << 0) | (1 << 1))
