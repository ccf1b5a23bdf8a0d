"""Stress tests for the Pearce-Kelly acyclicity theory under realistic
solver interaction patterns: interleaved assertions and backtracks.

The theory's trickiest invariant is that the topological order stays
valid across arbitrary assert/backtrack sequences (removals keep any
valid order valid; insertions locally reorder).  These tests drive random
operation sequences and compare every answer against networkx on the
reconstructed edge set.

A last mode drives the theory through the real search the way the SI
encoder does: every edge variable derived (``decision=False``), only
choice variables decided.
"""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.solver.graph import AcyclicityTheory
from repro.solver.monosat import AcyclicGraphSolver


def _would_be_acyclic(edges, new_edge) -> bool:
    graph = nx.DiGraph(list(edges))
    graph.add_edge(*new_edge)
    return nx.is_directed_acyclic_graph(graph)


@st.composite
def operation_scripts(draw):
    """A random script of assert/backtrack operations over a small graph."""
    n = draw(st.integers(min_value=2, max_value=6))
    length = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(length):
        if draw(st.booleans()):
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            ops.append(("assert", u, v))
        else:
            ops.append(("backtrack", draw(st.integers(min_value=0, max_value=length))))
    return n, ops


class TestRandomScripts:
    @given(operation_scripts())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_on_every_step(self, script):
        n, ops = script
        theory = AcyclicityTheory(n)
        var_counter = 0
        # Reference state: list of (u, v, trail_pos) currently asserted.
        reference = []
        trail_pos = 0
        for op in ops:
            if op[0] == "assert":
                _tag, u, v = op
                var_counter += 1
                theory.register_edge(var_counter, u, v)
                current_edges = [(a, b) for a, b, _p in reference]
                want_ok = u != v and _would_be_acyclic(current_edges, (u, v))
                conflict = theory.assert_var(var_counter, trail_pos)
                if want_ok:
                    assert conflict is None, (ops, op)
                    reference.append((u, v, trail_pos))
                else:
                    assert conflict is not None, (ops, op)
                    assert var_counter in conflict
                trail_pos += 1
            else:
                _tag, level = op
                theory.backtrack(level)
                reference = [e for e in reference if e[2] < level]
                trail_pos = max(trail_pos, level)
        # Final state agrees.
        got = {(u, v) for u, v, _var in theory.current_edges()}
        want = {(u, v) for u, v, _p in reference}
        assert got == want

    @given(operation_scripts())
    @settings(max_examples=100, deadline=None)
    def test_conflicts_are_real_cycles(self, script):
        """Every conflict the theory reports must name edges that actually
        form a cycle together with the rejected edge."""
        n, ops = script
        theory = AcyclicityTheory(n)
        var_counter = 0
        edge_of = {}
        reference = []
        trail_pos = 0
        for op in ops:
            if op[0] == "assert":
                _tag, u, v = op
                var_counter += 1
                theory.register_edge(var_counter, u, v)
                edge_of[var_counter] = (u, v)
                conflict = theory.assert_var(var_counter, trail_pos)
                if conflict is None:
                    reference.append((u, v, trail_pos))
                else:
                    cycle_edges = [edge_of[var] for var in conflict]
                    graph = nx.DiGraph(cycle_edges)
                    assert not nx.is_directed_acyclic_graph(graph), (
                        ops, conflict, cycle_edges,
                    )
                trail_pos += 1
            else:
                _tag, level = op
                theory.backtrack(level)
                reference = [e for e in reference if e[2] < level]
                trail_pos = max(trail_pos, level)


class TestStaticSubstrateScripts:
    @given(operation_scripts(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_with_random_static_dag(self, script, static_seed):
        n, ops = script
        rng = random.Random(static_seed)
        # Random DAG respecting vertex order (always acyclic).
        static_edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            static_edges.add((u, v))
        static_adj = [[] for _ in range(n)]
        for u, v in static_edges:
            static_adj[u].append(v)

        theory = AcyclicityTheory(n, static_adj=static_adj)
        var_counter = 0
        reference = []
        trail_pos = 0
        for op in ops:
            if op[0] == "assert":
                _tag, u, v = op
                var_counter += 1
                theory.register_edge(var_counter, u, v)
                current = list(static_edges) + [
                    (a, b) for a, b, _p in reference
                ]
                want_ok = u != v and _would_be_acyclic(current, (u, v))
                conflict = theory.assert_var(var_counter, trail_pos)
                assert (conflict is None) == want_ok, (ops, op, static_edges)
                if conflict is None:
                    reference.append((u, v, trail_pos))
                trail_pos += 1
            else:
                _tag, level = op
                theory.backtrack(level)
                reference = [e for e in reference if e[2] < level]
                trail_pos = max(trail_pos, level)


class TestTheoryUnderNonDecisionEdges:
    """Random edge sets through the real search: every edge variable
    is derived (``decision=False``) from a per-edge choice variable,
    which alone is decided."""

    @given(st.integers(min_value=2, max_value=6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.booleans()), min_size=1, max_size=14),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx(self, n, raw_edges, seed):
        rng = random.Random(seed)
        edges = [(u % n, v % n, forced) for u, v, forced in raw_edges]
        solver = AcyclicGraphSolver(n)
        forced_edges = []
        for u, v, forced in edges:
            choice = solver.new_var(phase=rng.random() < 0.5)
            edge = solver.new_var(decision=False)
            solver.add_edge(edge, u, v)
            solver.add_clause([-choice, edge])
            if forced:
                solver.add_clause([choice])
                forced_edges.append((u, v))
        want = nx.is_directed_acyclic_graph(nx.DiGraph(forced_edges)) \
            and all(u != v for u, v in forced_edges)
        assert solver.solve() == want
        if want:
            graph = nx.DiGraph([(u, v) for u, v, _var in solver.true_edges()])
            assert nx.is_directed_acyclic_graph(graph)
            assert set(forced_edges) <= set(graph.edges)
