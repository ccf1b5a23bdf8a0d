"""Tests for generalized polygraph construction (repro.core.polygraph)."""

import pytest

from repro.core.history import History, HistoryBuilder, R, W
from repro.core.polygraph import (
    RW,
    SO,
    WR,
    WW,
    build_polygraph,
)
from repro.core.pruning import prune_constraints
from repro.workloads.corpus import make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history

from _helpers import build, long_fork_history, subgraph_reference


class TestKnownEdges:
    def test_so_covering_edges(self):
        h = build((0, [W("x", 1)]), (0, [W("x", 2)]), (0, [W("x", 3)]))
        graph, violations = build_polygraph(h)
        assert violations == []
        so = {(e[0], e[1]) for e in graph.known_by_label(SO)}
        assert so == {(0, 1), (1, 2)}  # covering pairs only

    def test_wr_edges_resolved_by_value(self):
        h = build([W("x", 1)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        wr = graph.known_by_label(WR)
        assert wr == [(0, 1, WR, "x")]
        assert graph.readers_from[(0, "x")] == [1]

    def test_aborted_txns_excluded(self):
        h = History.from_ops(
            [[[W("x", 1)]], [[W("x", 2)]]], aborted=[(1, 0)]
        )
        graph, _ = build_polygraph(h)
        assert graph.constraints == []  # only one committed writer

    def test_unjustified_read_reported(self):
        h = build([R("x", 42)])
        _graph, violations = build_polygraph(h)
        assert len(violations) == 1
        assert violations[0].axiom == "UnjustifiedRead"

    def test_future_read_reported(self):
        h = build([R("x", 1), W("x", 1)])
        _graph, violations = build_polygraph(h)
        assert violations[0].axiom == "FutureRead"


class TestInitVertex:
    def test_initial_read_materializes_init(self):
        h = build([R("x", None)], [W("x", 1)])
        graph, _ = build_polygraph(h)
        assert graph.init_vertex == 2
        assert graph.num_vertices == 3
        ww = graph.known_by_label(WW)
        assert (2, 1, WW, "x") in ww
        rw = graph.known_by_label(RW)
        assert (0, 1, RW, "x") in rw  # init reader anti-depends on writer

    def test_no_initial_reads_no_init_vertex(self):
        h = build([W("x", 1)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        assert graph.init_vertex is None
        assert graph.num_vertices == 2

    def test_init_vertex_name(self):
        h = build([R("x", None)])
        graph, _ = build_polygraph(h)
        assert graph.vertex_name(graph.init_vertex) == "T:init"


class TestConstraints:
    def test_pair_of_writers_yields_one_constraint(self):
        h = build([W("x", 1)], [W("x", 2)])
        graph, _ = build_polygraph(h)
        assert graph.num_constraints == 1
        (cons,) = graph.constraints
        assert cons.pair in ((0, 1), (1, 0))
        assert cons.either[0][2] == WW
        assert cons.orelse[0][2] == WW

    def test_constraint_includes_reader_rw_edges(self):
        h = build([W("x", 1)], [W("x", 2)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        (cons,) = graph.constraints
        branches = {cons.either, cons.orelse}
        # The branch ordering writer0 before writer1 must push reader 2
        # after... i.e. contain the RW edge (2, 1).
        rw_edges = {
            edge for branch in branches for edge in branch if edge[2] == RW
        }
        assert (2, 1, RW, "x") in rw_edges

    def test_reader_equal_to_other_writer_skipped(self):
        # Reader 1 also writes x: no RW self-edge may appear.
        h = build([W("x", 1)], [R("x", 1), W("x", 2)])
        graph, _ = build_polygraph(h)
        for cons in graph.constraints:
            for edge in cons.either + cons.orelse:
                assert edge[0] != edge[1]

    def test_three_writers_three_constraints(self):
        h = build([W("x", 1)], [W("x", 2)], [W("x", 3)])
        graph, _ = build_polygraph(h)
        assert graph.num_constraints == 3  # one per unordered pair

    def test_constraint_count_long_fork(self):
        graph, _ = build_polygraph(long_fork_history())
        # x has writers T0, T5, T1 -> 3 pairs; y has T0, T2 -> 1 pair.
        assert graph.num_constraints == 4

    def test_unknown_dep_count(self):
        h = build([W("x", 1)], [W("x", 2)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        assert graph.num_unknown_deps == 3  # WW + WW + one RW


class TestCompaction:
    def test_non_compact_generates_more_constraints(self):
        h = build([W("x", 1)], [W("x", 2)], [R("x", 1)], [R("x", 2)])
        compact, _ = build_polygraph(h, compact=True)
        expanded, _ = build_polygraph(h, compact=False)
        assert expanded.num_constraints > compact.num_constraints

    def test_non_compact_base_constraint_per_pair(self):
        h = build([W("x", 1)], [W("x", 2)])
        expanded, _ = build_polygraph(h, compact=False)
        # No readers: just the WW direction choice.
        assert expanded.num_constraints == 1

    def test_copy_independent(self):
        h = build([W("x", 1)], [W("x", 2)])
        graph, _ = build_polygraph(h)
        clone = graph.copy()
        clone.constraints = []
        clone.add_known((0, 1, WW, "x"))
        assert graph.num_constraints == 1
        assert (0, 1, WW, "x") not in graph.known_edges

    def test_add_known_dedupes(self):
        h = build([W("x", 1)])
        graph, _ = build_polygraph(h)
        before = len(graph.known_edges)
        graph.add_known((0, 0, SO, None))
        graph.add_known((0, 0, SO, None))
        assert len(graph.known_edges) == before + 1


def _polygraph_state(graph):
    """Everything a sub-polygraph carries, order included."""
    return {
        "num_vertices": graph.num_vertices,
        "init_vertex": graph.init_vertex,
        "history": graph.history,
        "known_edges": list(graph.known_edges),
        "known_set": set(graph.known_set),
        "constraints": [(cons.either, cons.orelse, cons.key, cons.pair)
                        for cons in graph.constraints],
        "labels": graph.labels,
        "txn_of": graph._txn_of,
        "readers_from": list(graph.readers_from.items()),
    }


def _assert_same_subgraph(graph, vertices):
    sub, old_of_new = graph.subgraph(vertices)
    want, want_old = subgraph_reference(graph, vertices)
    assert old_of_new == want_old
    assert _polygraph_state(sub) == _polygraph_state(want)
    # The bulk-assigned edge set keeps deduplicating later additions.
    assert not any(sub.add_known(edge) for edge in sub.known_edges[:1])
    return sub


class TestSubgraphMatchesReference:
    """``subgraph()`` renumbers through a list and assigns the known
    edges in bulk; its output must equal, field for field and in order,
    what the per-edge ``add_known`` implementation (kept in
    ``_helpers``) builds."""

    @staticmethod
    def graphs():
        for seed, keys in ((1, 6), (2, 40), (3, 200)):
            history = generate_history(
                WorkloadParams(sessions=5, txns_per_session=10,
                               ops_per_txn=4, keys=keys,
                               read_proportion=0.6),
                seed=seed, isolation="snapshot",
            ).history
            graph, violations = build_polygraph(history)
            assert not violations
            yield graph
            pruned = graph.copy()
            assert prune_constraints(pruned).ok
            yield pruned
        # Reads of the initial state: fragments need a local init copy.
        graph, _ = build_polygraph(
            make_anomaly("long-fork", seed=4, padding_txns=30))
        yield graph

    @pytest.mark.parametrize("index", range(7))
    def test_components_unions_and_fragments_of_fragments(self, index):
        graph = list(self.graphs())[index]
        components, constraints_of = graph.constrained_components()
        pure = [v for comp, cons in zip(components, constraints_of)
                if not cons for v in comp]
        constrained = [v for comp, cons in zip(components, constraints_of)
                       if cons for v in comp]
        selections = [comp for comp in components[:12]]
        selections += [sel for sel in (pure, constrained) if sel]
        selections.append([v for comp in components for v in comp])
        for vertices in selections:
            sub = _assert_same_subgraph(graph, vertices)
            # A fragment (labels set, maybe a local init) subgraphs again.
            inner = sub.weakly_connected_components()
            if inner:
                _assert_same_subgraph(sub, inner[0])


def islands_history(groups=3, violating=()):
    """``groups`` disjoint-key, disjoint-session islands.

    Groups listed in ``violating`` get a lost-update anomaly; the rest
    are valid and keep one blind write-write pair (a real constraint).
    """
    b = HistoryBuilder()
    for g in range(groups):
        key, s = f"k{g}", 3 * g
        if g in violating:
            b.txn(s, [W(key, (g, 4))])
            b.txn(s + 1, [R(key, (g, 4)), W(key, (g, 5))])
            b.txn(s + 2, [R(key, (g, 4)), W(key, (g, 13))])
        else:
            b.txn(s, [W(key, (g, 1))])
            b.txn(s + 1, [W(key, (g, 2))])
            b.txn(s + 2, [R(key, (g, 2))])
    return b.build()


class TestComponentDecomposition:
    """Weakly-connected components and subgraphs: no undesired cycle
    spans two components, so a fragment checks like its island."""

    def test_disjoint_islands_are_components(self):
        graph, anomalies = build_polygraph(islands_history(4))
        assert not anomalies
        components = graph.weakly_connected_components()
        assert len(components) == 4
        # Each component is one island's three transactions.
        assert [len(c) for c in components] == [3, 3, 3, 3]
        assert components[0] == [0, 1, 2]

    def test_shared_key_merges_components(self):
        h = build(
            [W("x", 1), W("shared", 10)],
            [W("y", 2), W("shared", 11)],
        )
        graph, _ = build_polygraph(h)
        assert len(graph.weakly_connected_components()) == 1

    def test_init_vertex_does_not_merge_components(self):
        # Both sessions read key z's initial state: WR edges from the
        # virtual init vertex must not glue the islands together.
        h = build(
            [R("z", None), W("a", 1)],
            [R("z", None), W("b", 1)],
        )
        graph, _ = build_polygraph(h)
        assert graph.init_vertex is not None
        components = graph.weakly_connected_components()
        assert len(components) == 2
        assert graph.init_vertex not in [v for c in components for v in c]

    def test_init_rw_edge_does_merge(self):
        # A real RW edge (reader of initial z -> writer of z) connects
        # transactions even though it was derived via init.
        h = build([R("z", None)], [W("z", 9)])
        graph, _ = build_polygraph(h)
        assert len(graph.weakly_connected_components()) == 1

    def test_subgraph_fragments_check_like_the_island(self):
        from repro.core.checker import PolySIChecker

        h = islands_history(3, violating=(1,))
        graph, _ = build_polygraph(h)
        checker = PolySIChecker()
        verdicts = []
        for comp in graph.weakly_connected_components():
            sub, old = graph.subgraph(comp)
            assert [sub.vertex_name(i) for i in range(len(old))] == [
                graph.vertex_name(v) for v in old
            ]
            verdicts.append(checker.check_polygraph(sub).satisfies_si)
        assert verdicts == [True, False, True]

    def test_subgraph_keeps_init_edges(self):
        h = build(
            [R("z", None), W("a", 1)],
            [W("z", 9)],
        )
        graph, _ = build_polygraph(h)
        comp = graph.weakly_connected_components()[0]
        sub, old = graph.subgraph(comp)
        assert sub.init_vertex is not None
        assert old[sub.init_vertex] == graph.init_vertex
        assert any(u == sub.init_vertex for u, _v, _l, _k in sub.known_edges)
