"""White-box tests for the interpretation algorithm internals."""

from repro.core.checker import PolySIChecker
from repro.core.history import HistoryBuilder, R, W
from repro.core.polygraph import RW, WW, build_polygraph
from repro.interpret.interpretation import (
    _index_constraints,
    _potential_adjacency,
    _shortest_cycle_through,
    interpret_violation,
)

from _helpers import long_fork_history, lost_update_history


class TestConstraintIndex:
    def test_every_constraint_edge_indexed(self):
        graph, _ = build_polygraph(lost_update_history())
        index = _index_constraints(graph)
        for cons in graph.constraints:
            for edge in cons.either:
                assert index[edge][0] is cons
                assert index[edge][1] == "either"
            for edge in cons.orelse:
                assert index[edge][0] is cons
                assert index[edge][1] == "orelse"


class TestPotentialAdjacency:
    def test_includes_known_and_constraint_edges(self):
        graph, _ = build_polygraph(lost_update_history())
        adj = _potential_adjacency(graph)
        all_edges = {e for edges in adj.values() for e in edges}
        for edge in graph.known_edges:
            assert edge in all_edges
        for cons in graph.constraints:
            for edge in cons.either + cons.orelse:
                assert edge in all_edges

    def test_adjacency_keyed_by_source(self):
        graph, _ = build_polygraph(lost_update_history())
        adj = _potential_adjacency(graph)
        for src, edges in adj.items():
            assert all(e[0] == src for e in edges)


class TestShortestCycleThrough:
    def test_finds_two_cycle(self):
        adj = {
            0: [(0, 1, WW, "x")],
            1: [(1, 0, WW, "x")],
        }
        cycle = _shortest_cycle_through(adj, (0, 1, WW, "x"))
        assert cycle is not None
        assert len(cycle) == 2
        assert cycle[0] == (0, 1, WW, "x")

    def test_prefers_shortest_path_back(self):
        adj = {
            0: [(0, 1, WW, "x")],
            1: [(1, 0, RW, "x"), (1, 2, WW, "x")],
            2: [(2, 0, WW, "x")],
        }
        cycle = _shortest_cycle_through(adj, (0, 1, WW, "x"))
        assert len(cycle) == 2  # via the direct back-edge, not via 2

    def test_none_when_unreachable(self):
        adj = {0: [(0, 1, WW, "x")]}
        assert _shortest_cycle_through(adj, (0, 1, WW, "x")) is None

    def test_self_loop_edge(self):
        cycle = _shortest_cycle_through({}, (3, 3, RW, "x"))
        assert cycle == [(3, 3, RW, "x")]


class TestAdjoiningCycles:
    def test_acs_contains_primary_cycle(self):
        result = PolySIChecker().check(lost_update_history())
        example = interpret_violation(result)
        assert example.acs_cycles
        assert example.acs_cycles[0] == list(result.cycle)

    def test_acs_covers_opposite_branches(self):
        """For each constraint used by the primary cycle, an adjoining
        cycle exercising the opposite branch must be present (Appendix E:
        minimal violations are complete adjoining cycle sets)."""
        result = PolySIChecker().check(lost_update_history())
        example = interpret_violation(result)
        graph = result.polygraph
        index = _index_constraints(graph)
        used = set()
        for edge in example.cycle:
            hit = index.get(edge)
            if hit:
                used.add(id(hit[0]))
        # Every used constraint appears via some edge in later acs cycles
        # or was resolved as certain.
        covered = set()
        for cycle in example.acs_cycles[1:]:
            for edge in cycle:
                hit = index.get(edge)
                if hit:
                    covered.add(id(hit[0]))
        resolved_certain = {
            id(index[e][0]) for e in example.resolved
            if e in index and example.resolved[e] == "certain"
        }
        assert used <= covered | resolved_certain


class TestStageMonotonicity:
    def test_certain_edges_never_downgraded(self):
        result = PolySIChecker().check(long_fork_history())
        example = interpret_violation(result)
        for edge, status in example.recovered.items():
            if status == "certain":
                assert example.resolved.get(edge) == "certain"

    def test_finalized_subset_of_certain(self):
        result = PolySIChecker().check(long_fork_history())
        example = interpret_violation(result)
        for edge in example.finalized:
            assert example.resolved.get(edge, "certain") == "certain"
