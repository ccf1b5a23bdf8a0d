"""Tests for the SAT encoding of the induced SI graph (repro.core.encoding)."""

from repro.core.encoding import encode_polygraph, graph_constraints
from repro.core.history import HistoryBuilder, R, W
from repro.core.polygraph import RW, WW, build_polygraph
from repro.core.pruning import prune_constraints

from _helpers import build, long_fork_history, write_skew_history


class TestStaticPart:
    def test_static_cycle_detected_without_solving(self):
        # Known-edge cycle: T0 -WR-> T1 (x), T1 -WR-> T0 (y).
        h = build([R("y", 2), W("x", 1)], [R("x", 1), W("y", 2)])
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        assert enc.static_cycle
        assert enc.solver is None

    def test_acyclic_known_graph_builds_solver(self):
        h = build([W("x", 1)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        assert not enc.static_cycle
        assert enc.solver is not None

    def test_no_constraints_no_variables(self):
        h = build([W("x", 1)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        assert enc.solver.num_vars == 0
        assert enc.solver.solve()

    def test_static_induced_edges_counted(self):
        h = build([W("x", 1)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        assert enc.num_static_induced_edges >= 1


class TestVariablePart:
    def test_constraint_vars_created(self):
        h = build([W("x", 1)], [W("x", 2)])
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        # One choice var plus two WW pair vars.
        assert len(enc.choice_var) == 1
        assert len(enc.dep_var) == 2
        assert enc.solver.solve()

    def test_rw_vars_created_for_readers(self):
        h = build([W("x", 1)], [W("x", 2)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        assert len(enc.rw_var) == 1  # reader 2 -> writer 1

    def test_write_skew_is_sat(self):
        graph, _ = build_polygraph(write_skew_history())
        prune_constraints(graph)
        enc = encode_polygraph(graph)
        assert not enc.static_cycle
        assert enc.solver.solve()

    def test_long_fork_static_cycle_after_pruning(self):
        graph, _ = build_polygraph(long_fork_history())
        assert prune_constraints(graph).ok
        enc = encode_polygraph(graph)
        # Pruning promoted enough RW edges that the known induced graph is
        # itself cyclic: no solving required.
        assert enc.static_cycle

    def test_long_fork_unsat_and_cycle_extracted_without_pruning(self):
        graph, _ = build_polygraph(long_fork_history())
        enc = encode_polygraph(graph)
        assert not enc.static_cycle
        assert not enc.solver.solve()
        cycle = enc.violation_cycle(graph.known_edges,
                                    graph_constraints(graph))
        assert cycle is not None
        # Figure 3(e): the witness alternates WR and RW over x and y.
        labels = [e[2] for e in cycle]
        assert labels.count(RW) >= 1
        for (edge, nxt) in zip(cycle, cycle[1:] + cycle[:1]):
            assert edge[1] == nxt[0]

    def test_lost_update_unsat_via_solver(self):
        from _helpers import lost_update_history

        graph, _ = build_polygraph(lost_update_history())
        assert prune_constraints(graph).ok
        enc = encode_polygraph(graph)
        assert not enc.static_cycle
        assert not enc.solver.solve()
        cycle = enc.violation_cycle(graph.known_edges,
                                    graph_constraints(graph))
        assert cycle is not None

    def test_resolved_edges_cover_known_and_branches(self):
        h = build([W("x", 1)], [W("x", 2)])
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        assert enc.solver.solve()
        edges = enc.resolved_edges(enc.solver, graph.known_edges,
                                   graph_constraints(graph))
        ww = [e for e in edges if e[2] == WW]
        assert len(ww) == 1  # exactly one branch chosen

    def test_stats_shape(self):
        graph, _ = build_polygraph(long_fork_history())
        enc = encode_polygraph(graph)
        stats = enc.stats()
        assert set(stats) == {
            "vars", "clauses", "induced_edges", "static_induced_edges",
            "aux_vars",
        }
        assert stats["vars"] > 0


class TestInducedSelfLoops:
    def test_dep_rw_self_composition_rejected(self):
        """A resolution where dep(u,k) and rw(k,u) both hold induces a
        self-loop on u, which the theory must reject."""
        # T1 reads x from T0; pair (T0, T2) on x: branch "T0 first" forces
        # RW(T1 -> T2).  Make T2 -> T1 a known dep via session order, so
        # that branch induces the cycle T2 -SO-> T1 -RW-> T2.
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [W("x", 2)])         # T2 (tid 1)
        b.txn(1, [R("x", 1)])         # T1 (tid 2), after T2 in session
        h = b.build()
        graph, _ = build_polygraph(h)
        enc = encode_polygraph(graph)
        # Still satisfiable: solver must pick WW(writer2 -> writer0)... or
        # the opposite; at least one branch avoids the loop.
        assert enc.solver.solve()
        edges = enc.resolved_edges(enc.solver, graph.known_edges,
                                   graph_constraints(graph))
        assert (0, 1, WW, "x") in edges or (1, 0, WW, "x") in edges
