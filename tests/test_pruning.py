"""Tests for constraint pruning (repro.core.pruning)."""

from repro.core.history import HistoryBuilder, R, W
from repro.core.polygraph import RW, WW, build_polygraph
from repro.core.pruning import find_known_cycle, prune_constraints
from repro.workloads.generator import WorkloadParams, generate_history

from _helpers import build, long_fork_history, lost_update_history


class TestBasicPruning:
    def test_rmw_resolves_ww_direction(self):
        # Reader-writer: T1 reads x from T0 and writes x, so WW(T1, T0) is
        # impossible (it would close a cycle with WR(T0, T1)).
        h = build([W("x", 1)], [R("x", 1), W("x", 2)])
        graph, _ = build_polygraph(h)
        result = prune_constraints(graph)
        assert result.ok
        assert graph.constraints == []
        assert (0, 1, WW, "x") in graph.known_edges

    def test_session_order_resolves_direction(self):
        # Same session: T0 before T5 on x (Figure 3b).
        h = build((0, [W("x", 1)]), (0, [W("x", 2)]))
        graph, _ = build_polygraph(h)
        result = prune_constraints(graph)
        assert result.ok
        assert graph.constraints == []
        assert (0, 1, WW, "x") in graph.known_edges

    def test_unresolvable_pair_stays(self):
        # Two unrelated blind writers: neither direction is impossible.
        h = build([W("x", 1)], [W("x", 2)])
        graph, _ = build_polygraph(h)
        result = prune_constraints(graph)
        assert result.ok
        assert graph.num_constraints == 1

    def test_iterates_to_fixpoint(self):
        # T0 -> T1 resolution (via RMW) enables T1 -> T2 resolution.
        h = build(
            [W("x", 1)],
            [R("x", 1), W("x", 2)],
            [R("x", 2), W("x", 3)],
        )
        graph, _ = build_polygraph(h)
        result = prune_constraints(graph)
        assert result.ok
        assert graph.constraints == []
        assert result.iterations >= 1
        assert (1, 2, WW, "x") in graph.known_edges

    def test_long_fork_fully_pruned(self):
        """On Figure 3's history the fixpoint iteration resolves every
        constraint: the promoted RW edges make the known induced graph
        itself cyclic, so the violation surfaces at encoding time."""
        graph, _ = build_polygraph(long_fork_history())
        result = prune_constraints(graph)
        assert result.ok  # pruning resolves; it does not decide here
        assert result.constraints_before == 4
        assert result.constraints_after == 0
        cycle = find_known_cycle(graph.known_edges)
        assert cycle is not None
        assert sorted(e[2] for e in cycle) == ["RW", "RW", "WR", "WR"]

    def test_stats_counts(self):
        graph, _ = build_polygraph(lost_update_history())
        result = prune_constraints(graph)
        stats = result.as_dict()
        assert stats["constraints_before"] >= stats["constraints_after"]
        assert stats["unknown_deps_before"] >= stats["unknown_deps_after"]


def both_branches_impossible_history():
    """Both orders of the x-writers close a cycle through *session*
    predecessors of their readers, so pruning itself detects the
    contradiction (Algorithm 2 line 57/65), before any solving.

    Either branch: RW(r1 -> T2) composes with SO(S1 -> r1) while
    WR(T2 -> S1) already links T2 to S1; the or branch is symmetric.
    """
    b = HistoryBuilder()
    b.txn(0, [W("x", 1), W("m1", 1)])       # T1
    b.txn(1, [W("x", 2), W("m2", 1)])       # T2
    b.txn(2, [R("m2", 1)])                  # S1 observes T2
    b.txn(2, [R("x", 1)])                   # r1 then reads T1's x
    b.txn(3, [R("m1", 1)])                  # S2 observes T1
    b.txn(3, [R("x", 2)])                   # r2 then reads T2's x
    return b.build()


class TestPruningViolations:
    def test_lost_update_left_to_solver(self):
        """Lost update is *not* decided by pruning (Figure 4's rules do not
        fire); the paper's Figure 5 cycle likewise comes from MonoSAT."""
        graph, _ = build_polygraph(lost_update_history())
        result = prune_constraints(graph)
        assert result.ok
        assert result.constraints_after == 1

    def test_both_branches_impossible(self):
        graph, _ = build_polygraph(both_branches_impossible_history())
        result = prune_constraints(graph)
        assert not result.ok
        assert result.violation_constraint is not None
        assert result.violation_cycle is not None

    def test_violation_cycle_is_closed(self):
        graph, _ = build_polygraph(both_branches_impossible_history())
        result = prune_constraints(graph)
        cycle = result.violation_cycle
        for (edge, nxt) in zip(cycle, cycle[1:] + cycle[:1]):
            assert edge[1] == nxt[0], cycle

    def test_violation_cycle_has_no_adjacent_rw(self):
        graph, _ = build_polygraph(both_branches_impossible_history())
        cycle = prune_constraints(graph).violation_cycle
        labels = [e[2] for e in cycle]
        for a, b in zip(labels, labels[1:] + labels[:1]):
            assert not (a == RW and b == RW)

    def test_checker_reports_pruning_stage(self):
        from repro.core.checker import PolySIChecker

        res = PolySIChecker().check(both_branches_impossible_history())
        assert not res.satisfies_si
        assert res.decided_by == "pruning"


class TestFindKnownCycle:
    def test_no_cycle_returns_none(self):
        h = build([W("x", 1)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        assert find_known_cycle(graph.known_edges) is None

    def test_extra_edges_close_cycle(self):
        h = build([W("x", 1)], [R("x", 1)])
        graph, _ = build_polygraph(h)
        cycle = find_known_cycle(graph.known_edges, [(1, 0, WW, "x")])
        assert cycle is not None
        assert {(e[0], e[1]) for e in cycle} == {(0, 1), (1, 0)}

    def test_composed_rw_hop_expanded(self):
        # WR(0->1), RW(1->2), WW(2->0): induced cycle includes the RW hop
        # expanded as two typed edges.
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [R("x", 1)])
        b.txn(2, [W("x", 2)])
        graph, _ = build_polygraph(b.build())
        cycle = find_known_cycle(
            graph.known_edges, [(1, 2, RW, "x"), (2, 0, WW, "x")]
        )
        assert cycle is not None
        labels = [e[2] for e in cycle]
        assert RW in labels


class TestPruningEffectiveness:
    def test_workload_pruning_ratio(self):
        """On generated valid workloads, pruning eliminates the vast
        majority of constraints (Table 3's headline behaviour)."""
        params = WorkloadParams(
            sessions=6, txns_per_session=15, ops_per_txn=6, keys=60
        )
        run = generate_history(params, seed=5)
        graph, _ = build_polygraph(run.history)
        result = prune_constraints(graph)
        assert result.ok
        assert result.constraints_before > 0
        ratio = result.constraints_after / result.constraints_before
        assert ratio < 0.25, (
            result.constraints_before, result.constraints_after
        )
