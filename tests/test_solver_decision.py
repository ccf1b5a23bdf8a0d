"""The search decides constraint choices only (DESIGN.md S4).

``CDCLSolver.new_var(decision=, phase=)`` has MiniSat's meaning; the SI
encoder allocates every edge and gate variable ``decision=False`` and
seeds each choice's phase from the theory's topological order.  Three
things are pinned here:

- the solver honours the two settings (unit tests on ``CDCLSolver``);
- the encoder's clause shapes meet the contract a non-decision variable
  needs — after a SAT answer, "unassigned means false" is a model, with
  an acyclic edge set — on instances the sliced-encoding sweep of
  ``test_encoding_incremental.py`` does not reach: list-append
  polygraphs and an unpruned history with over a thousand constraints
  and tens of thousands of derived variables in the search;
- the answer is the all-decision search's answer on the same instance.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import encode_polygraph, graph_constraints
from repro.core.polygraph import build_polygraph
from repro.listappend import build_list_polygraph, generate_list_history
from repro.solver.cdcl import CDCLSolver
from repro.solver.monosat import AcyclicGraphSolver
from repro.storage.faults import FaultConfig
from repro.workloads.generator import WorkloadParams, generate_history

from _helpers import (
    assert_completion_is_a_model,
    assert_valid_witness,
    decision_vars,
    solve_under_contract,
)


class TestDecisionAndPhase:
    def test_default_new_var_decides_everything_false_first(self):
        s = CDCLSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve()
        assert s.stats.decisions == 1       # one decision, then b is unit
        assert [s.values[a], s.values[b]] in ([-1, 1], [1, -1])

    def test_non_decision_variable_is_never_picked(self):
        s = CDCLSolver()
        free = [s.new_var(decision=False) for _ in range(5)]
        choice = s.new_var()
        assert s.solve()
        assert s.stats.decisions == 1
        assert s.values[choice] != 0
        assert all(s.values[var] == 0 for var in free)
        assert not any(s.model_value(var) for var in free)

    def test_non_decision_variable_is_assigned_by_propagation(self):
        s = CDCLSolver()
        choice = s.new_var(phase=True)
        forced, idle = s.new_var(decision=False), s.new_var(decision=False)
        s.add_clause([-choice, forced])
        s.add_clause([-idle, choice])       # idle false satisfies it
        assert s.solve()
        assert s.stats.decisions == 1
        assert s.model_value(choice) and s.model_value(forced)
        assert s.values[idle] == 0

    def test_phase_is_the_first_decision(self):
        for phase in (False, True):
            s = CDCLSolver()
            var = s.new_var(phase=phase)
            assert s.solve()
            assert s.model_value(var) is phase

    def test_phase_saving_overwrites_the_initial_phase(self):
        s = CDCLSolver()
        a = s.new_var(phase=True)
        b = s.new_var(decision=False)
        s.add_clause([-a, b])
        s.add_clause([-a, -b])              # a = true is a conflict
        assert s.solve()
        assert not s.model_value(a)
        assert s.stats.conflicts == 1
        assert s.phase[a] is False
        conflicts = s.stats.conflicts
        assert s.solve()                    # re-decides by the saved phase
        assert s.stats.conflicts == conflicts

    def test_set_decision_var_joins_the_search(self):
        s = CDCLSolver()
        var = s.new_var(decision=False)
        s.set_decision_var(var, True)
        assert s.solve()
        assert s.stats.decisions == 1 and s.model_value(var)

    @given(st.lists(st.lists(st.integers(min_value=-6, max_value=6)
                             .filter(bool), min_size=1, max_size=3),
                    min_size=1, max_size=14),
           st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_phases_never_change_the_answer(self, clauses, phases):
        plain, seeded = CDCLSolver(), CDCLSolver()
        for phase in phases:
            plain.new_var()
            seeded.new_var(phase=phase)
        for clause in clauses:
            plain.add_clause(list(clause))
            seeded.add_clause(list(clause))
        assert plain.solve() == seeded.solve()

    def test_facade_forwards_both_settings_and_reads_the_order(self):
        s = AcyclicGraphSolver(3, static_adj=[[1], [2], []])
        assert s.precedes(0, 2) and not s.precedes(2, 0)
        derived = s.new_var(decision=False)
        choice = s.new_var(phase=True)
        s.add_edge(derived, 2, 0)           # would close 0 -> 1 -> 2 -> 0
        assert decision_vars(s) == {choice}
        assert s.solve() and s.model_value(choice)
        assert s.stats.decisions == 1 and s.true_edges() == []
        assert s.stats.as_dict()["theory_checks"] == 0


def _list_history(seed):
    """Mostly appends, few reads: unobserved appenders leave pure-WW
    constraints for the search."""
    return generate_list_history(
        WorkloadParams(sessions=4, txns_per_session=8, ops_per_txn=3,
                       keys=3, read_proportion=0.2),
        seed=seed, faults=FaultConfig(stale_snapshot_prob=0.3,
                                      stale_snapshot_depth=3) if seed % 2
        else None)


class TestEncoderMeetsTheContract:
    @pytest.mark.parametrize("seed", range(8))
    def test_list_append_polygraphs(self, seed):
        graph, violations, _view = build_list_polygraph(_list_history(seed))
        assert not violations and graph.constraints
        enc = encode_polygraph(graph)
        assert decision_vars(enc.solver) == set(enc.choice_var.values())
        if not solve_under_contract(enc, encode_polygraph(graph)):
            assert_valid_witness(
                enc.violation_cycle(graph.known_edges,
                                    graph_constraints(graph)), graph)

    def test_unpruned_search_over_tens_of_thousands_of_variables(self):
        """Without pruning every constraint reaches the search: 1 350 of
        them here, under 64 000 variables of which the search may touch
        1 350.  (The all-decision twin needs ~40 s at this size; the
        sliced-encoding sweep runs it on the smaller unpruned inputs.)"""
        history = generate_history(
            WorkloadParams(sessions=6, txns_per_session=30, ops_per_txn=5,
                           keys=8, read_proportion=0.5),
            seed=2, isolation="snapshot").history
        graph, violations = build_polygraph(history)
        assert not violations and len(graph.constraints) > 1_000
        enc = encode_polygraph(graph)
        solver = enc.solver
        assert solver.num_vars > 20 * len(enc.choice_var) > 20_000
        assert decision_vars(solver) == set(enc.choice_var.values())
        assert len(enc.choice_var) == len(graph.constraints)
        assert solver.solve()
        # Choices only: at most one decision per choice between two
        # conflicts (or restarts).
        stats = solver.stats
        assert stats.decisions <= len(enc.choice_var) * (
            stats.conflicts + stats.restarts + 1)
        assert_completion_is_a_model(solver)


class TestOrderSeededPhase:
    def test_first_phase_follows_the_topological_order(self):
        """Two writers of x with a known path between them through y:
        the choice's first phase is the branch that agrees with it."""
        from repro.core.history import HistoryBuilder, R, W

        for first in (1, 2):
            b = HistoryBuilder()
            b.txn(0, [W("x", 0), W("y", 0)])
            b.txn(first, [R("y", 0), W("y", 1), W("x", first)])
            b.txn(3 - first, [R("y", 1), W("x", 3 - first)])
            graph, violations = build_polygraph(b.build())
            assert not violations
            enc = encode_polygraph(graph)
            solver = enc.solver
            assert enc.choice_var
            for (index,), cvar in enc.choice_var.items():
                u, v = graph.constraints[index].either[0][:2]
                assert solver._solver.phase[cvar] is solver.precedes(u, v)
            assert solver.solve()
            assert solver.stats.conflicts == 0

    def test_seeded_random_histories_solve_in_fewer_conflicts(self):
        """Not a theorem, a sanity check on valid histories: seeding from
        the order must not lose to the blanket-false phase overall."""
        seeded = blanket = 0
        for seed in range(4):
            history = generate_history(
                WorkloadParams(sessions=5, txns_per_session=10,
                               ops_per_txn=5, keys=6, read_proportion=0.5),
                seed=seed, isolation="snapshot").history
            graph, _ = build_polygraph(history)
            enc = encode_polygraph(graph)
            twin = encode_polygraph(graph)
            for cvar in twin.choice_var.values():
                twin.solver.set_decision_var(cvar, False)
            assert enc.solver.solve() and twin.solver.solve()
            seeded += enc.solver.stats.conflicts
            blanket += twin.solver.stats.conflicts
        assert seeded <= blanket
