"""Literal reproductions of the paper's figure histories.

These tests build the exact transaction/operation structures shown in
Figures 2, 3, 5, 12, and 13 and assert that the checker and interpreter
reproduce the paper's conclusions on them.
"""

import json

from repro.core.checker import PolySIChecker
from repro.core.history import HistoryBuilder, R, W
from repro.core.polygraph import build_polygraph
from repro.interpret import interpret_violation


class TestFigure2:
    """Generalized vs plain polygraphs: two writers, two readers of x."""

    def _history(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])            # T
        b.txn(1, [R("x", 1)])            # T'
        b.txn(2, [W("x", 2)])            # S
        b.txn(3, [R("x", 2)])            # S'
        return b.build()

    def test_single_generalized_constraint(self):
        graph, _ = build_polygraph(self._history(), compact=True)
        assert graph.num_constraints == 1
        (cons,) = graph.constraints
        # Each branch: one WW edge plus one reader RW edge (Example 10).
        assert len(cons.either) == 2
        assert len(cons.orelse) == 2

    def test_plain_constraints_are_more_numerous(self):
        graph, _ = build_polygraph(self._history(), compact=False)
        assert graph.num_constraints == 3

    def test_history_satisfies_si(self):
        assert PolySIChecker().check(self._history()).satisfies_si


class TestFigure3LongFork:
    """The worked 'long fork' example of Section 4.1."""

    def _history(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 0), W("y", 0)])   # T0
        b.txn(0, [W("x", 2)])              # T5, same session
        b.txn(1, [W("x", 1)])              # T1
        b.txn(2, [W("y", 1)])              # T2
        b.txn(3, [R("x", 1), R("y", 0)])   # T3
        b.txn(4, [R("x", 0), R("y", 1)])   # T4
        return b.build()

    def test_violation_detected(self):
        assert not PolySIChecker().check(self._history()).satisfies_si

    def test_witness_is_figure_3e_cycle(self):
        result = PolySIChecker().check(self._history())
        vertices = {result.polygraph.vertex_name(e[0]) for e in result.cycle}
        # T1, T2, T3, T4 — not T0 or T5.
        assert vertices == {"T:(1,0)", "T:(2,0)", "T:(3,0)", "T:(4,0)"}
        assert sorted(e[2] for e in result.cycle) == ["RW", "RW", "WR", "WR"]

    def test_classified_as_long_fork(self):
        result = PolySIChecker().check(self._history())
        assert interpret_violation(result).classification == "long fork"


class TestFigure5MariaDBGalera:
    """The lost-update counterexample walkthrough of Section 5.3."""

    def _history(self):
        b = HistoryBuilder()
        # Session 1: ... T:(1,4) writes 0=4, then T:(1,5) RMWs it.
        b.txn(1, [W(0, 4)])
        b.txn(1, [R(0, 4), W(0, 5)])
        # Session 2: T:(2,13) concurrently RMWs the same version.
        b.txn(2, [R(0, 4), W(0, 13)])
        return b.build()

    def test_lost_update_detected_and_classified(self):
        result = PolySIChecker().check(self._history())
        assert not result.satisfies_si
        example = interpret_violation(result)
        assert example.classification == "lost update"

    def test_finalized_scenario_matches_figure_5d(self):
        result = PolySIChecker().check(self._history())
        example = interpret_violation(result)
        kinds = sorted(e[2] for e in example.finalized if e[2] != "SO")
        # Figure 5(d): two WR, two WW, two RW edges.
        assert kinds == ["RW", "RW", "WR", "WR", "WW", "WW"]


class TestFigure12Dgraph:
    """The Dgraph causality violation of Appendix D.1, verbatim."""

    def _history(self):
        b = HistoryBuilder()
        # Session 10: T:(10,467) -> T:(10,471) -> T:(10,472)
        b.txn(10, [R(753, 1)])              # T:(10,467)
        b.txn(10, [W(656, 7)])              # T:(10,471)
        b.txn(10, [W(443, 10), W(402, 7)])  # T:(10,472)
        # Session 9: T:(9,423) -> T:(9,428)
        b.txn(9, [R(248, 11)])              # T:(9,423)
        b.txn(9, [W(402, 6), R(656, 3)])    # T:(9,428)
        # Session 8: T:(8,380) -> T:(8,383)
        b.txn(8, [R(443, 10)])              # T:(8,380)
        b.txn(8, [W(248, 11)])              # T:(8,383)
        # Session 4: T:(4,172)
        b.txn(4, [W(656, 3), W(753, 1)])    # T:(4,172)
        return b.build()

    def test_violation_detected(self):
        result = PolySIChecker().check(self._history())
        assert not result.satisfies_si

    def test_interpretation_completes(self):
        result = PolySIChecker().check(self._history())
        example = interpret_violation(result)
        assert example.classification in (
            "causality violation", "SI violation (cycle)", "long fork",
        )
        assert example.finalized
        assert "digraph" in example.to_dot()


class TestFigure13YugabyteDB:
    """The YugabyteDB causality violation of Appendix D.2, verbatim."""

    def _history(self):
        b = HistoryBuilder()
        # Session 0: T:(0,6) -> T:(0,7) -> T:(0,9)
        b.txn(0, [R(13, 21)])               # T:(0,6)
        b.txn(0, [W(10, 3)])                # T:(0,7)
        b.txn(0, [R(10, 26)])               # T:(0,9)
        # Session 1: T:(1,15)
        b.txn(1, [W(10, 26), W(13, 21)])    # T:(1,15)
        return b.build()

    def test_violation_detected(self):
        assert not PolySIChecker().check(self._history()).satisfies_si

    def test_classified_as_causality_violation(self):
        result = PolySIChecker().check(self._history())
        example = interpret_violation(result)
        assert example.classification == "causality violation"

    def test_missing_participant_restored(self):
        """The paper restores T:(0,9) (alternatively the cycle may already
        contain it); the finalized scenario must involve both sessions."""
        result = PolySIChecker().check(self._history())
        example = interpret_violation(result)
        sessions = set()
        for edge in example.finalized:
            for vertex in (edge[0], edge[1]):
                txn = example.graph.vertex_txn(vertex)
                if txn is not None:
                    sessions.add(txn.session)
        assert sessions == {0, 1}


class TestResultJson:
    def test_verdict_json_roundtrips(self):
        result = PolySIChecker().check(
            TestFigure5MariaDBGalera()._history()
        )
        payload = json.loads(result.to_json())
        assert payload["satisfies_si"] is False
        assert payload["cycle"]
        assert payload["timings"]

    def test_valid_json(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        payload = json.loads(PolySIChecker().check(b.build()).to_json())
        assert payload["satisfies_si"] is True
