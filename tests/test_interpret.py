"""Tests for counterexample interpretation and classification."""

import pytest

from repro.core.checker import PolySIChecker
from repro.core.history import ABORTED, HistoryBuilder, R, W
from repro.core.polygraph import RW, SO, WR, WW
from repro.interpret import (
    InterpretationError,
    classify_cycle,
    interpret_violation,
)

from _helpers import (
    build,
    causality_history,
    long_fork_history,
    lost_update_history,
    serializable_history,
)


def interpret(history):
    result = PolySIChecker().check(history)
    assert not result.satisfies_si
    return interpret_violation(result)


class TestLostUpdateScenario:
    """The Figure 5 walkthrough: the missing writer is restored, both WW
    edges resolve as certain, and the finalized scenario shows both
    readers anti-depending on each other."""

    def test_classification(self):
        assert interpret(lost_update_history()).classification == "lost update"

    def test_missing_writer_restored(self):
        example = interpret(lost_update_history())
        # The writer (tid 0) was not on the raw cycle but appears in the
        # finalized scenario with WR edges to both readers.
        wr_edges = [e for e in example.finalized if e[2] == WR]
        assert {e[0] for e in wr_edges} == {0}
        assert {e[1] for e in wr_edges} == {1, 2}

    def test_both_ww_edges_certain(self):
        example = interpret(lost_update_history())
        ww = {(e[0], e[1]) for e in example.finalized if e[2] == WW}
        assert ww == {(0, 1), (0, 2)}

    def test_rw_edges_both_directions(self):
        example = interpret(lost_update_history())
        rw = {(e[0], e[1]) for e in example.finalized if e[2] == RW}
        assert rw == {(1, 2), (2, 1)}

    def test_uncertain_reader_order_dropped(self):
        """The WW order between the two readers is unresolvable — it is an
        effect, not a cause — and must not survive finalization."""
        example = interpret(lost_update_history())
        ww_pairs = {(e[0], e[1]) for e in example.finalized if e[2] == WW}
        assert (1, 2) not in ww_pairs and (2, 1) not in ww_pairs


class TestOtherScenarios:
    def test_long_fork_classification(self):
        assert interpret(long_fork_history()).classification == "long fork"

    def test_causality_classification(self):
        assert (
            interpret(causality_history()).classification
            == "causality violation"
        )

    def test_read_skew_classification(self):
        h = build(
            [W("x", 0), W("y", 0)],
            [R("x", 0), R("y", 0), W("x", 1), W("y", 1)],
            [R("x", 1), R("y", 0)],
        )
        assert interpret(h).classification == "read skew (G-single)"

    def test_g1c_classification(self):
        h = build([R("y", 2), W("x", 1)], [R("x", 1), W("y", 2)])
        assert (
            interpret(h).classification == "cyclic information flow (G1c)"
        )

    def test_aborted_read_classification(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)], status=ABORTED)
        b.txn(1, [R("x", 1)])
        assert interpret(b.build()).classification == "aborted read"

    def test_finalized_scenario_nonempty_for_cycles(self):
        for history in (lost_update_history(), long_fork_history()):
            assert interpret(history).finalized


class TestApiContract:
    def test_valid_history_rejected(self):
        result = PolySIChecker().check(serializable_history())
        with pytest.raises(InterpretationError):
            interpret_violation(result)

    def test_describe_mentions_class(self):
        text = interpret(lost_update_history()).describe()
        assert "lost update" in text
        assert "T:(" in text

    def test_recovered_superset_of_cycle(self):
        example = interpret(long_fork_history())
        for edge in example.cycle:
            assert edge in example.recovered

    def test_resolved_tags_are_valid(self):
        example = interpret(lost_update_history())
        assert set(example.resolved.values()) <= {"certain", "uncertain"}

    def test_vertices_cover_cycle(self):
        example = interpret(long_fork_history())
        cycle_vertices = {e[0] for e in example.cycle}
        assert cycle_vertices <= example.vertices


class TestDotExport:
    def test_dot_contains_vertices_and_labels(self):
        example = interpret(lost_update_history())
        dot = example.to_dot()
        assert dot.startswith("digraph")
        assert "lost update" in dot
        assert "WR" in dot and "RW" in dot

    def test_restored_vertices_highlighted(self):
        example = interpret(lost_update_history())
        dot = example.to_dot()
        assert "palegreen" in dot

    @pytest.mark.parametrize("stage", ["recovered", "resolved", "finalized"])
    def test_all_stages_render(self, stage):
        example = interpret(lost_update_history())
        assert example.to_dot(stage).startswith("digraph")

    def test_unknown_stage_rejected(self):
        example = interpret(lost_update_history())
        with pytest.raises(ValueError):
            example.to_dot("imaginary")

    def test_uncertain_edges_dashed(self):
        example = interpret(lost_update_history())
        dot = example.to_dot("recovered")
        assert "dashed" in dot


class TestClassifyCycleDirect:
    def test_pure_ww_cycle_is_g0(self):
        cycle = [(0, 1, WW, "x"), (1, 0, WW, "y")]
        assert classify_cycle(cycle) == "dirty write cycle (G0)"

    def test_so_cycle_is_causality(self):
        cycle = [(0, 1, SO, None), (1, 0, WR, "x")]
        assert classify_cycle(cycle) == "causality violation"

    def test_single_key_short_cycle_without_graph(self):
        cycle = [(0, 1, WW, "x"), (1, 0, RW, "x")]
        assert classify_cycle(cycle) == "lost update"
