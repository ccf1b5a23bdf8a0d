"""Unit tests for the non-cyclic axioms (repro.core.axioms)."""

from repro.core.axioms import (
    check_aborted_reads,
    check_axioms,
    check_intermediate_reads,
    check_internal_consistency,
)
from repro.core.history import ABORTED, History, HistoryBuilder, R, W


def _h(*sessions, aborted=()):
    return History.from_ops(list(sessions), aborted=aborted)


class TestInternalConsistency:
    def test_consistent_read_after_write(self):
        h = _h([[W("x", 1), R("x", 1)]])
        assert check_internal_consistency(h) == []

    def test_read_disagrees_with_own_write(self):
        h = _h([[W("x", 1), R("x", 2)]])
        violations = check_internal_consistency(h)
        assert len(violations) == 1
        assert violations[0].axiom == "Int"

    def test_read_disagrees_with_prior_read(self):
        h = _h([[R("x", 1), R("x", 2)]])
        assert len(check_internal_consistency(h)) == 1

    def test_read_write_read_chain(self):
        h = _h([[R("x", 1), W("x", 2), R("x", 2)]])
        assert check_internal_consistency(h) == []

    def test_checked_even_in_aborted_txns(self):
        h = _h([[W("x", 1), R("x", 9)]], aborted=[(0, 0)])
        assert len(check_internal_consistency(h)) == 1

    def test_multiple_keys_independent(self):
        h = _h([[W("x", 1), W("y", 2), R("x", 1), R("y", 2)]])
        assert check_internal_consistency(h) == []


class TestAbortedReads:
    def test_committed_reads_aborted_write(self):
        h = _h([[W("x", 1)]], [[R("x", 1)]], aborted=[(0, 0)])
        violations = check_aborted_reads(h)
        assert len(violations) == 1
        assert violations[0].axiom == "AbortedReads"
        assert violations[0].key == "x"

    def test_aborted_txn_reading_is_ignored(self):
        # Only *committed* readers matter.
        h = _h([[W("x", 1)]], [[R("x", 1)]], aborted=[(0, 0), (1, 0)])
        assert check_aborted_reads(h) == []

    def test_clean_history(self):
        h = _h([[W("x", 1)]], [[R("x", 1)]])
        assert check_aborted_reads(h) == []

    def test_initial_reads_not_flagged(self):
        h = _h([[R("x", None)]])
        assert check_aborted_reads(h) == []


class TestIntermediateReads:
    def test_reading_overwritten_value(self):
        h = _h([[W("x", 1), W("x", 2)]], [[R("x", 1)]])
        violations = check_intermediate_reads(h)
        assert len(violations) == 1
        assert violations[0].axiom == "IntermediateReads"

    def test_every_overwritten_value_is_intermediate(self):
        # Interleaved writes: x's first two values are intermediate, its
        # last one and y's only one are not.
        writer = [W("x", 1), W("y", 9), W("x", 2), W("x", 3)]
        h = _h([writer], [[R("x", 1)], [R("x", 2)], [R("x", 3), R("y", 9)]])
        violations = check_intermediate_reads(h)
        assert sorted(v.txn.name for v in violations) == ["T:(1,0)", "T:(1,1)"]

    def test_reading_final_value_ok(self):
        h = _h([[W("x", 1), W("x", 2)]], [[R("x", 2)]])
        assert check_intermediate_reads(h) == []

    def test_own_intermediate_read_ok(self):
        # Reading your own intermediate value is internal, not anomalous.
        h = _h([[W("x", 1), R("x", 1), W("x", 2)]])
        assert check_intermediate_reads(h) == []

    def test_aborted_writers_not_considered(self):
        h = _h([[W("x", 1), W("x", 2)]], [[R("x", 1)]], aborted=[(0, 0)])
        assert check_intermediate_reads(h) == []


class TestCheckAxioms:
    def test_aggregates_all(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1), W("x", 2)])          # intermediate source
        b.txn(1, [W("y", 7)], status=ABORTED)     # aborted source
        b.txn(2, [R("x", 1), R("y", 7), W("z", 1), R("z", 9)])
        violations = check_axioms(b.build())
        axioms = sorted(v.axiom for v in violations)
        assert axioms == ["AbortedReads", "Int", "IntermediateReads"]

    def test_clean_history_passes(self):
        h = _h([[W("x", 1)]], [[R("x", 1), W("y", 2)]], [[R("y", 2)]])
        assert check_axioms(h) == []

    def test_violation_repr_mentions_txn(self):
        h = _h([[W("x", 1), W("x", 2)]], [[R("x", 1)]])
        (violation,) = check_intermediate_reads(h)
        assert "T:(1,0)" in repr(violation)
