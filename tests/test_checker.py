"""Catalog tests for the full PolySI checker: every canonical anomaly and
every canonical non-anomaly, including the paper's own figures."""

import pytest

from repro.core.checker import CheckResult, PolySIChecker, check_snapshot_isolation
from repro.core.history import ABORTED, HistoryBuilder, R, W

from _helpers import (
    build,
    causality_history,
    long_fork_history,
    lost_update_history,
    serializable_history,
    write_skew_history,
)


def verdict(history, **options) -> CheckResult:
    return check_snapshot_isolation(history, **options)


class TestValidHistories:
    def test_serializable_history_passes(self):
        assert verdict(serializable_history()).satisfies_si

    def test_write_skew_allowed_under_si(self):
        """The defining difference from serializability (Section 2.1)."""
        assert verdict(write_skew_history()).satisfies_si

    def test_single_transaction(self):
        assert verdict(build([W("x", 1), R("x", 1)])).satisfies_si

    def test_read_only_history(self):
        assert verdict(build([R("x", None)], [R("x", None)])).satisfies_si

    def test_chain_of_rmws(self):
        h = build(
            [W("x", 1)],
            [R("x", 1), W("x", 2)],
            [R("x", 2), W("x", 3)],
            [R("x", 3)],
        )
        assert verdict(h).satisfies_si

    def test_concurrent_blind_writes_ok(self):
        assert verdict(build([W("x", 1)], [W("x", 2)])).satisfies_si

    def test_init_reads_with_later_writes(self):
        h = build([R("x", None)], [W("x", 1)], [R("x", 1)])
        assert verdict(h).satisfies_si


class TestAnomalies:
    def test_long_fork_detected(self):
        res = verdict(long_fork_history())
        assert not res.satisfies_si
        assert res.cycle is not None

    def test_lost_update_detected(self):
        res = verdict(lost_update_history())
        assert not res.satisfies_si

    def test_causality_violation_detected(self):
        res = verdict(causality_history())
        assert not res.satisfies_si

    def test_read_skew_detected(self):
        h = build(
            [W("x", 0), W("y", 0)],
            [R("x", 0), R("y", 0), W("x", 1), W("y", 1)],
            [R("x", 1), R("y", 0)],
        )
        assert not verdict(h).satisfies_si

    def test_cyclic_information_flow_detected(self):
        h = build([R("y", 2), W("x", 1)], [R("x", 1), W("y", 2)])
        res = verdict(h)
        assert not res.satisfies_si
        assert res.decided_by == "encoding"  # known-edge cycle

    def test_aborted_read_detected(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)], status=ABORTED)
        b.txn(1, [R("x", 1)])
        res = verdict(b.build())
        assert not res.satisfies_si
        assert res.decided_by == "axioms"
        assert res.anomalies[0].axiom == "AbortedReads"

    def test_intermediate_read_detected(self):
        h = build([W("x", 1), W("x", 2)], [R("x", 1)])
        res = verdict(h)
        assert res.decided_by == "axioms"
        assert res.anomalies[0].axiom == "IntermediateReads"

    def test_non_repeatable_read_detected(self):
        h = build([W("x", 1)], [W("x", 2)], [R("x", 1), R("x", 2)])
        res = verdict(h)
        assert not res.satisfies_si
        assert res.decided_by == "axioms"

    def test_monotonic_session_violation(self):
        h = build(
            (0, [W("x", 1)]),
            (1, [R("x", 1), W("x", 2)]),
            (2, [R("x", 2)]),
            (2, [R("x", 1)]),
        )
        assert not verdict(h).satisfies_si

    def test_stale_session_read_own_write(self):
        # A session must observe its own writes.
        h = build((0, [W("x", 1)]), (0, [R("x", None)]))
        assert not verdict(h).satisfies_si


class TestCheckerOptions:
    @pytest.mark.parametrize("options", [
        {"prune": False},
        {"compact": False},
        {"prune": False, "compact": False},
        {"check_axioms_first": False},
    ])
    def test_variants_agree_on_catalog(self, options):
        cases = [
            (serializable_history(), True),
            (write_skew_history(), True),
            (long_fork_history(), False),
            (lost_update_history(), False),
            (causality_history(), False),
        ]
        checker = PolySIChecker(**options)
        for history, expected in cases:
            assert checker.check(history).satisfies_si == expected

    def test_timings_present(self):
        res = verdict(serializable_history())
        assert {"axioms", "construct", "prune", "decompose"} <= set(
            res.timings
        )
        # Pruning resolves every constraint here, so the fast path skips
        # encode+solve entirely and decides statically.
        assert res.decided_by == "static"
        assert "solve" not in res.timings
        assert res.total_time >= 0

    def test_timings_include_solve_when_constraints_survive(self):
        # Two blind writers of one key: pruning cannot order them, so the
        # constraint reaches the solver.
        res = verdict(build([W("x", 1)], [W("x", 2)]))
        assert res.satisfies_si
        assert res.decided_by == "solving"
        assert {"axioms", "construct", "prune", "encode", "solve"} <= set(
            res.timings
        )

    def test_fast_path_reports_skip_count(self):
        # Two disjoint-key serializable islands: every component is
        # constraint-free after pruning, so the solver never runs.
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [R("x", 1), W("x", 2)])
        b.txn(2, [W("y", 1)])
        b.txn(3, [R("y", 1), W("y", 2)])
        res = verdict(b.build())
        assert res.satisfies_si
        assert res.stats["components"] == 2
        assert res.stats["solver_skipped_components"] == 2

    def test_describe_valid(self):
        assert "satisfies" in verdict(serializable_history()).describe()

    def test_describe_violation_mentions_cycle(self):
        text = verdict(long_fork_history()).describe()
        assert "RW" in text and "violates" in text

    def test_long_fork_witness_matches_figure_3e(self):
        """The witness cycle should be the 4-transaction WR/RW alternation
        of Figure 3(e)."""
        res = verdict(long_fork_history())
        labels = [e[2] for e in res.cycle]
        assert sorted(labels) == ["RW", "RW", "WR", "WR"]
