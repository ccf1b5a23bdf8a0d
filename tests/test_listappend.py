"""Tests for the PolySI-List extension (repro.listappend)."""

import random

import pytest

from repro.core.history import ABORTED, HistoryError
from repro.listappend import (
    A,
    L,
    ListAppendChecker,
    ListHistoryBuilder,
    build_list_polygraph,
    generate_list_history,
    generate_list_workload,
    register_view,
)
from repro.storage.faults import FaultConfig
from repro.workloads.generator import WorkloadParams


def lh(*session_txns):
    b = ListHistoryBuilder()
    for i, ops in enumerate(session_txns):
        if isinstance(ops, tuple) and isinstance(ops[0], int):
            b.txn(ops[0], ops[1])
        else:
            b.txn(i, ops)
    return b.build()


class TestModel:
    def test_append_and_read_ops(self):
        op = A("x", 1)
        assert op.is_append
        op = L("x", [1, 2])
        assert op.value == (1, 2)

    def test_transaction_appends_view(self):
        b = ListHistoryBuilder()
        b.txn(0, [A("x", 1), A("y", 2), A("x", 3)])
        h = b.build()
        assert h.transactions[0].appends == {"x": (1, 3), "y": (2,)}

    def test_external_reads_before_own_append(self):
        b = ListHistoryBuilder()
        b.txn(0, [L("x", ()), A("x", 1), L("x", (1,))])
        h = b.build()
        assert h.transactions[0].external_reads == {"x": ()}

    def test_empty_txn_rejected(self):
        b = ListHistoryBuilder()
        b.txn(0, [])
        with pytest.raises(HistoryError):
            b.build()

    def test_register_view_conversion(self):
        h = lh([A("x", 1)], [L("x", (1,))])
        reg = register_view(h)
        assert reg.transactions[0].writes == {"x": 1}
        assert reg.transactions[1].external_reads == {"x": 1}


class TestInference:
    def test_observed_chain_becomes_known_ww(self):
        h = lh([A("x", 1)], [A("x", 2)], [L("x", (1, 2))])
        graph, violations, _ = build_list_polygraph(h)
        assert violations == []
        assert graph.constraints == []  # fully resolved by observation
        ww = {(e[0], e[1]) for e in graph.known_by_label("WW")}
        assert (0, 1) in ww

    def test_unobserved_appends_yield_constraints(self):
        h = lh([A("x", 1)], [A("x", 2)])
        graph, violations, _ = build_list_polygraph(h)
        assert violations == []
        assert len(graph.constraints) == 1

    def test_prefix_violation_detected(self):
        h = lh([A("x", 1)], [A("x", 2)], [L("x", (1, 2))], [L("x", (2, 1))])
        _graph, violations, _ = build_list_polygraph(h)
        assert any(v.axiom == "ListPrefixViolation" for v in violations)

    def test_aborted_append_observed(self):
        b = ListHistoryBuilder()
        b.txn(0, [A("x", 1)], status=ABORTED)
        b.txn(1, [L("x", (1,))])
        _graph, violations, _ = build_list_polygraph(b.build())
        assert any(v.axiom == "AbortedReads" for v in violations)

    def test_never_appended_value_observed(self):
        h = lh([L("x", (9,))])
        _graph, violations, _ = build_list_polygraph(h)
        assert any(v.axiom == "UnjustifiedRead" for v in violations)

    def test_split_append_block_detected(self):
        # txn 0 appends 1 and 2 atomically; a read observing only [1]
        # splits the block.
        h = lh([A("x", 1), A("x", 2)], [L("x", (1,))])
        _graph, violations, _ = build_list_polygraph(h)
        assert any(v.axiom == "IntermediateReads" for v in violations)

    def test_duplicate_append_detected(self):
        h = lh([A("x", 1)], [A("x", 1)])
        _graph, violations, _ = build_list_polygraph(h)
        assert any(v.axiom == "DuplicateAppend" for v in violations)

    def test_internal_read_must_include_own_append(self):
        b = ListHistoryBuilder()
        b.txn(0, [A("x", 1), L("x", ())])
        _graph, violations, _ = build_list_polygraph(b.build())
        assert any(v.axiom == "Int" for v in violations)


class TestChecker:
    def test_valid_history(self):
        h = lh([A("x", 1)], [A("x", 2)], [L("x", (1, 2))], [L("x", (1,))])
        assert ListAppendChecker().check(h).satisfies_si

    def test_long_fork_on_lists(self):
        h = lh(
            [A("x", 1)],
            [A("y", 2)],
            [L("x", (1,)), L("y", ())],
            [L("x", ()), L("y", (2,))],
        )
        res = ListAppendChecker().check(h)
        assert not res.satisfies_si

    def test_lost_update_on_lists(self):
        # Two transactions observe the empty list and both append: under
        # SI one of them must have aborted.
        h = lh(
            [L("x", ()), A("x", 1)],
            [L("x", ()), A("x", 2)],
            [L("x", (1, 2))],
        )
        assert not ListAppendChecker().check(h).satisfies_si

    def test_causality_violation_on_lists(self):
        h = lh(
            (0, [A("x", 1)]),
            (1, [L("x", (1,)), A("x", 2)]),
            (2, [L("x", (1, 2))]),
            (2, [L("x", (1,))]),  # session goes back in time
        )
        assert not ListAppendChecker().check(h).satisfies_si

    def test_no_prune_variant_agrees(self):
        histories = [
            lh([A("x", 1)], [A("x", 2)], [L("x", (1, 2))]),
            lh([L("x", ()), A("x", 1)], [L("x", ()), A("x", 2)],
               [L("x", (1, 2))]),
        ]
        for h in histories:
            assert (
                ListAppendChecker(prune=False).check(h).satisfies_si
                == ListAppendChecker(prune=True).check(h).satisfies_si
            )


class TestGeneratorAndStore:
    def test_workload_shape(self):
        params = WorkloadParams(
            sessions=3, txns_per_session=4, ops_per_txn=5, keys=4
        )
        spec = generate_list_workload(params, seed=1)
        assert len(spec) == 3
        appends = [
            op for s in spec for t in s for op in t if op[0] == "a"
        ]
        values = [op[2] for op in appends]
        assert len(values) == len(set(values))

    @pytest.mark.parametrize("seed", range(6))
    def test_si_store_histories_valid(self, seed):
        params = WorkloadParams(
            sessions=4, txns_per_session=6, ops_per_txn=4, keys=5,
            distribution="uniform",
        )
        h = generate_list_history(params, seed=seed)
        res = ListAppendChecker().check(h)
        assert res.satisfies_si, res.describe()

    def test_faulty_store_detectable(self):
        params = WorkloadParams(
            sessions=5, txns_per_session=8, ops_per_txn=4, keys=4,
            distribution="uniform",
        )
        found = False
        for seed in range(10):
            h = generate_list_history(
                params, seed=seed,
                faults=FaultConfig(no_first_committer_wins=True),
            )
            if not ListAppendChecker().check(h).satisfies_si:
                found = True
                break
        assert found

    def test_list_verdict_implies_register_verdict(self):
        """If the list checker accepts, the register checker (with strictly
        less information) must accept the register view too."""
        from repro import PolySIChecker

        params = WorkloadParams(
            sessions=3, txns_per_session=5, ops_per_txn=4, keys=4,
            distribution="uniform",
        )
        for seed in range(5):
            h = generate_list_history(params, seed=seed)
            if ListAppendChecker().check(h).satisfies_si:
                reg = register_view(h)
                assert PolySIChecker().check(reg).satisfies_si
