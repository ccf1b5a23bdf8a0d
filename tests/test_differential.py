"""Differential (property-based) tests: every checker against the
brute-force oracles on random histories.

These are the strongest correctness guarantees in the suite: PolySI (all
ablation variants), CobraSI, and dbcop must agree with Theorem 6's
enumeration semantics on arbitrary small histories — valid and invalid
alike.
"""

import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.baselines.cobra import CobraChecker
from repro.baselines.cobrasi import CobraSIChecker
from repro.baselines.dbcop import DbcopChecker
from repro.baselines.naive import OracleTooLarge, naive_check_ser, naive_check_si
from repro.core.axioms import check_axioms
from repro.core.checker import PolySIChecker
from repro.core.polygraph import build_polygraph
from repro.workloads.random_histories import random_history


@st.composite
def small_histories(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    sessions = draw(st.integers(min_value=1, max_value=3))
    txns = draw(st.integers(min_value=1, max_value=3))
    keys = draw(st.integers(min_value=1, max_value=3))
    abort = draw(st.sampled_from([0.0, 0.15]))
    rng = random.Random(seed)
    return random_history(
        rng,
        sessions=sessions,
        txns_per_session=txns,
        max_ops=4,
        keys=keys,
        abort_prob=abort,
    )


def si_oracle(history) -> bool:
    """``naive_check_si``'s verdict; a draw past the oracle's version-order
    budget is rejected, whatever any checker would answer on it."""
    try:
        return naive_check_si(history)
    except OracleTooLarge:
        reject()


class TestPolySIAgainstOracle:
    @given(small_histories())
    @settings(max_examples=250, deadline=None)
    def test_default_checker(self, history):
        assert (
            PolySIChecker().check(history).satisfies_si
            == si_oracle(history)
        )

    @given(small_histories())
    @settings(max_examples=120, deadline=None)
    def test_without_pruning(self, history):
        assert (
            PolySIChecker(prune=False).check(history).satisfies_si
            == si_oracle(history)
        )

    @given(small_histories())
    @settings(max_examples=120, deadline=None)
    def test_without_compaction(self, history):
        assert (
            PolySIChecker(prune=False, compact=False).check(history).satisfies_si
            == si_oracle(history)
        )


class TestBaselinesAgainstOracle:
    @given(small_histories())
    @settings(max_examples=150, deadline=None)
    def test_cobrasi(self, history):
        assert (
            CobraSIChecker().check(history).satisfies_si
            == si_oracle(history)
        )

    @given(small_histories())
    @settings(max_examples=60, deadline=None)
    def test_cobrasi_gpu_variant(self, history):
        assert (
            CobraSIChecker(gpu=True).check(history).satisfies_si
            == si_oracle(history)
        )

    @given(small_histories())
    @settings(max_examples=150, deadline=None)
    def test_dbcop_on_cyclic_anomalies(self, history):
        """dbcop is incomplete for non-cyclic anomalies (Section 7), so the
        comparison is restricted to histories passing the axioms."""
        if check_axioms(history):
            return
        _graph, construction = build_polygraph(history)
        if construction:
            return
        assert (
            DbcopChecker().check_si(history).satisfies
            == si_oracle(history)
        )

    @given(small_histories())
    @settings(max_examples=120, deadline=None)
    def test_cobra_against_ser_oracle(self, history):
        try:
            want = naive_check_ser(history)
        except OracleTooLarge:
            return
        assert CobraChecker().check(history).serializable == want


class TestCrossCheckerRelations:
    @given(small_histories())
    @settings(max_examples=120, deadline=None)
    def test_serializable_implies_si(self, history):
        """SER is strictly stronger than SI (Figure 1)."""
        if CobraChecker().check(history).serializable:
            assert PolySIChecker().check(history).satisfies_si

    @given(small_histories())
    @settings(max_examples=100, deadline=None)
    def test_verdict_stable_across_variants(self, history):
        verdicts = {
            PolySIChecker().check(history).satisfies_si,
            PolySIChecker(prune=False).check(history).satisfies_si,
            CobraSIChecker().check(history).satisfies_si,
        }
        assert len(verdicts) == 1


class TestSerOracleAgreement:
    @given(small_histories())
    @settings(max_examples=100, deadline=None)
    def test_dbcop_ser_matches_oracle(self, history):
        if check_axioms(history):
            return
        _graph, construction = build_polygraph(history)
        if construction:
            return
        try:
            want = naive_check_ser(history)
        except OracleTooLarge:
            return
        assert DbcopChecker().check_ser(history).satisfies == want


class TestOracleInternals:
    def test_oracle_budget_guard(self):
        from repro.core.history import History, W

        # Four blind writers of one key: 4! = 24 version orders > budget.
        history = History.from_ops(
            [[[W("x", i)]] for i in range(4)]
        )
        with pytest.raises(OracleTooLarge):
            naive_check_si(history, max_orders=2)

    def test_ser_oracle_txn_guard(self):
        from repro.core.history import History, W

        history = History.from_ops(
            [[[W(f"k{i}", i)]] for i in range(5)]
        )
        with pytest.raises(OracleTooLarge):
            naive_check_ser(history, max_txns=3)
