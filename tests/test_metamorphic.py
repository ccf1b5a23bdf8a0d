"""Metamorphic properties of the checker.

Transformations that must never change the verdict: relabeling sessions,
bijectively renaming values or keys, appending independent transactions
on fresh keys.  These catch representation leaks (e.g. accidental
dependence on tid order) that example-based tests miss.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.checker import PolySIChecker
from repro.core.history import History, Operation
from repro.workloads.random_histories import random_history


def _verdict(history: History) -> bool:
    return PolySIChecker().check(history).satisfies_si


def _history(seed: int) -> History:
    rng = random.Random(seed)
    return random_history(
        rng, sessions=3, txns_per_session=2, max_ops=4, keys=3,
        abort_prob=0.1,
    )


def _rebuild(history: History, op_map, session_order=None) -> History:
    sessions = list(range(len(history.sessions)))
    if session_order is not None:
        sessions = session_order
    session_ops = []
    aborted = set()
    for new_s, old_s in enumerate(sessions):
        ops_list = []
        for i, txn in enumerate(history.sessions[old_s]):
            ops_list.append([op_map(op) for op in txn.ops])
            if not txn.committed:
                aborted.add((new_s, i))
        session_ops.append(ops_list)
    return History.from_ops(session_ops, aborted=aborted)


class TestSessionRelabeling:
    @given(st.integers(min_value=0, max_value=50_000),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_shuffling_sessions_preserves_verdict(self, seed, shuffler):
        history = _history(seed)
        order = list(range(len(history.sessions)))
        shuffler.shuffle(order)
        relabeled = _rebuild(history, lambda op: op, session_order=order)
        assert _verdict(history) == _verdict(relabeled)


class TestValueRenaming:
    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=80, deadline=None)
    def test_bijective_value_renaming_preserves_verdict(self, seed):
        history = _history(seed)

        def rename(op: Operation) -> Operation:
            value = op.value
            if value is not None:
                value = f"v{value * 7 + 3}"
            return Operation(op.kind, op.key, value)

        assert _verdict(history) == _verdict(_rebuild(history, rename))

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=80, deadline=None)
    def test_key_renaming_preserves_verdict(self, seed):
        history = _history(seed)

        def rename(op: Operation) -> Operation:
            return Operation(op.kind, f"renamed:{op.key}", op.value)

        assert _verdict(history) == _verdict(_rebuild(history, rename))


class TestIndependentPadding:
    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=60, deadline=None)
    def test_fresh_key_txns_preserve_verdict(self, seed):
        from repro.core.history import R, W

        history = _history(seed)
        session_ops = []
        aborted = set()
        for s, sess in enumerate(history.sessions):
            ops_list = []
            for i, txn in enumerate(sess):
                ops_list.append(list(txn.ops))
                if not txn.committed:
                    aborted.add((s, i))
            session_ops.append(ops_list)
        # A new session writing and reading keys nothing else touches.
        session_ops.append([
            [W("fresh:a", "pad1"), R("fresh:b", None)],
            [R("fresh:a", "pad1"), W("fresh:b", "pad2")],
        ])
        padded = History.from_ops(session_ops, aborted=aborted)
        assert _verdict(history) == _verdict(padded)


class TestCheckerDeterminism:
    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=40, deadline=None)
    def test_repeated_checks_agree(self, seed):
        history = _history(seed)
        first = PolySIChecker().check(history)
        second = PolySIChecker().check(history)
        assert first.satisfies_si == second.satisfies_si
        assert first.decided_by == second.decided_by
