"""Unit tests for the history model (repro.core.history)."""

import pytest

from repro.core.history import (
    ABORTED,
    COMMITTED,
    DuplicateValueError,
    History,
    HistoryBuilder,
    HistoryError,
    INITIAL_VALUE,
    Operation,
    R,
    Transaction,
    W,
)


class TestOperation:
    def test_read_constructor(self):
        op = R("x", 1)
        assert op.is_read and not op.is_write
        assert op.key == "x" and op.value == 1

    def test_write_constructor(self):
        op = W("x", 1)
        assert op.is_write and not op.is_read

    def test_unknown_kind_rejected(self):
        with pytest.raises(HistoryError):
            Operation("x", "k", 1)

    def test_equality_and_hash(self):
        assert R("x", 1) == R("x", 1)
        assert R("x", 1) != W("x", 1)
        assert R("x", 1) != R("x", 2)
        assert hash(R("x", 1)) == hash(R("x", 1))

    def test_repr(self):
        assert repr(R("x", 1)) == "R('x', 1)"
        assert repr(W("y", None)) == "W('y', None)"


class TestTransaction:
    def test_writes_keeps_last_value(self):
        t = Transaction(0, [W("x", 1), W("x", 2), W("y", 3)])
        assert t.writes == {"x": 2, "y": 3}

    def test_external_reads_first_read_only(self):
        t = Transaction(0, [R("x", 1), R("x", 1), R("y", 2)])
        assert t.external_reads == {"x": 1, "y": 2}

    def test_read_after_own_write_is_internal(self):
        t = Transaction(0, [W("x", 1), R("x", 1), R("y", 2)])
        assert "x" not in t.external_reads
        assert t.external_reads == {"y": 2}

    def test_read_before_own_write_is_external(self):
        t = Transaction(0, [R("x", 0), W("x", 1)])
        assert t.external_reads == {"x": 0}
        assert t.writes == {"x": 1}

    def test_empty_transaction_rejected(self):
        with pytest.raises(HistoryError):
            Transaction(0, [])

    def test_bad_status_rejected(self):
        with pytest.raises(HistoryError):
            Transaction(0, [R("x", 1)], status="maybe")

    def test_name_format(self):
        t = Transaction(0, [R("x", 1)], session=2, index=5)
        assert t.name == "T:(2,5)"


class TestHistory:
    def test_from_ops_assigns_dense_tids(self):
        h = History.from_ops([[[W("x", 1)]], [[R("x", 1)], [W("y", 2)]]])
        assert [t.tid for t in h.transactions] == [0, 1, 2]
        assert h.num_sessions == 2
        assert len(h) == 3

    def test_aborted_marking(self):
        h = History.from_ops(
            [[[W("x", 1)], [W("x", 2)]]], aborted=[(0, 1)]
        )
        assert h.transactions[0].status == COMMITTED
        assert h.transactions[1].status == ABORTED
        assert len(h.committed) == 1

    def test_session_order_pairs_skips_aborted(self):
        h = History.from_ops(
            [[[W("x", 1)], [W("x", 2)], [W("x", 3)]]], aborted=[(0, 1)]
        )
        pairs = [(a.tid, b.tid) for a, b in h.session_order_pairs()]
        assert pairs == [(0, 2)]

    def test_writer_index_unique_values(self):
        h = History.from_ops([[[W("x", 1)]], [[W("x", 2)]]])
        index = h.writer_index
        assert index[("x", 1)].tid == 0
        assert index[("x", 2)].tid == 1

    def test_duplicate_values_rejected(self):
        h = History.from_ops([[[W("x", 1)]], [[W("x", 1)]]])
        with pytest.raises(DuplicateValueError):
            h.validate()

    def test_duplicate_in_aborted_txn_allowed(self):
        h = History.from_ops(
            [[[W("x", 1)]], [[W("x", 1)]]], aborted=[(1, 0)]
        )
        h.validate()  # aborted writes are not indexed

    def test_intermediate_values_not_indexed(self):
        h = History.from_ops([[[W("x", 1), W("x", 2)]]])
        assert ("x", 1) not in h.writer_index
        assert ("x", 2) in h.writer_index

    def test_writers_of(self):
        h = History.from_ops(
            [[[W("x", 1)]], [[W("x", 2), W("y", 3)]], [[R("x", 1)]]]
        )
        assert [t.tid for t in h.writers_of("x")] == [0, 1]
        assert [t.tid for t in h.writers_of("y")] == [1]
        assert h.writers_of("z") == []

    def test_keys_and_op_counts(self):
        h = History.from_ops([[[W("x", 1), R("y", INITIAL_VALUE)]]])
        assert h.keys == {"x", "y"}
        assert h.num_operations == 2

    def test_non_dense_tids_rejected(self):
        t0 = Transaction(0, [W("x", 1)])
        t2 = Transaction(2, [W("y", 1)])
        with pytest.raises(HistoryError):
            History([[t0], [t2]])


class TestHistoryBuilder:
    def test_builder_roundtrip(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [R("x", 1)])
        b.txn(0, [W("x", 2)])
        h = b.build()
        assert h.num_sessions == 2
        assert len(h.sessions[0]) == 2
        assert len(h.sessions[1]) == 1

    def test_builder_returns_position(self):
        b = HistoryBuilder()
        assert b.txn(3, [W("x", 1)]) == (3, 0)
        assert b.txn(3, [W("x", 2)]) == (3, 1)

    def test_builder_sparse_sessions_renumbered(self):
        b = HistoryBuilder()
        b.txn(7, [W("x", 1)])
        b.txn(2, [W("y", 1)], status=ABORTED)
        h = b.build()
        assert h.num_sessions == 2
        # session 2 sorts first and keeps its aborted status
        assert h.sessions[0][0].status == ABORTED

    def test_builder_empty_rejected(self):
        with pytest.raises(HistoryError):
            HistoryBuilder().build()

    def test_builder_bad_status(self):
        b = HistoryBuilder()
        with pytest.raises(HistoryError):
            b.txn(0, [W("x", 1)], status="zombie")
