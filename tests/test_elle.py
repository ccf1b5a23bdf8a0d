"""Tests for the Elle/Jepsen EDN history parser (repro.listappend.elle)."""

import pytest

from repro.listappend import ListAppendChecker
from repro.listappend.elle import EdnParseError, parse_edn, parse_elle_history


class TestEdnReader:
    def test_scalars(self):
        assert parse_edn("42") == 42
        assert parse_edn("-7") == -7
        assert parse_edn("nil") is None
        assert parse_edn("true") is True
        assert parse_edn("false") is False
        assert parse_edn('"hi\\n"') == "hi\n"

    def test_keyword(self):
        value = parse_edn(":append")
        assert value == "append"

    def test_vector_and_commas(self):
        assert parse_edn("[1, 2, 3]") == [1, 2, 3]
        assert parse_edn("[[:r 5 nil]]") == [["r", 5, None]]

    def test_map(self):
        value = parse_edn("{:type :ok, :process 3}")
        assert value["type"] == "ok"
        assert value["process"] == 3

    def test_comments_skipped(self):
        assert parse_edn("; header\n[1 2]") == [1, 2]

    def test_nested(self):
        value = parse_edn('{:value [[:append 5 1] [:r 5 [1 2]]]}')
        assert value["value"] == [["append", 5, 1], ["r", 5, [1, 2]]]

    def test_errors(self):
        with pytest.raises(EdnParseError):
            parse_edn("[1 2")
        with pytest.raises(EdnParseError):
            parse_edn('"unterminated')
        with pytest.raises(EdnParseError):
            parse_edn("[1] trailing")


ELLE_SAMPLE = """
{:type :invoke, :f :txn, :process 0, :value [[:append 5 1]]}
{:type :ok,     :f :txn, :process 0, :value [[:append 5 1]]}
{:type :invoke, :f :txn, :process 1, :value [[:append 5 2] [:r 5 nil]]}
{:type :ok,     :f :txn, :process 1, :value [[:append 5 2] [:r 5 [1 2]]]}
{:type :invoke, :f :txn, :process 2, :value [[:r 5 nil]]}
{:type :ok,     :f :txn, :process 2, :value [[:r 5 [1]]]}
{:type :fail,   :f :txn, :process 2, :value [[:append 5 9]]}
{:type :info,   :f :txn, :process 3, :value [[:append 5 8]]}
"""


class TestElleHistories:
    def test_parse_sample(self):
        history = parse_elle_history(ELLE_SAMPLE)
        committed = [t for t in history.transactions if t.committed]
        aborted = [t for t in history.transactions if not t.committed]
        assert len(committed) == 3
        assert len(aborted) == 1  # the :fail; the :info is skipped

    def test_sample_satisfies_si(self):
        history = parse_elle_history(ELLE_SAMPLE)
        assert ListAppendChecker().check(history).satisfies_si

    def test_vector_form(self):
        text = '[{:type :ok :process 0 :value [[:append 1 10]]}]'
        history = parse_elle_history(text)
        assert len(history) == 1

    def test_violating_history_detected(self):
        text = """
        {:type :ok, :process 0, :value [[:append 7 1]]}
        {:type :ok, :process 1, :value [[:append 7 2]]}
        {:type :ok, :process 2, :value [[:r 7 [1 2]]]}
        {:type :ok, :process 3, :value [[:r 7 [2 1]]]}
        """
        history = parse_elle_history(text)
        result = ListAppendChecker().check(history)
        assert not result.satisfies_si  # incompatible prefixes

    def test_lost_append_detected(self):
        # Both writers observed the empty list, both appends survive:
        # SI would have aborted one of them.
        text = """
        {:type :ok, :process 0, :value [[:r 7 nil] [:append 7 1]]}
        {:type :ok, :process 1, :value [[:r 7 nil] [:append 7 2]]}
        {:type :ok, :process 2, :value [[:r 7 [1 2]]]}
        """
        history = parse_elle_history(text)
        assert not ListAppendChecker().check(history).satisfies_si

    def test_unsupported_micro_op(self):
        with pytest.raises(EdnParseError):
            parse_elle_history(
                '{:type :ok, :process 0, :value [[:w 1 2]]}'
            )

    def test_empty_input_rejected(self):
        with pytest.raises(EdnParseError):
            parse_elle_history(
                '{:type :invoke, :process 0, :value [[:append 1 1]]}'
            )
