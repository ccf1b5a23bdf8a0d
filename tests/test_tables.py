"""Tests for the multi-column table bridge (repro.storage.tables)."""

import pytest

from repro import PolySIChecker
from repro.storage.client import run_workload
from repro.storage.database import MVCCDatabase
from repro.storage.faults import FaultConfig
from repro.storage.tables import (
    TableClient,
    compile_table_spec,
    compound_key,
    split_compound_key,
)


class TestCompoundKeys:
    def test_roundtrip(self):
        key = compound_key("users", 42, "name")
        assert split_compound_key(key) == ("users", "42", "name")

    def test_distinct_cells_distinct_keys(self):
        assert compound_key("t", 1, "a") != compound_key("t", 1, "b")
        assert compound_key("t", 1, "a") != compound_key("t", 2, "a")
        assert compound_key("t", 1, "a") != compound_key("u", 1, "a")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            split_compound_key("plain-key")


class TestTableClient:
    def test_insert_select_roundtrip(self):
        client = TableClient(MVCCDatabase())
        txn = client.begin(0)
        client.insert(txn, "users", 1, {"name": "ada", "age": 36})
        assert client.commit(txn)
        txn = client.begin(1)
        row = client.select(txn, "users", 1, ["name", "age"])
        assert row == {"name": "ada", "age": 36}

    def test_missing_cells_are_none(self):
        client = TableClient(MVCCDatabase())
        txn = client.begin(0)
        assert client.select(txn, "users", 9, ["name"]) == {"name": None}

    def test_update_changes_single_cell(self):
        client = TableClient(MVCCDatabase())
        txn = client.begin(0)
        client.insert(txn, "users", 1, {"name": "ada", "age": 36})
        client.commit(txn)
        txn = client.begin(0)
        client.update(txn, "users", 1, {"age": 37})
        client.commit(txn)
        txn = client.begin(1)
        assert client.select(txn, "users", 1, ["name", "age"]) == {
            "name": "ada", "age": 37,
        }

    def test_read_modify_write_conflict_detected(self):
        """Two concurrent balance updates: first-committer-wins fires."""
        client = TableClient(MVCCDatabase())
        setup = client.begin(0)
        client.insert(setup, "accounts", 1, {"balance": 100})
        client.commit(setup)
        t1 = client.begin(1)
        t2 = client.begin(2)
        client.read_modify_write(t1, "accounts", 1, "balance",
                                 lambda b: b + 50)
        client.read_modify_write(t2, "accounts", 1, "balance",
                                 lambda b: b + 50)
        assert client.commit(t1)
        assert not client.commit(t2)

    def test_same_payload_different_tokens(self):
        """Two cells holding equal payloads must not collide under the
        UniqueValue assumption."""
        client = TableClient(MVCCDatabase())
        txn = client.begin(0)
        client.insert(txn, "users", 1, {"name": "sam"})
        client.insert(txn, "users", 2, {"name": "sam"})
        client.commit(txn)
        txn = client.begin(1)
        assert client.select(txn, "users", 1, ["name"])["name"] == "sam"
        assert client.select(txn, "users", 2, ["name"])["name"] == "sam"


class TestCompiledTableWorkloads:
    def _spec(self):
        return [
            [  # session 0: create two accounts
                [("insert", "acct", "a", {"bal": 10}),
                 ("insert", "acct", "b", {"bal": 20})],
            ],
            [  # session 1: read both, transfer
                [("select", "acct", "a", ["bal"]),
                 ("select", "acct", "b", ["bal"]),
                 ("update", "acct", "a", {"bal": 5}),
                 ("update", "acct", "b", {"bal": 25})],
            ],
            [  # session 2: audit
                [("select", "acct", "a", ["bal"]),
                 ("select", "acct", "b", ["bal"])],
            ],
        ]

    def test_compiled_spec_unique_values(self):
        kv_spec = compile_table_spec(self._spec())
        written = [op[2] for s in kv_spec for t in s for op in t
                   if op[0] == "w"]
        assert len(written) == len(set(written))

    def test_si_store_passes_checker(self):
        kv_spec = compile_table_spec(self._spec())
        db = MVCCDatabase(seed=1)
        run = run_workload(db, kv_spec, seed=1)
        assert PolySIChecker().check(run.history).satisfies_si

    def test_buggy_store_fails_checker(self):
        # Contended RMW on one row cell across many sessions.
        spec = [
            [[("insert", "acct", "x", {"bal": 0})]],
        ] + [
            [[("select", "acct", "x", ["bal"]),
              ("update", "acct", "x", {"bal": 100 + s})]]
            for s in range(4)
        ]
        kv_spec = compile_table_spec(spec)
        found = False
        for seed in range(10):
            db = MVCCDatabase(
                faults=FaultConfig(no_first_committer_wins=True), seed=seed
            )
            run = run_workload(db, kv_spec, seed=seed)
            if not PolySIChecker().check(run.history).satisfies_si:
                found = True
                break
        assert found

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            compile_table_spec([[[("drop", "acct", "x", {})]]])
