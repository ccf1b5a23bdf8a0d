"""Live-database collection harness (repro.collect).

The SQLite adapter is the reference backend: WAL-mode SQLite serializes
transactions, so every collected history must satisfy SI — any
violation indicts the harness, not the database.  The suite checks the
adapters individually, the threaded collector's accounting, the codec
round trip, verdict agreement across the batch and online checkers, and the anomaly-injecting wrapper's violation path.
"""

import os

import pytest

from repro.collect import (
    ADAPTERS,
    AdapterUnavailable,
    CollectOptions,
    Collector,
    DBAPIAdapter,
    FaultyAdapter,
    INJECTION_PROFILES,
    InjectionConfig,
    SQLiteAdapter,
    TransactionAborted,
    collect_history,
    make_adapter,
)
from repro.core.checker import PolySIChecker
from repro.core.history import ABORTED, COMMITTED, INITIAL_VALUE
from repro.histories.codec import history_from_json, history_to_json
from repro.interpret import interpret_violation
from repro.online import OnlineChecker
from repro.api import check
from repro.workloads.generator import WorkloadParams, generate_workload

SMALL = WorkloadParams(
    sessions=4,
    txns_per_session=8,
    ops_per_txn=4,
    keys=10,
    read_proportion=0.5,
    distribution="uniform",
)

#: The acceptance-criteria shape: >= 200 transactions over 8 sessions.
#: Uniform over 40 keys keeps constraint counts sane so the *online*
#: verdict-agreement tests stay fast.
ACCEPTANCE = WorkloadParams(
    sessions=8,
    txns_per_session=25,
    ops_per_txn=5,
    keys=40,
    read_proportion=0.5,
    distribution="uniform",
)

#: Contended shape for the injection tests: hot keys make planted
#: stale reads collide with real observations quickly.
HOTSPOT = WorkloadParams(
    sessions=8,
    txns_per_session=25,
    ops_per_txn=5,
    keys=12,
    read_proportion=0.5,
    distribution="hotspot",
)


class TestSQLiteAdapter:
    def test_single_session_read_write_commit(self):
        adapter = SQLiteAdapter()
        try:
            adapter.setup()
            session = adapter.session(0)
            session.begin()
            assert session.read("x") is INITIAL_VALUE
            session.write("x", 7)
            assert session.read("x") == 7
            assert session.commit() is True
            session.begin()
            assert session.read("x") == 7
            assert session.commit() is True
            session.close()
        finally:
            adapter.close()

    def test_abort_rolls_back(self):
        adapter = SQLiteAdapter()
        try:
            adapter.setup()
            session = adapter.session(0)
            session.begin()
            session.write("x", 1)
            session.abort()
            session.begin()
            assert session.read("x") is INITIAL_VALUE
            session.commit()
            session.close()
        finally:
            adapter.close()

    def test_temp_file_removed_on_close(self):
        adapter = SQLiteAdapter()
        adapter.setup()
        path = adapter.path
        assert os.path.exists(path)
        adapter.close()
        assert not os.path.exists(path)


class TestDBAPIAdapter:
    def test_sqlite3_is_a_dbapi_driver(self, tmp_path):
        adapter = DBAPIAdapter("sqlite3", dsn=str(tmp_path / "kv.db"))
        adapter.setup()
        session = adapter.session(0)
        session.begin()
        assert session.read("k") is INITIAL_VALUE
        session.write("k", 42)
        assert session.commit() is True
        session.begin()
        assert session.read("k") == 42
        session.commit()
        session.close()

    def test_missing_driver_raises_unavailable(self):
        with pytest.raises(AdapterUnavailable):
            DBAPIAdapter("no_such_db_driver_module")

    def test_collection_through_dbapi(self, tmp_path):
        adapter = DBAPIAdapter("sqlite3", dsn=str(tmp_path / "kv.db"))
        run = collect_history(adapter, SMALL, seed=5)
        assert len(run.history) > 0
        assert PolySIChecker().check(run.history).satisfies_si


class TestAdapterRegistry:
    def test_make_adapter_sqlite(self):
        adapter = make_adapter("sqlite")
        assert isinstance(adapter, SQLiteAdapter)
        adapter.close()

    def test_unknown_adapter(self):
        with pytest.raises(ValueError, match="unknown adapter"):
            make_adapter("oracle-9i")

    def test_registry_names(self):
        assert set(ADAPTERS) == {"sqlite", "dbapi"}


class TestCollector:
    def test_accounting_adds_up(self):
        run = collect_history(SQLiteAdapter(), ACCEPTANCE, seed=3)
        assert run.committed + run.aborted == len(run.history)
        # Every attempt either committed, terminally aborted, or was a
        # dropped retry.
        assert run.attempts == run.committed + run.aborted + run.retried
        assert run.committed >= 0.8 * ACCEPTANCE.total_txns
        assert run.throughput > 0

    def test_events_match_history(self):
        run = collect_history(SQLiteAdapter(), SMALL, seed=5)
        assert len(run.events) == len(run.history)
        statuses = [status for _, _, status, _ in run.events]
        assert statuses.count(COMMITTED) == run.committed
        assert statuses.count(ABORTED) == run.aborted

    def test_drop_aborted_keeps_history_committed_only(self):
        run = collect_history(
            SQLiteAdapter(), ACCEPTANCE, seed=3,
            options=CollectOptions(retries=0, record_aborted=False),
        )
        assert all(t.committed for t in run.history)

    def test_retries_zero_records_every_abort(self):
        run = collect_history(
            SQLiteAdapter(), ACCEPTANCE, seed=3,
            options=CollectOptions(retries=0),
        )
        assert run.retried == 0
        assert run.attempts == run.committed + run.aborted

    def test_options_validation(self):
        with pytest.raises(ValueError):
            CollectOptions(retries=-1)
        with pytest.raises(ValueError):
            collect_history(SQLiteAdapter(), SMALL, spec=[[]])
        with pytest.raises(ValueError):
            collect_history(SQLiteAdapter())


class _FlakyBeginSession:
    """Stub session whose ``begin`` aborts once before succeeding."""

    def __init__(self, store):
        self._store = store
        self._begins = 0
        self._buffer = {}

    def begin(self):
        self._begins += 1
        if self._begins == 1:
            raise TransactionAborted("transient begin failure")
        self._buffer = {}

    def read(self, key):
        return self._buffer.get(key, self._store.get(key, INITIAL_VALUE))

    def write(self, key, value):
        self._buffer[key] = value

    def commit(self):
        self._store.update(self._buffer)
        return True

    def abort(self):
        self._buffer = {}

    def close(self):
        pass


class TestCollectorFailureModes:
    def test_session_creation_failure_does_not_deadlock(self):
        class BrokenAdapter(SQLiteAdapter):
            def session(self, session_id):
                if session_id == 1:
                    raise RuntimeError("connection refused")
                return super().session(session_id)

        adapter = BrokenAdapter()
        try:
            with pytest.raises(RuntimeError, match="connection refused"):
                Collector(adapter).run(generate_workload(SMALL, seed=5))
        finally:
            adapter.close()

    def test_rerun_on_same_adapter_starts_clean(self):
        adapter = SQLiteAdapter()
        try:
            collector = Collector(adapter)
            spec = generate_workload(SMALL, seed=5)
            first = collector.run(spec)
            second = collector.run(spec)
            # Leftover values from run 1 must not surface in run 2 as
            # reads of values nobody wrote.
            assert PolySIChecker().check(first.history).satisfies_si
            assert PolySIChecker().check(second.history).satisfies_si
        finally:
            adapter.close()

    def test_abort_at_begin_engages_retry(self):
        class FlakyAdapter(SQLiteAdapter):
            def __init__(self):
                super().__init__()
                self.store = {}

            def setup(self):
                pass

            def teardown(self):
                pass

            def session(self, session_id):
                return _FlakyBeginSession(self.store)

        adapter = FlakyAdapter()
        try:
            run = Collector(adapter).run([[[("w", "k", 1)]]])
            assert run.committed == 1
            assert run.retried == 1
        finally:
            adapter.close()


class TestRoundTrip:
    """The acceptance loop: collect from live SQLite, encode, reload,
    and agree on the verdict across all three checkers."""

    @pytest.fixture(scope="class")
    def collected(self):
        return collect_history(SQLiteAdapter(), ACCEPTANCE, seed=3)

    def test_history_is_valid_and_si(self, collected):
        collected.history.validate()
        assert PolySIChecker().check(collected.history).satisfies_si

    def test_codec_round_trip_preserves_verdict(self, collected):
        reloaded = history_from_json(history_to_json(collected.history))
        assert len(reloaded) == len(collected.history)
        assert PolySIChecker().check(reloaded).satisfies_si

    def test_online_verdict_agrees(self, collected):
        result = OnlineChecker().replay(collected.history)
        assert result.satisfies_si

    def test_online_event_feed_agrees(self, collected):
        checker = OnlineChecker(solve_every=8)
        for session, ops, status, _ in collected.events:
            assert checker.add(session, ops, status=status).satisfies_si
        assert checker.finish().satisfies_si

    def test_parallel_verdict_agrees(self, collected):
        assert check(collected.history, mode="parallel", workers=2).ok


class TestFaultyAdapter:
    def test_profile_validation(self):
        inner = SQLiteAdapter()
        with pytest.raises(ValueError, match="unknown injection profile"):
            FaultyAdapter(inner, profile="bit-rot")
        with pytest.raises(ValueError, match="exactly one"):
            FaultyAdapter(inner)
        with pytest.raises(ValueError, match="exactly one"):
            FaultyAdapter(inner, profile="stale-reads",
                          config=InjectionConfig())
        inner.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InjectionConfig(stale_read_prob=1.5)
        with pytest.raises(ValueError):
            InjectionConfig(stale_read_depth=0)

    @pytest.mark.parametrize("profile", sorted(INJECTION_PROFILES))
    def test_injection_yields_classified_violation(self, profile):
        adapter = FaultyAdapter(SQLiteAdapter(), profile=profile, seed=1)
        run = collect_history(adapter, HOTSPOT, seed=3)
        result = PolySIChecker().check(run.history)
        assert not result.satisfies_si
        example = interpret_violation(result)
        assert example.classification

    def test_injected_history_round_trips_and_checkers_agree(self):
        adapter = FaultyAdapter(SQLiteAdapter(), profile="lost-update",
                                seed=1)
        run = collect_history(adapter, HOTSPOT, seed=3)
        reloaded = history_from_json(history_to_json(run.history))
        assert not PolySIChecker().check(reloaded).satisfies_si
        assert not OnlineChecker().replay(reloaded).satisfies_si
        assert not check(reloaded, mode="parallel", workers=2).ok


class TestCollectCLI:
    def test_collect_check_exit_zero(self, capsys):
        from repro.cli import main

        code = main([
            "collect", "--adapter", "sqlite", "--sessions", "4",
            "--txns", "6", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "collected" in out
        assert "satisfies" in out

    def test_collect_inject_exit_one_with_classification(self, capsys):
        from repro.cli import main

        code = main([
            "collect", "--sessions", "8", "--txns", "25", "--keys", "12",
            "--dist", "hotspot", "--inject", "lost-update", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "violates" in out
        assert "anomaly class:" in out

    def test_collect_out_round_trips_through_check(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "live.json"
        assert main([
            "collect", "--sessions", "3", "--txns", "5",
            "-o", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["check", str(path)]) == 0

    def test_dbapi_requires_driver(self, capsys):
        from repro.cli import main

        assert main(["collect", "--adapter", "dbapi", "--check"]) == 2
        assert "--driver" in capsys.readouterr().err
        assert main(["collect", "--adapter", "dbapi", "--driver",
                     "sqlite3", "--check"]) == 2
        assert "--dsn" in capsys.readouterr().err

    def test_missing_driver_exits_two(self, capsys):
        from repro.cli import main

        code = main([
            "collect", "--adapter", "dbapi",
            "--driver", "no_such_db_driver_module", "--check",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_dbapi_driver_through_cli(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "collect", "--adapter", "dbapi", "--driver", "sqlite3",
            "--dsn", str(tmp_path / "kv.db"), "--sessions", "3",
            "--txns", "4", "--check",
        ])
        assert code == 0
        assert "dbapi:sqlite3" in capsys.readouterr().out


class TestIterEvents:
    """CollectionRun.iter_events: the public commit-order event feed."""

    def test_yields_commit_order_4_tuples(self):
        run = collect_history(SQLiteAdapter(), SMALL, seed=5)
        events = list(run.iter_events())
        assert events == list(run.events)
        assert len(events) == len(run.history)
        for session, ops, status, ts in events:
            assert isinstance(session, int)
            assert status in (COMMITTED, ABORTED)
            assert len(ops) >= 1
            assert ts is None or len(ts) == 2

    def test_is_a_fresh_generator_each_call(self):
        run = collect_history(SQLiteAdapter(), SMALL, seed=5)
        first = list(run.iter_events())
        assert list(run.iter_events()) == first  # not a one-shot iterator

    def test_feed_replays_into_online_checker(self):
        """The documented contract: iter_events() drives OnlineChecker
        to the same verdict as the batch check of run.history."""
        run = collect_history(SQLiteAdapter(), SMALL, seed=5)
        checker = OnlineChecker()
        for session, ops, status, _ts in run.iter_events():
            checker.add(session, ops, status=status)
        online = checker.finish()
        batch = PolySIChecker().check(run.history)
        assert online.satisfies_si == batch.satisfies_si
