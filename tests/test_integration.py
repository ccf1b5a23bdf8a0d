"""End-to-end integration tests: generate -> execute -> check -> interpret
-> serialize, across the whole public API."""

from repro import (
    HistoryBuilder,
    PolySIChecker,
    R,
    W,
)
from repro.baselines.cobrasi import CobraSIChecker
from repro.baselines.dbcop import DbcopChecker
from repro.histories.codec import history_from_json, history_to_json
from repro.interpret import interpret_violation
from repro.storage.client import run_workload
from repro.storage.database import MVCCDatabase
from repro.storage.faults import DATABASE_PROFILES
from repro.workloads.generator import WorkloadParams, generate_workload


class TestFullPipeline:
    def test_bank_audit_scenario(self):
        """The Example 2 story: concurrent deposits losing money."""
        b = HistoryBuilder()
        b.txn(0, [W("account", 10)])
        b.txn(1, [R("account", 10), W("account", 60)])   # Dan's deposit
        b.txn(2, [R("account", 10), W("account", 61)])   # Emma's deposit
        result = PolySIChecker().check(b.build())
        assert not result.satisfies_si
        example = interpret_violation(result)
        assert example.classification == "lost update"
        assert "digraph" in example.to_dot()

    def test_workload_roundtrip_through_json(self):
        params = WorkloadParams(
            sessions=3, txns_per_session=5, ops_per_txn=4, keys=8
        )
        spec = generate_workload(params, seed=9)
        db = MVCCDatabase(seed=9)
        run = run_workload(db, spec, seed=9)
        restored = history_from_json(history_to_json(run.history))
        assert (
            PolySIChecker().check(restored).satisfies_si
            == PolySIChecker().check(run.history).satisfies_si
        )

    def test_three_checkers_agree_on_simulated_bug(self):
        """Find a violation with a fault profile, confirm all checkers
        agree (the 'effective' criterion across tools)."""
        faults = DATABASE_PROFILES["mariadb-galera-sim"]["faults"]
        params = WorkloadParams(
            sessions=5, txns_per_session=6, ops_per_txn=4, keys=4,
            distribution="uniform",
        )
        for seed in range(12):
            spec = generate_workload(params, seed=seed)
            db = MVCCDatabase(faults=faults, seed=seed)
            run = run_workload(db, spec, seed=seed)
            poly = PolySIChecker().check(run.history)
            if not poly.satisfies_si:
                assert not CobraSIChecker().check(run.history).satisfies_si
                # dbcop sees cyclic anomalies only; lost update is cyclic.
                if poly.decided_by != "axioms":
                    assert not DbcopChecker().check_si(run.history).satisfies
                return
        raise AssertionError("fault profile produced no violation in 12 runs")

    def test_checker_reuse_across_histories(self):
        checker = PolySIChecker()
        params = WorkloadParams(
            sessions=3, txns_per_session=4, ops_per_txn=4, keys=10
        )
        for seed in range(3):
            spec = generate_workload(params, seed=seed)
            db = MVCCDatabase(seed=seed)
            run = run_workload(db, spec, seed=seed)
            assert checker.check(run.history).satisfies_si

    def test_interpretation_of_generated_violation(self):
        faults = DATABASE_PROFILES["dgraph-sim"]["faults"]
        params = WorkloadParams(
            sessions=5, txns_per_session=8, ops_per_txn=5, keys=6,
            distribution="uniform",
        )
        for seed in range(12):
            spec = generate_workload(params, seed=seed)
            db = MVCCDatabase(faults=faults, seed=seed)
            run = run_workload(db, spec, seed=seed)
            result = PolySIChecker().check(run.history)
            if not result.satisfies_si:
                example = interpret_violation(result)
                assert example.classification
                assert example.describe()
                return
        raise AssertionError("no violation found to interpret")

    def test_public_api_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
