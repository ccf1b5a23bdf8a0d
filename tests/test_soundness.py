"""End-to-end soundness: the correct stores never produce violations, the
fault-injected stores produce detectable ones (the Table 2 experiment in
miniature, with fixed seeds)."""

import pytest

from repro.baselines.cobra import CobraChecker
from repro.core.checker import PolySIChecker
from repro.storage.faults import DATABASE_PROFILES, FaultConfig
from repro.workloads.generator import WorkloadParams, generate_history


def small_params(keys=12, read_proportion=0.5, distribution="uniform"):
    return WorkloadParams(
        sessions=5,
        txns_per_session=8,
        ops_per_txn=5,
        keys=keys,
        read_proportion=read_proportion,
        distribution=distribution,
    )


class TestCorrectStores:
    @pytest.mark.parametrize("seed", range(8))
    def test_si_store_histories_satisfy_si(self, seed):
        run = generate_history(small_params(), seed=seed)
        result = PolySIChecker().check(run.history)
        assert result.satisfies_si, result.describe()

    @pytest.mark.parametrize("seed", range(4))
    def test_serializable_store_histories_are_serializable(self, seed):
        run = generate_history(
            small_params(), seed=seed, isolation="serializable"
        )
        assert CobraChecker().check(run.history).serializable

    @pytest.mark.parametrize("seed", range(4))
    def test_serializable_store_histories_satisfy_si(self, seed):
        run = generate_history(
            small_params(), seed=seed, isolation="serializable"
        )
        assert PolySIChecker().check(run.history).satisfies_si

    @pytest.mark.parametrize("distribution", ["uniform", "zipfian", "hotspot"])
    def test_si_store_all_distributions(self, distribution):
        run = generate_history(
            small_params(distribution=distribution), seed=11
        )
        assert PolySIChecker().check(run.history).satisfies_si

    def test_aborted_transactions_do_not_confuse_checker(self):
        run = generate_history(
            small_params(keys=4), seed=3,
            faults=FaultConfig(abort_prob=0.4),
        )
        assert run.aborted > 0
        assert PolySIChecker().check(run.history).satisfies_si


class TestFaultyStores:
    def _find_violation(self, faults, *, seeds=range(15), keys=6):
        for seed in seeds:
            run = generate_history(
                small_params(keys=keys), seed=seed, faults=faults
            )
            result = PolySIChecker().check(run.history)
            if not result.satisfies_si:
                return result
        return None

    def test_lost_update_bug_detected(self):
        result = self._find_violation(
            FaultConfig(no_first_committer_wins=True)
        )
        assert result is not None

    def test_stale_snapshot_bug_detected(self):
        result = self._find_violation(
            FaultConfig(stale_snapshot_prob=0.4, stale_snapshot_depth=5)
        )
        assert result is not None

    def test_replication_fork_detected(self):
        result = self._find_violation(
            FaultConfig(replicas=2, replication_delay=4)
        )
        assert result is not None

    def test_dirty_read_bug_detected(self):
        result = self._find_violation(
            FaultConfig(read_uncommitted_prob=0.3, abort_prob=0.3)
        )
        assert result is not None

    def test_intermediate_read_bug_detected(self):
        # Needs multi-write transactions: use more ops per txn, few keys.
        faults = FaultConfig(intermediate_read_prob=0.5)
        params = WorkloadParams(
            sessions=4, txns_per_session=8, ops_per_txn=8, keys=3,
            read_proportion=0.5, distribution="uniform",
        )
        found = False
        for seed in range(15):
            run = generate_history(params, seed=seed, faults=faults)
            if not PolySIChecker().check(run.history).satisfies_si:
                found = True
                break
        assert found

    @pytest.mark.parametrize("profile", sorted(DATABASE_PROFILES))
    def test_all_database_profiles_detectable(self, profile):
        """Each simulated production database exhibits a detectable
        violation within a few seeds (the Table 2 result)."""
        faults = DATABASE_PROFILES[profile]["faults"]
        assert self._find_violation(faults, seeds=range(20)) is not None
