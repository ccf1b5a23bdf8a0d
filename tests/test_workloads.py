"""Tests for workload generation: parametric, key distributions, benchmark
mixes, and execution through the client recorder."""

import random
from collections import Counter

import pytest

from repro.core.history import INITIAL_VALUE
from repro.storage.client import run_workload
from repro.storage.database import MVCCDatabase
from repro.workloads.benchmarks import (
    ctwitter_workload,
    rubis_workload,
    tpcc_workload,
)
from repro.workloads.generator import (
    WorkloadParams,
    generate_history,
    generate_workload,
)
from repro.workloads.keydist import (
    HotspotKeys,
    UniformKeys,
    ZipfianKeys,
    make_distribution,
)


class TestKeyDistributions:
    def test_uniform_range(self, rng):
        dist = UniformKeys(10)
        samples = [dist.sample(rng) for _ in range(1000)]
        assert min(samples) >= 0 and max(samples) < 10
        assert len(set(samples)) == 10

    def test_zipfian_skew(self, rng):
        dist = ZipfianKeys(1000, theta=0.99)
        samples = Counter(dist.sample(rng) for _ in range(5000))
        top = sum(count for key, count in samples.items() if key < 10)
        assert top > 0.3 * 5000  # the hottest 1% draws >30% of accesses

    def test_zipfian_large_keyspace(self, rng):
        dist = ZipfianKeys(1_000_000_000)
        samples = [dist.sample(rng) for _ in range(200)]
        assert all(0 <= s < 1_000_000_000 for s in samples)

    def test_zipfian_single_key(self, rng):
        """Regression: ``num_keys == 1`` drove ``_eta`` negative through
        ``(2/num_keys)**(1-theta) > 1`` (and ``_zeta2 == _zetan`` divides
        by zero); the degenerate space must just return its only key."""
        dist = ZipfianKeys(1)
        assert all(dist.sample(rng) == 0 for _ in range(100))

    def test_zipfian_two_keys_boundary(self, rng):
        # The smallest non-degenerate space: constants well-defined,
        # samples in range, rank 0 hotter than rank 1.
        dist = ZipfianKeys(2)
        assert dist._eta >= 0
        samples = Counter(dist.sample(rng) for _ in range(2000))
        assert set(samples) <= {0, 1}
        assert samples[0] > samples[1]

    def test_zipfian_single_key_through_generator(self):
        params = WorkloadParams(
            sessions=2, txns_per_session=4, ops_per_txn=3, keys=1,
            distribution="zipfian",
        )
        history = generate_history(params, seed=1).history
        keys = {op.key for txn in history.transactions for op in txn.ops}
        assert keys == {"k0"}

    def test_hotspot_80_20(self, rng):
        dist = HotspotKeys(100)
        samples = [dist.sample(rng) for _ in range(5000)]
        hot = sum(1 for s in samples if s < dist.hot_keys)
        assert 0.7 * 5000 < hot < 0.9 * 5000

    def test_factory(self):
        assert isinstance(make_distribution("uniform", 5), UniformKeys)
        assert isinstance(make_distribution("zipfian", 5), ZipfianKeys)
        assert isinstance(make_distribution("hotspot", 5), HotspotKeys)
        with pytest.raises(ValueError):
            make_distribution("normal", 5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UniformKeys(0)
        with pytest.raises(ValueError):
            ZipfianKeys(10, theta=1.5)


class TestParametricGenerator:
    def test_shape_matches_params(self):
        params = WorkloadParams(
            sessions=3, txns_per_session=4, ops_per_txn=5, keys=10
        )
        spec = generate_workload(params, seed=1)
        assert len(spec) == 3
        assert all(len(s) == 4 for s in spec)
        assert all(len(t) == 5 for s in spec for t in s)

    def test_unique_written_values(self):
        params = WorkloadParams(
            sessions=4, txns_per_session=5, ops_per_txn=6, keys=5,
            read_proportion=0.3,
        )
        spec = generate_workload(params, seed=2)
        written = [op[2] for s in spec for t in s for op in t if op[0] == "w"]
        assert len(written) == len(set(written))

    def test_read_proportion_respected(self):
        params = WorkloadParams(
            sessions=2, txns_per_session=50, ops_per_txn=10, keys=100,
            read_proportion=0.9,
        )
        spec = generate_workload(params, seed=3)
        ops = [op for s in spec for t in s for op in t]
        reads = sum(1 for op in ops if op[0] == "r")
        assert reads / len(ops) > 0.8

    def test_deterministic_by_seed(self):
        params = WorkloadParams(sessions=2, txns_per_session=3, ops_per_txn=4)
        assert generate_workload(params, seed=7) == generate_workload(
            params, seed=7
        )
        assert generate_workload(params, seed=7) != generate_workload(
            params, seed=8
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            WorkloadParams(sessions=0)
        with pytest.raises(ValueError):
            WorkloadParams(read_proportion=1.5)

    def test_totals(self):
        params = WorkloadParams(sessions=2, txns_per_session=3, ops_per_txn=4)
        assert params.total_txns == 6
        assert params.total_ops == 24


class TestClientRecorder:
    def test_history_covers_all_txns(self):
        params = WorkloadParams(
            sessions=3, txns_per_session=5, ops_per_txn=4, keys=10
        )
        run = generate_history(params, seed=4)
        assert len(run.history) == run.committed + run.aborted == 15

    def test_drop_aborted_option(self):
        spec = [[[("w", "x", 1)]], [[("w", "x", 2)]]]
        db = MVCCDatabase(seed=0)
        # Interleave so one must abort under first-committer-wins.
        run = run_workload(db, spec, seed=1, record_aborted=False)
        assert all(t.committed for t in run.history.transactions)

    def test_recorded_values_match_database(self):
        spec = [
            [[("w", "x", 1)], [("r", "x")]],
        ]
        db = MVCCDatabase(seed=0)
        run = run_workload(db, spec, seed=0)
        read_op = run.history.sessions[0][1].ops[0]
        assert read_op.value == 1

    def test_initial_reads_recorded_as_none(self):
        spec = [[[("r", "nope")]]]
        db = MVCCDatabase(seed=0)
        run = run_workload(db, spec, seed=0)
        assert run.history.sessions[0][0].ops[0].value is INITIAL_VALUE


class TestBenchmarkMixes:
    def test_rubis_shape(self):
        spec = rubis_workload(sessions=4, total_txns=40, seed=1)
        txns = [t for s in spec for t in s]
        assert len(txns) == 40
        keys = {op[1] for t in txns for op in t}
        assert any(k.startswith("item:") for k in keys)

    def test_tpcc_rmw_pattern(self):
        """Every TPC-C write to warehouse/district/customer/stock keys is
        preceded by a read of the same key (the property that lets pruning
        resolve all of TPC-C's constraints, Table 3)."""
        spec = tpcc_workload(sessions=4, total_txns=60, seed=2)
        for session in spec:
            for txn in session:
                seen_reads = set()
                for op in txn:
                    if op[0] == "r":
                        seen_reads.add(op[1])
                    elif not op[1].startswith("o:"):
                        assert op[1] in seen_reads, txn

    def test_ctwitter_shape(self):
        spec = ctwitter_workload(sessions=4, total_txns=40, seed=3)
        txns = [t for s in spec for t in s]
        assert len(txns) == 40

    def test_unique_values_across_mixes(self):
        for factory in (rubis_workload, tpcc_workload, ctwitter_workload):
            spec = factory(sessions=3, total_txns=30, seed=4)
            written = [
                op[2] for s in spec for t in s for op in t if op[0] == "w"
            ]
            assert len(written) == len(set(written)), factory.__name__

    def test_benchmarks_run_clean_on_si_store(self):
        from repro import PolySIChecker

        for factory in (rubis_workload, tpcc_workload, ctwitter_workload):
            spec = factory(sessions=4, total_txns=30, seed=5)
            db = MVCCDatabase(seed=5)
            run = run_workload(db, spec, seed=5)
            assert PolySIChecker().check(run.history).satisfies_si, (
                factory.__name__
            )
