"""Tests for segmented checking (repro.extensions.segmented)."""

import pytest

from repro import check_snapshot_isolation
from repro.core.checker import PolySIChecker
from repro.core.history import HistoryBuilder, R, W
from repro.extensions import check_segmented, run_segmented_workload
from repro.storage.database import MVCCDatabase
from repro.storage.faults import FaultConfig
from repro.workloads.generator import WorkloadParams, generate_workload


def make_run(*, faults=None, seed=0, snapshot_every=25,
             sessions=5, txns=20, ops=5, keys=10):
    params = WorkloadParams(
        sessions=sessions, txns_per_session=txns, ops_per_txn=ops,
        keys=keys, distribution="uniform",
    )
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(faults=faults, seed=seed)
    return run_segmented_workload(
        db, spec, snapshot_every=snapshot_every, seed=seed
    )


class TestInitialValues:
    """The polygraph extension that segmentation builds on."""

    def test_custom_initial_value_accepted(self):
        b = HistoryBuilder()
        b.txn(0, [R("x", 41)])     # 41 was written in a previous segment
        b.txn(1, [W("x", 42)])
        history = b.build()
        assert not check_snapshot_isolation(history).satisfies_si
        checker = PolySIChecker(initial_values={"x": 41})
        assert checker.check(history).satisfies_si

    def test_initial_value_partakes_in_version_order(self):
        # Reading the segment-initial value after observing a newer write
        # is still a violation.
        b = HistoryBuilder()
        b.txn(0, [W("x", 42)])
        b.txn(1, [R("x", 42)])
        b.txn(1, [R("x", 41)])     # stale: goes behind its own session
        checker = PolySIChecker(initial_values={"x": 41})
        assert not checker.check(b.build()).satisfies_si

    def test_unlisted_keys_keep_none_initial(self):
        b = HistoryBuilder()
        b.txn(0, [R("y", None)])
        checker = PolySIChecker(initial_values={"x": 41})
        assert checker.check(b.build()).satisfies_si


class TestSegmentedRun:
    def test_segments_created(self):
        run = make_run(snapshot_every=20)
        assert len(run.segments) >= 2
        assert len(run.snapshots) == len(run.segments) - 1

    def test_all_txns_recorded(self):
        run = make_run()
        assert run.total_txns == 5 * 20

    def test_full_history_reconstruction(self):
        run = make_run()
        history = run.full_history()
        assert len(history) == run.total_txns

    def test_snapshots_observe_written_keys(self):
        run = make_run(snapshot_every=20)
        snapshot = run.snapshots[0]
        assert snapshot  # at least one key was written before the barrier
        assert all(v is not None for v in snapshot.values() if v is not None)

    def test_segment_initials_chain(self):
        run = make_run(snapshot_every=20)
        for snapshot, segment in zip(run.snapshots, run.segments[1:]):
            assert segment.initial_values == snapshot


class TestSegmentedChecking:
    @pytest.mark.parametrize("seed", range(5))
    def test_correct_store_passes(self, seed):
        run = make_run(seed=seed)
        result = check_segmented(run)
        assert result.satisfies_si, result

    def test_verdict_matches_whole_history(self):
        for seed in range(4):
            run = make_run(seed=seed)
            seg = check_segmented(run).satisfies_si
            full = check_snapshot_isolation(run.full_history()).satisfies_si
            assert seg == full

    def test_faulty_store_caught(self):
        found = False
        for seed in range(10):
            run = make_run(
                faults=FaultConfig(no_first_committer_wins=True),
                seed=seed, keys=6,
            )
            result = check_segmented(run)
            if not result.satisfies_si:
                found = True
                assert result.failing_segment is not None
                assert not result.segment_results[-1].satisfies_si
                break
        assert found

    def test_stale_snapshot_crossing_boundary_caught(self):
        """A read reaching behind the segment barrier must be flagged."""
        found = False
        for seed in range(12):
            run = make_run(
                faults=FaultConfig(
                    stale_snapshot_prob=0.5, stale_snapshot_depth=30
                ),
                seed=seed, keys=6,
            )
            if not check_segmented(run).satisfies_si:
                found = True
                break
        assert found

    def test_checker_options_forwarded(self):
        run = make_run()
        result = check_segmented(run, prune=False)
        assert result.satisfies_si

    def test_segments_are_smaller_than_the_whole_history(self):
        """The Section 6 motivation: every segment's polygraph is
        smaller than the whole history's, in vertices and in
        constraints (what that buys in seconds is
        ``benchmarks/bench_segmented.py``'s job to measure)."""
        run = make_run(sessions=6, txns=50, keys=60, snapshot_every=40)
        seg_result = check_segmented(run)
        full = PolySIChecker().check(run.full_history()).polygraph
        assert seg_result.satisfies_si
        assert len(seg_result.segment_results) > 1
        graphs = [r.polygraph for r in seg_result.segment_results]
        assert max(g.num_vertices for g in graphs) < full.num_vertices
        assert max(g.num_constraints for g in graphs) < full.num_constraints
