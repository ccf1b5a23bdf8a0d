"""Tests for segmented checking (repro.extensions.segmented)."""

import os
import pickle

import pytest

from repro import check
from repro.core.checker import PolySIChecker
from repro.core.history import HistoryBuilder, R, W
from repro.extensions import run_segmented_workload
from repro.interpret import interpret_violation
from repro.obs import validate_trace
from repro.storage.database import MVCCDatabase
from repro.storage.faults import DATABASE_PROFILES, FaultConfig
from repro.workloads.generator import WorkloadParams, generate_workload


def check_segments(run, **options):
    """The native segmented verdict, per-segment results included."""
    return check(run, mode="segmented", trace=False, **options).native


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
        assert not PolySIChecker().check(history).satisfies_si
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
        result = check_segments(run)
        assert result.satisfies_si, result

    def test_verdict_matches_whole_history(self):
        for seed in range(4):
            run = make_run(seed=seed)
            seg = check_segments(run).satisfies_si
            full = PolySIChecker().check(run.full_history()).satisfies_si
            assert seg == full

    def test_faulty_store_caught(self):
        found = False
        for seed in range(10):
            run = make_run(
                faults=FaultConfig(no_first_committer_wins=True),
                seed=seed, keys=6,
            )
            result = check_segments(run)
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
            if not check_segments(run).satisfies_si:
                found = True
                break
        assert found

    def test_checker_options_forwarded(self):
        run = make_run()
        result = check_segments(run, prune=False)
        assert result.satisfies_si

    def test_segments_are_smaller_than_the_whole_history(self):
        """The Section 6 motivation: every segment's polygraph is
        smaller than the whole history's, in vertices and in
        constraints (what that buys in seconds is
        the ``segmented`` gate's job to measure)."""
        run = make_run(sessions=6, txns=50, keys=60, snapshot_every=40)
        seg_result = check_segments(run)
        full = PolySIChecker().check(run.full_history()).polygraph
        assert seg_result.satisfies_si
        assert len(seg_result.segment_results) > 1
        graphs = [r.polygraph for r in seg_result.segment_results]
        assert max(g.num_vertices for g in graphs) < full.num_vertices
        assert max(g.num_constraints for g in graphs) < full.num_constraints


def stale_run(seed, txns, snapshot_every):
    """Four sessions behind a store serving stale snapshots, with a
    barrier every few commits: many segments, several of them
    violating."""
    return make_run(faults=FaultConfig(stale_snapshot_prob=0.1,
                                       stale_snapshot_depth=30),
                    seed=seed, sessions=4, txns=txns, ops=4, keys=10,
                    snapshot_every=snapshot_every)


#: The segment pool, forced to real processes on any host.
POOLED = {"mode": "segmented", "workers": 2, "oversubscribe": True}


class TestSegmentPool:
    """``workers > 1`` checks segments on a process pool; what it
    reports equals the serial scan."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_lowest_failing_segment_at_every_worker_count(self, workers):
        # Segments 5, 6 and 7 of this run's 8 all violate: the report must
        # name 5 however the pool's completions interleave.
        run = stale_run(seed=4, txns=30, snapshot_every=8)
        serial = check_segments(run)
        assert serial.failing_segment == 5
        pooled = check_segments(run, workers=workers, oversubscribe=True)
        assert not pooled.satisfies_si
        assert pooled.failing_segment == serial.failing_segment
        assert len(pooled.segment_results) == len(serial.segment_results)
        want, got = serial.segment_results[-1], pooled.segment_results[-1]
        assert got.decided_by == want.decided_by
        assert (interpret_violation(got).classification
                == interpret_violation(want).classification)

    def test_early_cancel_skips_queued_segments(self):
        run = stale_run(seed=7, txns=120, snapshot_every=4)
        segments = [s for s in run.segments if s.txns]
        assert len(segments) > 50
        report = check(run, **POOLED)
        assert report.stats["failing_segment"] == 0
        checked = [s for s in report.stats["trace"]["spans"]
                   if s["name"] == "segment"]
        assert len(checked) < len(segments)

    def test_violating_segment_interprets_like_serial(self):
        # Regression: pooled segment results must carry the segment's
        # polygraph, or interpret_violation misclassifies the witness
        # as an axiom violation.
        faults = DATABASE_PROFILES["mariadb-galera-sim"]["faults"]
        params = WorkloadParams(sessions=5, txns_per_session=10,
                                ops_per_txn=4, keys=6, read_proportion=0.5)
        spec = generate_workload(params, seed=0)
        run = run_segmented_workload(MVCCDatabase(faults=faults, seed=0),
                                     spec, snapshot_every=6, seed=0)
        serial = check_segments(run)
        assert not serial.satisfies_si  # seed 0 violates within segment 0
        pooled = check_segments(run, workers=2, oversubscribe=True)
        assert not pooled.satisfies_si
        assert pooled.failing_segment == serial.failing_segment
        want = interpret_violation(serial.segment_results[-1])
        got = interpret_violation(pooled.segment_results[-1])
        assert got.classification == want.classification

    def test_workers_match_serial_verdict(self):
        params = WorkloadParams(
            sessions=4, txns_per_session=10, ops_per_txn=4,
            keys=10, read_proportion=0.5,
        )
        for isolation in ("snapshot", "read_committed"):
            spec = generate_workload(params, seed=5)
            db = MVCCDatabase(isolation=isolation, seed=5)
            run = run_segmented_workload(db, spec, snapshot_every=8, seed=5)
            serial = check_segments(run)
            pooled = check_segments(run, workers=2, oversubscribe=True)
            assert pooled.satisfies_si == serial.satisfies_si
            assert pooled.failing_segment == serial.failing_segment

    def test_a_raising_segment_raises_through_the_pool(self):
        from repro.core.history import COMMITTED, DuplicateValueError
        from repro.extensions.segmented import Segment, SegmentedRun

        run = SegmentedRun()
        for index in range(4):
            segment = Segment(index, {})
            # Segment 1 writes one value twice: a broken precondition.
            values = [1, 1] if index == 1 else [10 * index]
            segment.txns = [(session, [W("x", value)], COMMITTED)
                            for session, value in enumerate(values)]
            run.segments.append(segment)
        with pytest.raises(DuplicateValueError):
            check(run, **POOLED)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        """On one CPU the segments run in-process unless
        ``oversubscribe`` asks for the pool anyway."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        run = make_run(snapshot_every=20)
        capped = check(run, mode="segmented", workers=2)
        names = [s["name"] for s in capped.stats["trace"]["spans"]]
        assert "pool" not in names and "segment" in names
        pooled = check(run, **POOLED)
        assert pooled.ok
        names = [s["name"] for s in pooled.stats["trace"]["spans"]]
        assert names.count("pool") == 1

    def test_compact_constraints_pickle_small(self):
        """The pool ships a violating segment's polygraph back: each
        constraint crosses as its pair and its two reader lists,
        with equal branches on the other side, and never as its built
        branches or the whole reader index."""
        run = stale_run(seed=4, txns=30, snapshot_every=8)
        graph = max((result.polygraph
                     for result in check_segments(run).segment_results
                     if result.polygraph is not None),
                    key=lambda graph: graph.num_constraints)
        constraints = graph.constraints
        assert constraints and any(any(cons.readers) for cons in constraints)
        index_size = len(pickle.dumps(graph.readers_from))
        for cons in constraints:
            t, s = cons.pair
            lists = (graph.readers_from.get((t, cons.key), ()),
                     graph.readers_from.get((s, cons.key), ()))
            assert cons.readers == lists
            assert cons.either and cons.orelse    # built, yet not shipped
            data = pickle.dumps(cons)
            assert len(data) <= len(pickle.dumps(
                (cons.key, t, s, *lists))) + 128
            assert len(data) < index_size
            clone = pickle.loads(data)
            assert clone.readers == lists and clone._either is None
            assert (clone.key, clone.pair) == (cons.key, cons.pair)
            assert (clone.either, clone.orelse) == (cons.either, cons.orelse)
        # A whole polygraph ships each reader list once: its constraints
        # and its reader index share them on the other side too.
        # So does a sub-polygraph: subgraph() renames each shared list
        # once, and its constraints hold the renamed index's lists.
        component = max(graph.weakly_connected_components(), key=len)
        sub, _ = graph.subgraph(component)
        assert any(any(cons.readers) for cons in sub.constraints)
        for shipped in (graph, sub):
            clone = pickle.loads(pickle.dumps(shipped))
            for cons in clone.constraints:
                t, s = cons.pair
                for writer, readers in zip((t, s), cons.readers):
                    if readers:
                        assert readers is clone.readers_from[
                            (writer, cons.key)]

    def test_worker_spans_are_adopted_under_the_pool_span(self):
        report = check(make_run(snapshot_every=20), **POOLED)
        payload = validate_trace(report.stats["trace"])
        by_id = {s["id"]: s for s in payload["spans"]}
        (pool,) = [s for s in payload["spans"] if s["name"] == "pool"]
        segments = [s for s in payload["spans"] if s["name"] == "segment"]
        assert len(segments) == len(report.native.segment_results) > 1
        for segment in segments:
            assert segment["parent"] == pool["id"]
            assert segment["worker"] not in (None, os.getpid())
        # The per-segment pipeline rides along with the same attribution.
        stages = [s for s in payload["spans"]
                  if s["parent"] in {seg["id"] for seg in segments}]
        assert {"axioms", "construct", "prune"} <= {s["name"] for s in stages}
        for stage in stages:
            assert stage["worker"] == by_id[stage["parent"]]["worker"]
