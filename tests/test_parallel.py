"""Tests for the parallel sharded checking engine (repro.parallel).

The load-bearing guarantee is *serial-identical verdicts*: for every
worker count, :class:`ParallelChecker` must agree with
:class:`PolySIChecker` on the verdict and the anomaly list — enforced
differentially over the random-history corpus (violating and satisfying
alike).  The rest covers the machinery those verdicts rest on:
component decomposition, subgraph extraction, picklable shard payloads,
and the deterministic merge.
"""

import pickle
import random

import pytest

from repro.core.checker import PolySIChecker
from repro.core.history import HistoryBuilder, R, W
from repro.core.polygraph import build_polygraph
from repro.interpret import interpret_violation
from repro.parallel import (
    ParallelChecker,
    ShardPlanner,
    ShardResult,
    check_snapshot_isolation_parallel,
    merge_results,
)
from repro.parallel.planner import component_payload, rebuild_component

from _helpers import build, long_fork_history, serializable_history


def islands_history(groups=3, violating=(), surviving_constraint=True):
    """``groups`` disjoint-key, disjoint-session islands.

    Each island is independently checkable: groups listed in
    ``violating`` get a lost-update anomaly; the rest are valid and
    (with ``surviving_constraint``) keep one blind write-write pair the
    solver must order, so the island genuinely reaches encode+solve.
    """
    b = HistoryBuilder()
    for g in range(groups):
        key, s = f"k{g}", 3 * g
        if g in violating:
            b.txn(s, [W(key, (g, 4))])
            b.txn(s + 1, [R(key, (g, 4)), W(key, (g, 5))])
            b.txn(s + 2, [R(key, (g, 4)), W(key, (g, 13))])
        elif surviving_constraint:
            b.txn(s, [W(key, (g, 1))])
            b.txn(s + 1, [W(key, (g, 2))])
            b.txn(s + 2, [R(key, (g, 2))])
        else:
            # Single writer per key: no write-write pair, no constraint.
            b.txn(s, [W(key, (g, 1))])
            b.txn(s + 1, [R(key, (g, 1))])
    return b.build()


def corpus(count, seed=0):
    """Mixed valid/violating random histories (≈half violate SI)."""
    histories = []
    for i in range(count):
        rng = random.Random(seed * 10_000 + i)
        histories.append(random_history_for(rng, i))
    return histories


def random_history_for(rng, i):
    from repro.workloads.random_histories import random_history

    return random_history(
        rng,
        sessions=2 + i % 3,
        txns_per_session=2 + i % 2,
        max_ops=4,
        keys=1 + i % 4,
        abort_prob=0.15 if i % 5 == 0 else 0.0,
    )


class TestComponentDecomposition:
    def test_disjoint_islands_are_components(self):
        graph, anomalies = build_polygraph(islands_history(4))
        assert not anomalies
        components = graph.weakly_connected_components()
        assert len(components) == 4
        # Each component is one island's three transactions.
        assert [len(c) for c in components] == [3, 3, 3, 3]
        assert components[0] == [0, 1, 2]

    def test_shared_key_merges_components(self):
        h = build(
            [W("x", 1), W("shared", 10)],
            [W("y", 2), W("shared", 11)],
        )
        graph, _ = build_polygraph(h)
        assert len(graph.weakly_connected_components()) == 1

    def test_init_vertex_does_not_merge_components(self):
        # Both sessions read key z's initial state: WR edges from the
        # virtual init vertex must not glue the islands together.
        h = build(
            [R("z", None), W("a", 1)],
            [R("z", None), W("b", 1)],
        )
        graph, _ = build_polygraph(h)
        assert graph.init_vertex is not None
        components = graph.weakly_connected_components()
        assert len(components) == 2
        assert graph.init_vertex not in [v for c in components for v in c]

    def test_init_rw_edge_does_merge(self):
        # A real RW edge (reader of initial z -> writer of z) connects
        # transactions even though it was derived via init.
        h = build([R("z", None)], [W("z", 9)])
        graph, _ = build_polygraph(h)
        assert len(graph.weakly_connected_components()) == 1

    def test_subgraph_fragments_check_like_the_island(self):
        h = islands_history(3, violating=(1,))
        graph, _ = build_polygraph(h)
        checker = PolySIChecker()
        verdicts = []
        for comp in graph.weakly_connected_components():
            sub, old = graph.subgraph(comp)
            assert [sub.vertex_name(i) for i in range(len(old))] == [
                graph.vertex_name(v) for v in old
            ]
            verdicts.append(checker.check_polygraph(sub).satisfies_si)
        assert verdicts == [True, False, True]

    def test_subgraph_keeps_init_edges(self):
        h = build(
            [R("z", None), W("a", 1)],
            [W("z", 9)],
        )
        graph, _ = build_polygraph(h)
        comp = graph.weakly_connected_components()[0]
        sub, old = graph.subgraph(comp)
        assert sub.init_vertex is not None
        assert old[sub.init_vertex] == graph.init_vertex
        assert any(u == sub.init_vertex for u, _v, _l, _k in sub.known_edges)


class TestShardPlanner:
    def test_one_shard_per_constrained_component(self):
        graph, _ = build_polygraph(islands_history(3))
        plan = ShardPlanner().plan_polygraph(graph)
        assert plan.strategy == "components"
        assert len(plan.shards) == 3
        assert plan.skipped_components == 0
        assert [s.index for s in plan.shards] == [0, 1, 2]

    def test_pure_components_stay_in_parent(self):
        # Islands without write-write pairs have no constraints: they
        # must be skipped, not sharded.
        graph, _ = build_polygraph(
            islands_history(3, surviving_constraint=False)
        )
        plan = ShardPlanner().plan_polygraph(graph)
        assert not plan.shards
        assert plan.skipped_components == 3
        assert sorted(plan.pure_vertices) == list(range(6))

    def test_payloads_are_picklable_and_rebuildable(self):
        graph, _ = build_polygraph(islands_history(2, violating=(0,)))
        plan = ShardPlanner().plan_polygraph(graph)
        for shard in plan.shards:
            rebuilt = rebuild_component(pickle.loads(pickle.dumps(shard.payload)))
            assert rebuilt.num_vertices == len(shard.vertex_map)
            assert rebuilt.num_constraints == shard.cost

    def test_packing_bounds_shard_count(self):
        graph, _ = build_polygraph(islands_history(6))
        plan = ShardPlanner(max_shards=2).plan_polygraph(graph)
        assert len(plan.shards) == 2
        total = sum(s.cost for s in plan.shards)
        assert total == graph.num_constraints
        # Deterministic: replanning produces the same grouping.
        again = ShardPlanner(max_shards=2).plan_polygraph(graph)
        assert [s.vertex_map for s in again.shards] == [
            s.vertex_map for s in plan.shards
        ]

    def test_component_payload_roundtrip(self):
        graph, _ = build_polygraph(islands_history(1))
        sub, _old = graph.subgraph(graph.weakly_connected_components()[0])
        rebuilt = rebuild_component(component_payload(sub))
        assert rebuilt.known_edges == sub.known_edges
        assert rebuilt.num_constraints == sub.num_constraints


class TestParallelDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_on_random_corpus(self, workers):
        serial = PolySIChecker()
        with ParallelChecker(workers, oversubscribe=True) as parallel:
            for history in corpus(24, seed=workers):
                want = serial.check(history)
                got = parallel.check(history)
                assert got.satisfies_si == want.satisfies_si, history
                assert (
                    [a.axiom for a in got.anomalies]
                    == [a.axiom for a in want.anomalies]
                )

    def test_the_polygraph_picks_the_path(self):
        """Two or more constrained components are sharded; anything less
        is the parent running the serial tail — same verdict either way."""
        serial = PolySIChecker()
        with ParallelChecker(2, oversubscribe=True) as parallel:
            for history in corpus(10, seed=99):
                got = parallel.check(history)
                assert got.satisfies_si == serial.check(history).satisfies_si
                if got.decided_by != "axioms":
                    assert got.stats["strategy"] == "serial"
                    assert "shards" not in got.stats
            for violating in ((), (1,)):
                history = islands_history(3, violating=violating)
                got = parallel.check(history)
                assert got.satisfies_si == serial.check(history).satisfies_si
                assert got.stats["strategy"] == "components"
                assert got.stats["shards"] == 3

    def test_multi_component_violation_maps_to_parent_ids(self):
        history = islands_history(3, violating=(2,))
        with ParallelChecker(2, oversubscribe=True) as parallel:
            result = parallel.check(history)
        assert not result.satisfies_si
        assert result.cycle
        vertices = {v for e in result.cycle for v in e[:2]}
        # Island 2 owns transactions 6..8 of the parent history.
        assert vertices <= {6, 7, 8}
        assert result.stats["strategy"] == "components"
        # The merged result interprets like a serial one.
        assert interpret_violation(result).classification

    def test_packed_mixed_shards_run_without_history(self):
        # Even islands keep an unresolvable blind write-write pair; odd
        # islands prune to zero constraints.  Packed together into few
        # shards, a worker's fragment turns *mixed* after pruning, so it
        # re-subgraphs a history-free rebuilt graph — which must work
        # (regression: vertex_name used to dereference the absent
        # history).
        b = HistoryBuilder()
        for g in range(6):
            key, s = f"k{g}", 3 * g
            if g % 2:
                b.txn(s, [W(key, (g, 1))])
                b.txn(s + 1, [R(key, (g, 1)), W(key, (g, 2))])
                b.txn(s + 2, [R(key, (g, 2)), W(key, (g, 3))])
            else:
                b.txn(s, [W(key, (g, 1))])
                b.txn(s + 1, [W(key, (g, 2))])
        history = b.build()
        with ParallelChecker(2, oversubscribe=True, max_shards=2) as pc:
            result = pc.check(history)
        assert result.satisfies_si
        assert result.stats["shards"] == 2

    def test_convenience_wrapper(self):
        assert check_snapshot_isolation_parallel(
            serializable_history(), workers=2, oversubscribe=True
        ).satisfies_si
        assert not check_snapshot_isolation_parallel(
            long_fork_history(), workers=2, oversubscribe=True
        ).satisfies_si

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ParallelChecker(0)


class TestMergeDeterminism:
    @staticmethod
    def shard(index, ok=True, decided_by="solving", cycle=None):
        out = ShardResult(index)
        out.satisfies_si = ok
        out.decided_by = decided_by
        out.cycle = cycle
        out.timings = {"solve": 0.25}
        return out

    def test_lowest_index_violation_wins_regardless_of_order(self):
        results = [
            self.shard(2, ok=False, decided_by="solving",
                       cycle=[(0, 1, "WW", "k")]),
            self.shard(0),
            self.shard(1, ok=False, decided_by="pruning",
                       cycle=[(1, 0, "WW", "k")]),
        ]
        merged = merge_results(
            results,
            vertex_maps={1: [10, 11], 2: [20, 21]},
        )
        assert not merged.satisfies_si
        assert merged.decided_by == "pruning"
        assert merged.cycle == [(11, 10, "WW", "k")]
        # Shuffled input, same fold.
        again = merge_results(
            list(reversed(results)),
            vertex_maps={1: [10, 11], 2: [20, 21]},
        )
        assert again.cycle == merged.cycle

    def test_satisfying_merge_sums_timings(self):
        merged = merge_results([self.shard(0), self.shard(1)])
        assert merged.satisfies_si
        assert merged.decided_by == "solving"
        assert merged.timings["solve"] == pytest.approx(0.5)
        assert merged.stats["shards_completed"] == 2


class TestSegmentedParallel:
    def test_violating_segment_interprets_like_serial(self):
        # Regression: pooled segment results must carry the segment's
        # polygraph, or interpret_violation misclassifies the witness
        # as an axiom violation.
        from repro.extensions.segmented import (
            check_segmented,
            run_segmented_workload,
        )
        from repro.storage.database import MVCCDatabase
        from repro.storage.faults import DATABASE_PROFILES
        from repro.workloads.generator import (
            WorkloadParams,
            generate_workload,
        )

        faults = DATABASE_PROFILES["mariadb-galera-sim"]["faults"]
        params = WorkloadParams(sessions=5, txns_per_session=10,
                                ops_per_txn=4, keys=6, read_proportion=0.5)
        spec = generate_workload(params, seed=0)
        run = run_segmented_workload(MVCCDatabase(faults=faults, seed=0),
                                     spec, snapshot_every=6, seed=0)
        serial = check_segmented(run)
        assert not serial.satisfies_si  # seed 0 violates within segment 0
        parallel = check_segmented(run, workers=2, oversubscribe=True)
        assert not parallel.satisfies_si
        assert parallel.failing_segment == serial.failing_segment
        want = interpret_violation(serial.segment_results[-1])
        got = interpret_violation(parallel.segment_results[-1])
        assert got.classification == want.classification

    def test_workers_match_serial_verdict(self):
        from repro.extensions.segmented import (
            check_segmented,
            run_segmented_workload,
        )
        from repro.storage.database import MVCCDatabase
        from repro.workloads.generator import (
            WorkloadParams,
            generate_workload,
        )

        params = WorkloadParams(
            sessions=4, txns_per_session=10, ops_per_txn=4,
            keys=10, read_proportion=0.5,
        )
        for isolation in ("snapshot", "read_committed"):
            spec = generate_workload(params, seed=5)
            db = MVCCDatabase(isolation=isolation, seed=5)
            run = run_segmented_workload(db, spec, snapshot_every=8, seed=5)
            serial = check_segmented(run)
            parallel = check_segmented(run, workers=2, oversubscribe=True)
            assert parallel.satisfies_si == serial.satisfies_si
            if not serial.satisfies_si:
                assert parallel.failing_segment is not None
