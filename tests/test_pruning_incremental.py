"""Differential parity: incremental fixpoint pruning vs the
recompute-per-iteration reference path (``tests/_helpers.py``).

The incremental fixpoint (``prune_constraints`` + ``PruneState``) must be
*indistinguishable* from ``prune_constraints_recompute`` — identical
verdicts, identical ``PruneResult`` counters (iterations / pruned /
constraints_after / unknown_deps_after), identical resulting known-edge
sets, and equally valid witness cycles — across the workload corpus:
generated zipfian workloads, the known-anomaly corpus, deep resolution
cascades, and random small histories.
"""

import random

import pytest

from repro.core.history import HistoryBuilder, R, W
from repro.core.polygraph import RW, build_polygraph
from repro.core.pruning import PruneState, prune_constraints
from repro.utils.closure import ClosureBackend
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.random_histories import random_history

from _helpers import prune_constraints_recompute, prune_iteration_state


def cascade_history(pairs: int):
    """One constraint resolves per fixpoint iteration (the ``prune``
    gate's cascade corpus shape): promoted anti-dependencies are the only bridges
    between consecutive writer pairs."""
    b = HistoryBuilder()
    for i in range(pairs):
        ops = [W(f"k{i}", f"a{i}")]
        if i > 0:
            ops.append(W(f"m{i - 1}", f"mark{i - 1}"))
        b.txn(1 + i, ops)
    for i in range(pairs):
        ops = [R(f"k{i}", f"a{i}")]
        if i + 1 < pairs:
            ops.append(R(f"m{i}", f"mark{i}"))
        b.txn(1 + pairs + i, ops)
    b.txn(0, [R("k0", "a0"), W("k0", "b0")])
    for i in range(1, pairs):
        b.txn(0, [W(f"k{i}", f"b{i}")])
    return b.build()


def assert_witness_valid(cycle):
    """A witness must be a closed induced cycle with no adjacent RWs."""
    assert cycle, "violating prune must reconstruct a witness"
    for edge, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert edge[1] == nxt[0], cycle
    labels = [e[2] for e in cycle]
    for a, b in zip(labels, labels[1:] + labels[:1]):
        assert not (a == RW and b == RW), cycle


def assert_parity(history):
    """The satellite contract: identical verdicts, counters, graphs, and
    witness validity between the two fixpoints."""
    g_inc, v1 = build_polygraph(history)
    g_ref, v2 = build_polygraph(history)
    assert bool(v1) == bool(v2)
    if v1:  # decided at construction; pruning never runs
        return None
    r_inc = prune_constraints(g_inc)
    r_ref = prune_constraints_recompute(g_ref)
    assert r_inc.as_dict() == r_ref.as_dict()
    assert sorted(map(str, g_inc.known_edges)) == sorted(
        map(str, g_ref.known_edges)
    )
    assert [str(c) for c in g_inc.constraints] == [
        str(c) for c in g_ref.constraints
    ]
    if not r_inc.ok:
        assert_witness_valid(r_inc.violation_cycle)
        assert_witness_valid(r_ref.violation_cycle)
    return r_inc


class TestWorkloadCorpusParity:
    @pytest.mark.parametrize("read_proportion", [0.3, 0.5, 0.95])
    def test_generated_workloads(self, read_proportion):
        for seed in (1, 2):
            params = WorkloadParams(
                sessions=6,
                txns_per_session=25,
                ops_per_txn=6,
                read_proportion=read_proportion,
                keys=150,
                distribution="zipfian",
            )
            history = generate_history(params, seed=seed).history
            result = assert_parity(history)
            assert result is not None and result.ok

    def test_serializable_workload(self):
        params = WorkloadParams(
            sessions=4, txns_per_session=20, ops_per_txn=5, keys=60
        )
        history = generate_history(
            params, seed=3, isolation="serializable"
        ).history
        assert_parity(history)

    @pytest.mark.parametrize("name", sorted(ANOMALY_TEMPLATES))
    def test_anomaly_corpus(self, name):
        for seed in (0, 7):
            history = make_anomaly(name, seed=seed, padding_txns=6)
            assert_parity(history)

    def test_cascade_deep_fixpoint(self):
        result = assert_parity(cascade_history(12))
        assert result.iterations == 13  # one resolution per iteration
        assert result.constraints_after == 0

    def test_random_histories(self):
        for seed in range(40):
            rng = random.Random(seed)
            history = random_history(
                rng, sessions=3, txns_per_session=3, max_ops=4, keys=3
            )
            assert_parity(history)


class TestPruneState:
    def graph(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [R("x", 1), W("x", 2)])
        b.txn(2, [W("y", 1)])
        graph, violations = build_polygraph(b.build())
        assert not violations
        return graph

    def test_matches_fresh_closure_after_promotions(self):
        graph = self.graph()
        state = PruneState(graph)
        from repro.core.pruning import WW

        state.add_known((2, 0, WW, "z"))
        state.add_known((1, 2, RW, "z"))
        rows = state.reach.int_rows()
        # Recompute from scratch over the same known edges.
        fresh, _dep_preds = prune_iteration_state(graph)
        assert rows == fresh.rows

    def test_duplicate_promotion_is_noop(self):
        graph = self.graph()
        state = PruneState(graph)
        before_edges = len(graph.known_edges)
        existing = graph.known_edges[0]
        state.add_known(existing)
        assert len(graph.known_edges) == before_edges
        assert not state._pending

    def test_flush_paths_agree(self):
        """A single large-delta reseed and many small-delta per-edge
        flushes produce identical rows, both matching a fresh closure."""
        from repro.core.pruning import WW

        def chain_graph():
            b = HistoryBuilder()
            for i in range(40):
                b.txn(i, [W(f"k{i}", i)])
            graph, violations = build_polygraph(b.build())
            assert not violations
            return graph

        bulk_graph = chain_graph()
        bulk = PruneState(bulk_graph)
        for i in range(39):
            bulk.add_known((i, i + 1, WW, f"k{i}"))
        # Over the bulk threshold: queued, but past the threshold no
        # longer recorded — the flush reseeds.
        assert bulk._queued == 39 > bulk._reseed_above
        assert len(bulk._pending) == bulk._reseed_above
        rows_bulk = bulk.reach.int_rows()

        step_graph = chain_graph()
        step = PruneState(step_graph)
        for i in range(39):
            step.add_known((i, i + 1, WW, f"k{i}"))
            assert len(step._pending) == 1  # per-edge insert path
            step.reach
        rows_step = step.reach.int_rows()

        fresh, _dep_preds = prune_iteration_state(bulk_graph)
        assert rows_bulk == rows_step == fresh.rows

    def test_counters_are_monotone_across_a_bulk_reseed(self):
        """Regression: the large-delta flush swaps in a fresh closure;
        its operation counters must continue the old one's, or the
        ``closure.<kernel>.*`` metrics under-report every fixpoint
        whose first iteration resolves most constraints."""
        from repro.core.pruning import WW

        b = HistoryBuilder()
        for i in range(40):
            b.txn(i, [W(f"k{i}", i)])
        graph, violations = build_polygraph(b.build())
        assert not violations
        state = PruneState(graph)
        # Lookups issued, one per call whatever its kind.
        for i in range(5):
            state.reach.has(i, i + 1)
        state.reach.reaches_any(0, 0b110)
        state.reach.row(0)
        state.add_known((0, 1, WW, "k0"))
        before = state.reach.counters()      # small delta: one insert
        assert before["queries"] == 7 and before["inserts_new"] == 1
        seeded = state.reach
        for i in range(1, 39):
            state.add_known((i, i + 1, WW, f"k{i}"))
        assert state.reach is not seeded     # large delta: reseeded
        after = state.reach.counters()
        assert all(after[name] >= before[name] for name in before), after
        assert state.reach.row(0) >> 39 & 1
        assert state.reach.counters()["queries"] == 8

    def test_fixpoint_lookups_are_bounded_per_branch(self, monkeypatch):
        """Classification issues one ``has`` for a branch's WW edge and
        at most one ``row`` for all its RW edges; the first iteration,
        deciding each key in bulk, one ``row`` per writer of the key.
        So the published ``closure.python.queries`` over a fixpoint lies
        above one per branch classified after it, and at most two per
        such branch plus one per writer of a key decided in bulk."""
        import repro.core.pruning as pruning_module
        from repro.core.pruning import classify_constraints
        from repro.obs import MetricsRegistry, use_metrics

        graph, violations = build_polygraph(cascade_history(6))
        assert not violations
        writers = sum(map(len, graph.writer_lists.values()))
        branches = []

        def counting(constraints, reach, pred_mask):
            branches.append(2 * len(constraints))
            return classify_constraints(constraints, reach, pred_mask)

        monkeypatch.setattr(pruning_module, "classify_constraints", counting)
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = prune_constraints(graph)
        assert result.ok and result.iterations == len(branches) + 1 > 2
        queries = registry.snapshot()["counters"]["closure.python.queries"]
        assert sum(branches) < queries <= 2 * sum(branches) + writers

    def test_cyclic_promotion_keeps_rows_exact(self):
        from repro.core.pruning import WW

        graph = self.graph()
        state = PruneState(graph)
        # 0 -> 1 exists (WR); promote 1 -> 0 to close a cycle.
        state.add_known((1, 0, WW, "c"))
        reach = state.reach
        assert reach.has(0, 0) and reach.has(1, 1)
        assert reach.has(0, 1) and reach.has(1, 0)


class TestSharedKernelRouting:
    """The acceptance criterion: one closure implementation everywhere."""

    def test_online_checker_uses_shared_kernel(self):
        from repro.online.checker import OnlineChecker

        checker = OnlineChecker()
        assert isinstance(checker._ki, ClosureBackend)

    def test_prune_state_uses_shared_kernel(self):
        graph, _ = build_polygraph(_tiny_history())
        state = PruneState(graph)
        assert isinstance(state.reach, ClosureBackend)


def _tiny_history():
    b = HistoryBuilder()
    b.txn(0, [W("x", 1)])
    return b.build()


class TestSeededWitnessSearch:
    def test_extra_edge_cycle_found_from_endpoints(self):
        from repro.core.pruning import WW, find_known_cycle

        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [R("x", 1)])
        graph, _ = build_polygraph(b.build())
        cycle = find_known_cycle(graph.known_edges, [(1, 0, WW, "x")])
        assert cycle is not None
        assert {(e[0], e[1]) for e in cycle} == {(0, 1), (1, 0)}

    def test_no_extra_edges_still_scans_all_starts(self):
        from repro.core.pruning import find_known_cycle
        from repro.core.polygraph import SO, WR

        edges = [(0, 1, WR, "x"), (1, 0, SO, None)]
        assert find_known_cycle(edges) is not None
