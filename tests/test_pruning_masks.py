"""The pair form of the pruning rule decides what the loop form decided.

``pair_impossible`` answers the paper's two impossibility questions
(Section 4.3, Figure 4) for a branch given by its writer pair and reader
list, by int-bitset algebra on one closure row.  The per-predecessor
loop over the branch's typed edges lives on in ``tests/_helpers.py`` as
the oracle; every test here classifies the same branches against the
same state both ways and requires identical ``(either, orelse)``
decisions — over whole fixpoints (so every intermediate state is
compared, cyclic ones included), over hand-made graphs aimed at the
rule's corner cases, and inside the online checker across window
compaction and snapshot/restore.
"""

import json
import random

import pytest

from repro.core.history import HistoryBuilder, R, W
from repro.core.known import KnownGraph
from repro.core.polygraph import RW, SO, WR, WW, branch_edges, build_polygraph
from repro.core.pruning import (
    PruneResult,
    PruneState,
    apply_decisions,
    classify_constraints,
    pair_impossible,
)
from repro.histories.codec import history_to_events
from repro.listappend import build_list_polygraph, generate_list_history
from repro.online import OnlineChecker, WindowPolicy
from repro.utils.reachability import transitive_closure_bits
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.random_histories import random_history

from _helpers import (
    KERNELS,
    batch_on_kernel,
    branch_impossible_reference,
    lost_update_history,
    online_on_kernel,
)


def reference_decisions(constraints, reach, dep_preds):
    return [(branch_impossible_reference(cons.either, reach, dep_preds),
             branch_impossible_reference(cons.orelse, reach, dep_preds))
            for cons in constraints]


def assert_fixpoint_parity(graph):
    """Run the pruning fixpoint on ``graph`` by hand, classifying every
    iteration with both rules.  Returns how many iterations classified
    against a cyclic closure, so callers can require that shape."""
    state = PruneState(graph)
    result = PruneResult()
    cyclic_iterations = 0
    while True:
        reach, known = state.reach, state.known
        cyclic_iterations += reach.has_cycle()
        decisions = classify_constraints(graph.constraints, reach,
                                         known.pred_mask)
        assert decisions == reference_decisions(
            graph.constraints, reach, known.dep_preds)
        changed = apply_decisions(graph, decisions, result, state=state)
        if not result.ok or not changed:
            return cyclic_iterations


def workload(seed, read_proportion=0.5):
    return generate_history(
        WorkloadParams(sessions=5, txns_per_session=12, ops_per_txn=5,
                       keys=10, read_proportion=read_proportion,
                       distribution="zipfian"),
        seed=seed, isolation="snapshot",
    ).history


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestFixpointParity:
    """Batch pruning's fixpoint on its python kernel and with the numpy
    kernel swapped in."""

    @pytest.fixture(autouse=True)
    def _kernel(self, kernel, monkeypatch):
        batch_on_kernel(monkeypatch, kernel)

    def test_anomaly_corpus(self):
        for index, name in enumerate(sorted(ANOMALY_TEMPLATES)):
            graph, violations = build_polygraph(
                make_anomaly(name, seed=index, padding_txns=8))
            if not violations:
                assert_fixpoint_parity(graph)

    def test_valid_workloads(self):
        for seed, reads in ((1, 0.5), (2, 0.3), (3, 0.9)):
            graph, violations = build_polygraph(workload(seed, reads))
            assert not violations
            assert_fixpoint_parity(graph)

    def test_random_histories_include_cyclic_known_graphs(self):
        """About half of these violate SI; the ones whose known graph is
        cyclic classify against self-reaching rows."""
        cyclic = 0
        for seed in range(60):
            graph, violations = build_polygraph(random_history(
                random.Random(seed), sessions=4, txns_per_session=4,
                max_ops=4, keys=4))
            if not violations:
                cyclic += assert_fixpoint_parity(graph)
        assert cyclic >= 5

    def test_non_compact_construction(self):
        for seed in (1, 2):
            graph, violations = build_polygraph(workload(seed),
                                                compact=False)
            assert not violations
            assert any(len(cons.either) != len(cons.orelse)
                       for cons in graph.constraints)
            assert_fixpoint_parity(graph)

    def test_list_append_polygraphs(self):
        for seed in (1, 2, 3):
            history = generate_list_history(
                WorkloadParams(sessions=4, txns_per_session=8,
                               ops_per_txn=4, keys=5, read_proportion=0.5),
                seed=seed)
            graph, violations, _registers = build_list_polygraph(history)
            assert not violations
            assert_fixpoint_parity(graph)


# -- the rule itself, on graphs aimed at its corner cases ---------------------


def random_state(rng, n, edge_count, backend):
    """A random known graph (cycles welcome), its KI closure under
    ``backend``, and the KnownGraph it was derived from."""
    edges = []
    for _ in range(edge_count):
        u, v = rng.randrange(n), rng.randrange(n)
        label = rng.choice([SO, WR, WW, RW, RW])
        edges.append((u, v, label, None if label == SO else "k"))
    known = KnownGraph.from_edges(n, edges)
    rows = transitive_closure_bits(n, known.induced_adjacency()).rows
    return known, backend.from_rows(rows)


def random_branch(rng, n):
    """A pair-form branch with no further structure: ``(first, second,
    readers)`` where the writers may coincide and the readers may
    repeat, include either writer, or be absent."""
    readers = [rng.randrange(n) for _ in range(rng.randrange(0, 5))]
    return rng.randrange(n), rng.randrange(n), readers


@pytest.mark.parametrize("backend", sorted(KERNELS))
class TestRuleOnArbitraryGraphs:
    def test_random_branches_on_random_cyclic_graphs(self, backend):
        cls = KERNELS[backend]
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(150):
            n = rng.randrange(2, 70)
            known, reach = random_state(rng, n, rng.randrange(0, 3 * n), cls)
            for _ in range(20):
                first, second, readers = random_branch(rng, n)
                edges = branch_edges({(first, "k"): readers}, "k", first,
                                     second)
                want = branch_impossible_reference(
                    edges, reach, known.dep_preds)
                assert pair_impossible(first, second, readers, reach,
                                       known.pred_mask) == want, edges
                outcomes.add((want, reach.has_cycle()))
        # Both answers, on cyclic and acyclic graphs alike.
        assert len(outcomes) == 4

    def test_one_bit_for_ww_one_row_per_head(self, backend):
        reach = KERNELS[backend](6)
        masks = [0] * 6

        def lookups():
            return reach.counters()["queries"]

        assert not pair_impossible(0, 5, (), reach, masks)
        assert lookups() == 1                   # has(5, 0); no row
        assert not pair_impossible(0, 5, [5], reach, masks)
        assert lookups() == 2                   # the head reads nothing
        assert not pair_impossible(0, 5, [1, 2], reach, masks)
        assert lookups() == 2 + 2               # has + one shared row


class TestPredecessorIsTheHead:
    """``pred_mask[src] >> dst & 1``: the RW edge's head is itself a
    Dep-predecessor of its tail.  The composed edge would be the
    self-loop ``dst -> dst``; strict reachability has no such bit, so
    the mask rule needs the term just as the loop needed ``prec == dst``."""

    def history(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1), W("y", 1)])      # A
        b.txn(1, [W("x", 2)])                 # B
        b.txn(2, [R("x", 2), R("y", 1)])      # reader of B on x, of A on y
        return b.build()

    def test_branch_is_impossible_by_that_term_alone(self):
        graph, violations = build_polygraph(self.history())
        assert not violations
        (cons,) = graph.constraints
        assert cons.pair == (0, 1)
        state = PruneState(graph)
        # "B before A" forces RW reader -> A, and A -WR(y)-> reader.
        assert (2, 0, RW, "x") in cons.orelse
        assert state.pred_mask[2] >> 0 & 1
        assert state.reach.row(0) & state.pred_mask[2] == 0
        assert classify_constraints(
            [cons], state.reach, state.pred_mask) == [(False, True)]
        assert reference_decisions(
            [cons], state.reach, state.known.dep_preds) == [(False, True)]

    def test_reader_that_is_the_other_writer_gets_no_edge(self):
        """``branch_edges`` drops ``reader == second``: a lost update's
        branches never carry an RW self-loop, and both rules agree on
        what is left."""
        graph, violations = build_polygraph(lost_update_history())
        assert not violations
        for cons in graph.constraints:
            for u, v, _label, _key in cons.either + cons.orelse:
                assert u != v
        fresh, _ = build_polygraph(lost_update_history())
        assert_fixpoint_parity(fresh)


# -- the online checker: after compaction, after restore ----------------------


def assert_online_parity(checker):
    """The online checker's unresolved constraints, asked in pair form
    from its reader index and by the oracle over their branches."""
    known, reach = checker._known, checker._ki
    assert known.pred_mask == [
        sum(1 << p for p in preds) for preds in known.dep_preds]
    readers_from = checker._front.readers_from
    new, old = {}, {}
    for ck in checker._unresolved:
        key, t, s = ck
        new[ck] = tuple(
            pair_impossible(first, second, readers_from.get((first, key), ()),
                            reach, known.pred_mask)
            for first, second in ((t, s), (s, t)))
        _ck, either, orelse = checker._constraint(ck)
        old[ck] = (branch_impossible_reference(either, reach, known.dep_preds),
                   branch_impossible_reference(orelse, reach, known.dep_preds))
    assert new == old
    return new


def contended_events(seed):
    history = generate_history(
        WorkloadParams(sessions=4, txns_per_session=16, ops_per_txn=4,
                       keys=12, read_proportion=0.5),
        seed=seed, isolation="snapshot",
    ).history
    return history_to_events(history)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_online_checker_across_compaction_and_restore(kernel, monkeypatch):
    online_on_kernel(monkeypatch, kernel)
    compared = 0
    for seed in (3, 7):
        checker = OnlineChecker(
            window=WindowPolicy(max_live=10, gc_every=4),
            sessions=range(4))
        for session, ops, status, *_ in contended_events(seed):
            result = checker.add(session, ops, status=status)
            assert result.satisfies_si
            decisions = assert_online_parity(checker)
            if checker._wstats.compactions and decisions:
                # pred_mask is derived state: a checkpoint does not carry
                # it, and the restored checker re-derives the same masks.
                state = json.loads(json.dumps(checker.snapshot()))
                assert "pred_mask" not in json.dumps(state)
                restored = OnlineChecker.restore(state)
                assert restored._known.pred_mask == checker._known.pred_mask
                assert assert_online_parity(restored) == decisions
                compared += 1
        assert checker._wstats.compactions >= 1
    assert compared >= 5
