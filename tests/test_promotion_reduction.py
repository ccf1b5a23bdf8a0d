"""Promotion installs each key's version order as a chain
(repro.core.pruning.PruneState.promote).

An iteration's winners on one key are WW pairs over its writers (in
iteration 1, often most of its version order, transitively closed),
each with its readers' RW pairs; the known graph gains only the pairs
the others do not imply.  The claim is that nothing a later stage
asks can tell: the closure of the reduced graph *is* the closure of the
pair projection of every typed known edge.  These tests hold it to that
at every closure flush and reseed and at the end of the fixpoint, with
the reduced pairs a subset of the full ones, over the fingerprint
units, the Fig. 10 ablation shapes (both polygraph forms), every corpus
template and random histories.  The verdicts, counters and witnesses
this leaves unchanged are held by ``test_batch_fingerprint.py``,
``test_pruning_incremental.py`` and ``test_si_oracle.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.pruning as pruning
from repro.core.history import HistoryBuilder, R, W
from repro.core.known import KnownGraph
from repro.core.polygraph import build_polygraph
from repro.core.pruning import PruneState, prune_constraints
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.random_histories import random_history

from test_batch_fingerprint import fig10_history, unit_history, units


def full_graph(graph):
    """The pair projection of every typed known edge: what promotion
    installed before it skipped implied pairs."""
    return KnownGraph.from_edges(graph.num_vertices, graph.known_edges)


def assert_equivalent(state):
    """``state``'s closure is the closure of the full pair projection,
    and its pairs are some of that projection's."""
    full = full_graph(state.graph)
    assert state._reach.int_rows() == full.closure().rows
    known = state.known
    for u in range(full.num_vertices):
        assert known.dep[u] <= full.dep[u], u
        assert known.antidep[u] <= full.antidep[u], u
    assert known.pred_mask == [
        sum(1 << p for p in preds) for preds in known.dep_preds]


def prune_checked(history, compact=True):
    """Prune ``history``'s polygraph with the fixpoint's state held to
    :func:`assert_equivalent` after every flush and every seed; returns
    ``(graph, result, state)``, or None when construction decided the
    history."""
    graph, violations = build_polygraph(history, compact=compact)
    if violations:
        return None
    states = []

    class Checked(PruneState):
        def __init__(self, graph):
            super().__init__(graph)
            states.append(self)

        def _flush(self):
            super()._flush()
            assert_equivalent(self)

        def _seed(self, reseed):
            closure = super()._seed(reseed)
            assert (closure.int_rows()
                    == full_graph(self.graph).closure().rows)
            return closure

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pruning, "PruneState", Checked)
        result = prune_constraints(graph)
    state, = states
    state.reach  # flushes (and so checks) whatever is still queued
    assert_equivalent(state)
    return graph, result, state


@pytest.mark.parametrize("unit", units())
def test_fingerprint_units(unit):
    reached = prune_checked(unit_history(unit))
    if reached is not None and unit.startswith("general_rw"):
        # The shape the reduction is for: most promoted pairs skipped.
        state = reached[2]
        installed = (sum(map(len, state.known.dep))
                     + sum(map(len, state.known.antidep)))
        assert state.pairs_implied > installed


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("name", ["RUBiS", "TPC-C", "C-Twitter", "GeneralWH"])
def test_fig10_shapes(name, compact):
    prune_checked(fig10_history(name), compact=compact)


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("template", sorted(ANOMALY_TEMPLATES))
def test_corpus_templates(template, compact):
    for seed in range(3):
        prune_checked(make_anomaly(template, seed=seed, padding_txns=20),
                      compact=compact)


@given(seed=st.integers(0, 10_000_000), sessions=st.integers(1, 4),
       txns=st.integers(1, 5), keys=st.integers(1, 3),
       abort=st.sampled_from([0.0, 0.15]), compact=st.booleans())
@settings(max_examples=200, deadline=None)
def test_random_histories(seed, sessions, txns, keys, abort, compact):
    prune_checked(random_history(
        random.Random(seed), sessions=sessions, txns_per_session=txns,
        max_ops=4, keys=keys, abort_prob=abort), compact=compact)


def chain_of_writers(writers):
    """``writers`` blind writes of one key in one session, each version
    read by a reader of its own: the version order is known from the
    session, so iteration 1 resolves every writer pair at once."""
    b = HistoryBuilder()
    for i in range(writers):
        b.txn(0, [W("x", i)])
    for i in range(writers):
        b.txn(1 + i, [R("x", i)])
    return b.build()


def test_a_resolved_version_order_is_installed_as_its_chain():
    n = 6
    graph, result, state = prune_checked(chain_of_writers(n))
    assert result.ok and result.pruned == n * (n - 1) // 2
    ww = [(u, v) for u in range(n) for v in state.known.dep[u]
          if v < n and u < n]
    # Session order already chains the writers; promotion adds no WW
    # pair, and each reader gets the RW pair to the next version only.
    assert sorted(ww) == [(i, i + 1) for i in range(n - 1)]
    antidep = sorted((u, v) for u in range(n, 2 * n)
                     for v in state.known.antidep[u])
    assert antidep == [(n + i, i + 1) for i in range(n - 1)]
    skipped_ww = n * (n - 1) // 2 - (n - 1)
    assert state.pairs_implied == 2 * skipped_ww


def test_counters_on_the_fixpoint_span_and_in_the_metrics():
    tracer, registry = Tracer(), MetricsRegistry()
    graph, _violations = build_polygraph(chain_of_writers(5))
    with use_tracer(tracer), use_metrics(registry):
        prune_constraints(graph)
    span, = [s for s in tracer.payload()["spans"]
             if s["name"] == "prune-fixpoint"]
    counters = registry.snapshot()["counters"]
    full = full_graph(graph)
    for name, value in (("known_dep_pairs", None),
                        ("known_antidep_pairs", 4),
                        ("pairs_implied", 12)):
        assert span["attrs"][name] == counters[f"prune.{name}"]
        if value is not None:
            assert span["attrs"][name] == value
    assert span["attrs"]["known_dep_pairs"] <= sum(map(len, full.dep))
    assert (span["attrs"]["known_antidep_pairs"] + 6
            == sum(map(len, full.antidep)))


def test_the_witness_reads_the_winners_before_it():
    """Collected winners are promoted before the witness is searched:
    ``T0 -> T1`` on ``k2`` wins in the iteration whose next-but-one
    constraint, ``{T1, T2}`` on ``k2``, has both branches impossible,
    and its RW edge ``T2 -> T1`` closes the shortest witness.  Searched
    without it, the witness is another cycle."""
    b = HistoryBuilder()
    b.txn(0, [R("k1", None), W("k2", 1), W("k0", 2), W("k0", 3)])
    b.txn(0, [W("k2", 4)])
    b.txn(1, [W("k1", 5), R("k2", 1), W("k0", 6), W("k2", 7)])
    b.txn(1, [R("k1", None), R("k2", 4), W("k1", 8)])
    graph, result, _state = prune_checked(b.build())
    assert not result.ok and result.iterations == 1 and result.pruned == 2
    assert result.violation_constraint.pair == (1, 2)
    assert result.violation_cycle == [(1, 2, "WW", "k2"), (2, 1, "RW", "k2")]


def test_chain_masks():
    bit, via = pruning._chain_masks({(0, 1): [], (1, 2): [], (0, 2): []})
    # 0 reaches 2 through 1: the pair 0 -> 2 is the one to skip.
    assert via == {0: bit[2], 1: 0, 2: 0}
    bit, via = pruning._chain_masks({(0, 1): [], (1, 2): [], (2, 0): []})
    assert bit == via == {0: 0, 1: 0, 2: 0}


def test_winners_that_close_a_cycle_are_installed_as_they_are():
    """Three blind writers of one key whose winners run 0 -> 1 -> 2 -> 0
    (a violating iteration can resolve them so): no pair implies
    another, all three go in, and the closure has the cycle."""
    b = HistoryBuilder()
    for session in range(3):
        b.txn(session, [W("x", session)])
    graph, violations = build_polygraph(b.build())
    assert not violations
    winners = {c.pair: c for c in graph.constraints}
    state = PruneState(graph)
    state.promote([(winners[(0, 1)], True), (winners[(0, 2)], False),
                   (winners[(1, 2)], True)])
    assert state.pairs_implied == 0
    assert [state.known.dep[v] for v in range(3)] == [{1}, {2}, {0}]
    state.reach
    assert_equivalent(state)
    assert state.reach.has(0, 0)


def test_pairs_with_different_readers_go_in_as_they_are():
    """The ablation's one-reader pieces: ``first``'s pairs carry
    different reader lists, so none is skipped, and the closure still
    agrees."""
    graph, result, state = prune_checked(chain_of_writers(4), compact=False)
    assert result.ok and state.pairs_implied == 0
    compact = prune_checked(chain_of_writers(4))[2]
    assert compact.pairs_implied > 0
