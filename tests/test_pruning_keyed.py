"""Pruning's first iteration decides each key's writer pairs in bulk
(repro.core.pruning.order_writers, DESIGN.md S9).

A compact polygraph leaves construction with its constraints unbuilt:
each key's writer list is all there is of them.  The first iteration
reads each writer's seeded closure row once, decides the pairs the rows
order, and builds a ``Constraint`` only for a pair they leave unordered;
a key with a writer that reaches itself, a pair with both branches
impossible, or winners that close a cycle is built and classified pair
by pair.  The claim is that nothing downstream can tell: these tests
hold the iteration's whole state — remaining constraints in order,
``pruned``, the witness, the installed pairs, ``pairs_implied``, the
closure queue and its pending list, and ``graph.known_edges`` in order
— to the per-pair iteration over the built list
(``_helpers.first_iteration``), on the fingerprint units, the Fig. 10
shapes, the corpus templates, random histories and one targeted
history per rule.  They also hold the Table 3 counters an unbuilt
polygraph reports to the sums over its built list.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history import History, HistoryBuilder, R, Transaction, W
from repro.core.polygraph import build_polygraph
from repro.core.pruning import prune_constraints
from repro.obs import Tracer, use_tracer
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.random_histories import random_history

from _helpers import first_iteration
from test_batch_fingerprint import fig10_history, unit_history, units


def assert_same_first_iteration(history):
    """The keyed and the per-pair first iteration leave the same state;
    returns it (:func:`_helpers.first_iteration_state`), or None when
    construction decides ``history``."""
    keyed_graph, violations = build_polygraph(history)
    if violations:
        return None
    pair_graph, _ = build_polygraph(history)
    keyed, _seconds = first_iteration(keyed_graph, keyed=True)
    assert keyed == first_iteration(pair_graph, keyed=False)[0]
    return keyed


def fixpoint_span(history):
    graph, _ = build_polygraph(history)
    tracer = Tracer()
    with use_tracer(tracer):
        prune_constraints(graph)
    span, = [s for s in tracer.payload()["spans"]
             if s["name"] == "prune-fixpoint"]
    return span["attrs"]


def assert_counters_are_the_built_sums(history):
    graph, violations = build_polygraph(history)
    if violations:
        return
    assert graph.writer_lists is not None
    constraints, deps = graph.num_constraints, graph.num_unknown_deps
    built = graph.copy().constraints
    assert constraints == len(built)
    assert deps == sum(c.num_unknown_deps for c in built)


@pytest.mark.parametrize("unit", units())
def test_fingerprint_units(unit):
    history = unit_history(unit)
    assert_same_first_iteration(history)
    assert_counters_are_the_built_sums(history)


def test_the_general_units_are_decided_in_bulk():
    """Most writer pairs of the benchmark shapes never become a
    ``Constraint``: ``pairs_ordered`` on the fixpoint span."""
    attrs = fixpoint_span(unit_history("general_rw/1"))
    assert attrs["pairs_ordered"] > 10 * attrs["constraints_built"] > 0
    assert attrs["pairs_ordered"] < attrs["constraints"]


@pytest.mark.parametrize("name", ["RUBiS", "TPC-C", "C-Twitter", "GeneralWH"])
def test_fig10_shapes(name):
    assert_same_first_iteration(fig10_history(name))


@pytest.mark.parametrize("template", sorted(ANOMALY_TEMPLATES))
def test_corpus_templates(template):
    for seed in (11, 12):
        assert_same_first_iteration(
            make_anomaly(template, seed=seed, padding_txns=12))


def renumbered(history, rng):
    """``history`` with its transaction ids permuted, so that a key's
    writer list (session by session) is no longer in vertex order."""
    tids = list(range(len(history.transactions)))
    rng.shuffle(tids)
    return History([[Transaction(tids[t.tid], t.ops, session=t.session,
                                 index=t.index, status=t.status)
                     for t in session] for session in history.sessions])


@given(seed=st.integers(0, 10_000_000), sessions=st.integers(1, 4),
       txns=st.integers(1, 4), keys=st.integers(1, 3),
       initial=st.sampled_from([0.0, 0.25]))
@settings(max_examples=300, deadline=None)
def test_random_histories(seed, sessions, txns, keys, initial):
    rng = random.Random(seed)
    history = random_history(
        rng, sessions=sessions, txns_per_session=txns,
        max_ops=4, keys=keys, read_initial_prob=initial)
    for subject in (history, renumbered(history, rng)):
        assert_same_first_iteration(subject)
        assert_counters_are_the_built_sums(subject)


# -- one targeted history per rule ------------------------------------------


def test_a_cyclic_seed_is_classified_pair_by_pair():
    """T0 and T1 read each other's writes, so T0 reaches itself in the
    seeded closure; its key ``x`` is built and classified pair by pair
    (the order among ``x``'s writers says nothing)."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 1), R("y", 2)])
    b.txn(1, [W("y", 2), R("x", 1)])
    b.txn(2, [W("x", 3)])
    b.txn(3, [W("x", 4)])
    state = assert_same_first_iteration(b.build())
    assert state["constraints"] or state["pruned"]
    assert fixpoint_span(b.build())["constraints_built"] == 3


def test_an_ordered_pair_whose_winner_breaks_the_rw_rule():
    """T0 precedes T1 in session order, so ``{T0, T1}`` is ordered; but
    T2 read ``x`` from T0 after its session read T1's ``y``, and the
    winning branch's RW edge ``T2 -> T1`` closes ``T1 -> T3 -> T2 ->
    T1``: both branches are impossible, in iteration 1."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 1)])
    b.txn(0, [W("x", 2), W("y", 3)])
    b.txn(1, [R("y", 3)])
    b.txn(1, [R("x", 1)])
    state = assert_same_first_iteration(b.build())
    assert not state["ok"] and state["witness"] == ("x", (0, 1))


def test_a_reader_that_is_a_later_writer_is_decided_in_bulk():
    """Read-modify-writes: each writer's reader is the next writer, so
    the union of a writer's readers' Dep-predecessors holds the writer
    itself — and still meets no successor's row."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 0)])
    for value in range(1, 5):
        b.txn(value, [R("x", value - 1), W("x", value)])
    state = assert_same_first_iteration(b.build())
    assert state["ok"] and not state["constraints"]
    attrs = fixpoint_span(b.build())
    assert attrs["pairs_ordered"] == 10 and attrs["constraints_built"] == 0


def test_an_unordered_pair_decided_by_the_rw_rule():
    """T0 and T1 write ``x`` unordered; T3 read ``x`` from T0 and ``y``
    from T2, which follows T1 in session order.  "T0 first" would give
    T3 an RW edge to T1, composing ``T2 -> T3 -> T1`` against ``T1 ->
    T2``: so T1 goes first, decided without leaving a constraint."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 1)])
    b.txn(1, [W("x", 2)])
    b.txn(1, [W("y", 3)])
    b.txn(2, [R("x", 1), R("y", 3)])
    state = assert_same_first_iteration(b.build())
    assert state["ok"] and state["pruned"] == 1 and not state["constraints"]
    assert [e for e in state["known_edges"] if e[2] == "WW"] == [
        (1, 0, "WW", "x")]


def test_an_iteration_that_does_not_reseed_queues_in_pair_order():
    """Few promoted pairs stay under the reseed threshold, so the
    pending list is flushed edge by edge, in install order: each writer
    by the pair it first wins, then by position."""
    b = HistoryBuilder()
    for session, value in ((2, 1), (0, 2), (1, 3), (0, 4), (2, 5)):
        b.txn(session, [R("x", None), W("x", value)])
    for session in range(3):
        b.txn(session, [R("x", 4)])
    state = assert_same_first_iteration(b.build())
    assert 0 < state["queued"] == len(state["pending"]) <= 16


def test_the_remaining_constraints_keep_the_writer_lists_order():
    """Transaction ids interleave the sessions, so ``x``'s writer list
    (session by session) is ``[3, 0, 1, 2]``: four blind writers, two
    pairs ordered by their sessions, four left unordered — in list
    order, not vertex order."""
    ops = [[W("x", tid)] for tid in range(4)]
    history = History([
        [Transaction(3, ops[3], session=0, index=0),
         Transaction(0, ops[0], session=0, index=1)],
        [Transaction(1, ops[1], session=1, index=0),
         Transaction(2, ops[2], session=1, index=1)],
    ])
    state = assert_same_first_iteration(history)
    assert [pair for _key, pair, _rt, _rs in state["constraints"]] == [
        (3, 1), (3, 2), (0, 1), (0, 2)]
