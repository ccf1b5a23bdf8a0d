"""One front half (repro.core.polygraph.PolygraphBuilder).

Read matching, axiom detection and known-edge emission are written once
and scheduled twice: in bulk by ``build_polygraph`` (every write indexed
before any read is matched) and per arrival by ``OnlineChecker``.  These
tests hold the one copy to two things that share no code with it — a
transcription of Definition 9 (``_helpers.polygraph_reference``) and the
declarative axioms of ``repro.core.axioms`` — and hold the two schedules
to each other: any arrival order that respects session order ends where
the bulk schedule ends.  They also pin the three inputs on which the two
former copies disagreed, the ordered constraint list the parent commit
produced, and that there is one copy.
"""

import ast
import hashlib
import inspect
import itertools
import json
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.axioms import check_axioms
from repro.core.checker import PolySIChecker
from repro.core.history import (
    ABORTED,
    COMMITTED,
    DuplicateValueError,
    History,
    HistoryBuilder,
    R,
    Transaction,
    W,
)
from repro.core.polygraph import (
    PolygraphBuilder,
    build_polygraph,
    index_history,
    match_history,
)
from repro.core.pruning import prune_constraints
from repro.online import OnlineChecker, WindowPolicy
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history

from _helpers import polygraph_reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "repro")
KEYS = ("x", "y", "z")
AXIOMS = ("Int", "AbortedReads", "IntermediateReads")


# -- histories ----------------------------------------------------------------


def make_sessions(rng, sessions, txns, fault, initial):
    """``sessions`` lists of ``(ops, status)``.  Every write installs a
    fresh value (some transactions write a key twice, some abort); a
    read mostly observes the initial state, the ``initial`` map or some
    committed final write — of *any* transaction, so readers precede
    their writers in id order and across sessions — and with
    probability ``fault`` an aborted, overwritten, never-written or
    internally inconsistent value.  An aborted transaction may write
    the very value ``initial`` declares."""
    fresh = iter(range(100, 10_000))
    plan = [[(rng.random() < 0.2, [(rng.random() < 0.5, rng.choice(KEYS))
                                   for _ in range(rng.randint(1, 4))])
             for _ in range(txns)] for _ in range(sessions)]
    finals, unreadable = {k: [] for k in KEYS}, {k: [777] for k in KEYS}
    values = {}
    for s, session in enumerate(plan):
        for i, (aborted, ops) in enumerate(session):
            last = {}
            for j, (is_read, key) in enumerate(ops):
                if is_read:
                    continue
                value = next(fresh)
                if (fault and aborted and key in initial
                        and rng.random() < 0.5):
                    value = initial[key]
                if key in last:
                    unreadable[key].append(last[key])
                last[key] = values[s, i, j] = value
            for key, value in last.items():
                (unreadable if aborted else finals)[key].append(value)
    out = []
    for s, session in enumerate(plan):
        built = []
        for i, (aborted, ops) in enumerate(session):
            seen, txn = {}, []
            for j, (is_read, key) in enumerate(ops):
                if not is_read:
                    seen[key] = values[s, i, j]
                    txn.append(W(key, seen[key]))
                    continue
                if key in seen and rng.random() >= fault:
                    value = seen[key]
                elif rng.random() < fault:
                    value = rng.choice(unreadable[key])
                else:
                    value = rng.choice(
                        [None, initial.get(key)] + finals[key])
                seen[key] = value
                txn.append(R(key, value))
            built.append((txn, ABORTED if aborted else COMMITTED))
        out.append(built)
    return out


def history_of(sessions):
    builder = HistoryBuilder()
    for s, session in enumerate(sessions):
        for ops, status in session:
            builder.txn(s, ops, status=status)
    return builder.build()


def arrival_order(rng, sessions):
    """A random merge of the sessions, each kept in its own order."""
    heads = [0] * len(sessions)
    order = []
    while len(order) < sum(map(len, sessions)):
        s = rng.choice([s for s, session in enumerate(sessions)
                        if heads[s] < len(session)])
        order.append((s, *sessions[s][heads[s]]))
        heads[s] += 1
    return order


@st.composite
def drawn(draw, fault=None):
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    rng = random.Random(seed)
    if fault is None:
        fault = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
    initial = draw(st.sampled_from([{}, {}, {"x": 5}, {"x": 5, "z": 6}]))
    sessions = make_sessions(
        rng, draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=1, max_value=4)), fault, initial)
    return rng, sessions, initial


def identity(anomaly):
    return (anomaly.axiom, anomaly.txn.name, anomaly.key, anomaly.value)


def named(edges, name):
    return {(name(u), name(v), label, key) for u, v, label, key in edges}


# -- the bulk schedule against two specifications -------------------------------


class TestBulkSchedule:
    @settings(max_examples=200, deadline=None)
    @given(drawn())
    def test_axioms_equal_the_declarative_ones(self, case):
        _rng, sessions, initial = case
        history = history_of(sessions)
        builder, graph = index_history(history, initial)
        anomalies = match_history(builder, graph)
        got = [a for a in anomalies if a.axiom in AXIOMS]
        want = check_axioms(history)
        assert [(identity(a), a.detail) for a in got] == [
            (identity(a), a.detail) for a in want]
        assert [a.txn for a in got] == [a.txn for a in want]
        # ... and the checker reports exactly the builder's list.
        result = PolySIChecker(initial_values=initial).check(history)
        assert [(identity(a), a.detail) for a in result.anomalies] == [
            (identity(a), a.detail) for a in anomalies]
        assert (result.decided_by == "axioms") == bool(anomalies)

    @settings(max_examples=200, deadline=None)
    @given(drawn(fault=0.0))
    def test_polygraph_equals_definition_9(self, case):
        _rng, sessions, initial = case
        history = history_of(sessions)
        assert not check_axioms(history)
        graph, _unmatched = build_polygraph(history, initial_values=initial)
        known, readers, constraints = polygraph_reference(history, initial)
        assert set(graph.known_edges) == known
        assert len(graph.known_edges) == len(known)
        assert graph.readers_from == readers
        assert [(c.key, c.pair, c.either, c.orelse)
                for c in graph.constraints] == constraints
        has_init = any(w == len(history) for w, _k in readers)
        assert graph.init_vertex == (len(history) if has_init else None)
        assert graph.num_vertices == len(history) + has_init

    def test_exotic_transaction_ids_keep_session_order(self):
        """SO follows the session lists even when ids do not."""
        history = History([[Transaction(1, [W("x", 1)], session=0, index=0),
                            Transaction(0, [W("x", 2)], session=0, index=1)]])
        graph, _ = build_polygraph(history)
        assert graph.known_by_label("SO") == [(1, 0, "SO", None)]


# -- schedule independence ----------------------------------------------------


class TestScheduleIndependence:
    @settings(max_examples=150, deadline=None)
    @given(drawn())
    def test_every_arrival_order_ends_where_bulk_ends(self, case):
        rng, sessions, initial = case
        history = history_of(sessions)
        bulk = PolySIChecker(initial_values=initial).check(history)
        want = Counter(map(identity, bulk.anomalies))
        for window in (None, WindowPolicy(max_live=3, gc_every=1)):
            for _ in range(3):
                checker = OnlineChecker(
                    initial_values=initial, window=window,
                    sessions=range(len(sessions)))
                for session, ops, status in arrival_order(rng, sessions):
                    checker.add(session, ops, status=status)
                final = checker.finish()
                assert final.satisfies_si == bulk.satisfies_si
                got = Counter(map(identity, final.anomalies))
                if window is not None:
                    # A read of an evicted version shows as unjustified:
                    # a coarser label on the same verdict.
                    continue
                # A stream stops at its first anomalous arrival.
                assert not got - want
                if len(want) == 1 and final.decided_by == "axioms":
                    assert got == want
                if final.satisfies_si:
                    self.same_known_edges(history, initial, checker)

    def test_a_compaction_keeps_an_aborted_write_of_an_initial_value(self):
        """Found by the property above: once the aborted writer of
        ``z=6`` predates the window, a later read of 6 must not fall
        back to the caller's ``initial_values={"z": 6}`` and pass."""
        txns = [([W("x", 100)], COMMITTED),
                ([W("z", 6), W("y", 102), R("z", 6)], ABORTED),
                ([W("x", 103), R("z", None), W("y", 104)], COMMITTED),
                ([R("z", 6)], COMMITTED)]
        initial = {"x": 5, "z": 6}
        assert not PolySIChecker(initial_values=initial).check(
            history_of([txns])).satisfies_si
        checker = OnlineChecker(initial_values=initial, sessions=range(1),
                                window=WindowPolicy(max_live=3, gc_every=1))
        for ops, status in txns:
            checker.add(0, ops, status=status)
        final = checker.finish()
        assert final.stats["window"]["compactions"]
        assert final.satisfies_si is False

    #: Found by the property above: the aborted writer of the declared
    #: ``x=5`` arrives after a window evicted ``T:(1,1)``, its reader.
    EVICTED_READER = (
        [([W("z", 100), W("y", 101), W("z", 102), W("z", 103)], COMMITTED),
         ([R("z", None)], ABORTED),
         ([W("x", 104), W("x", 5)], ABORTED)],
        [([R("y", 101)], ABORTED),
         ([R("x", 5)], COMMITTED),
         ([R("z", None)], COMMITTED)],
    )

    def test_an_evicted_read_of_an_initial_value_is_still_flagged(self):
        """Every arrival order, with and without a window that evicts,
        straight and restored from a checkpoint at every split: the
        reader of ``x=5`` is reported as the batch checker reports it."""
        sessions, initial = self.EVICTED_READER, {"x": 5}
        bulk = PolySIChecker(initial_values=initial).check(
            history_of(sessions))
        want = [identity(a) for a in bulk.anomalies]
        assert want == [("AbortedReads", "T:(1,1)", "x", 5)]
        orders = sorted(set(itertools.permutations(
            [s for s, session in enumerate(sessions) for _ in session])))
        assert len(orders) == 20
        evicted = 0
        for order in orders:
            heads = [0] * len(sessions)
            arrivals = []
            for s in order:
                arrivals.append((s, *sessions[s][heads[s]]))
                heads[s] += 1
            for window in (None, WindowPolicy(max_live=3, gc_every=1)):
                for split in [None, *range(1, len(arrivals))]:
                    checker = OnlineChecker(initial_values=initial,
                                            window=window,
                                            sessions=range(len(sessions)))
                    ok = True
                    for at, (session, ops, status) in enumerate(arrivals):
                        if at == split and ok:   # a latched verdict is final
                            checker = OnlineChecker.restore(json.loads(
                                json.dumps(checker.snapshot())))
                        ok = checker.add(session, ops,
                                         status=status).satisfies_si
                    final = checker.finish()
                    assert final.satisfies_si is False, (order, window,
                                                         split)
                    assert [identity(a) for a in final.anomalies] == want
                    evicted += bool(final.stats.get("window", {}).get(
                        "evicted"))
        assert evicted

    @staticmethod
    def same_known_edges(history, initial, checker):
        graph, _ = build_polygraph(history, initial_values=initial)
        assert prune_constraints(graph).ok
        assert named(checker._known_edges, checker._vertex_name) == named(
            graph.known_edges, graph.vertex_name)

    @settings(max_examples=150, deadline=None)
    @given(drawn(fault=0.0))
    def test_the_builder_alone_per_arrival(self, case):
        """No checker around it: the two calls per arrival leave the
        indexes and the emitted edges the bulk schedule leaves."""
        rng, sessions, initial = case
        bulk, graph = index_history(history_of(sessions), initial)
        want = Counter(map(identity, match_history(bulk, graph)))
        names, edges, position = {0: "T:init"}, [], Counter()
        builder = PolygraphBuilder(edges.append, 0, initial)
        for tid, (session, ops, status) in enumerate(
                arrival_order(rng, sessions)):
            txn = Transaction(tid, ops, session=session,
                              index=position[session], status=status)
            position[session] += 1
            vertex = len(names) if status == COMMITTED else None
            builder.index_writes(txn, vertex)
            if status == COMMITTED:
                names[vertex] = txn.name
                builder.match_reads(txn, vertex)
        assert Counter(map(identity, builder.finish())) == want
        assert len(edges) == len(graph.known_edges)
        assert named(edges, names.get) == named(graph.known_edges,
                                                graph.vertex_name)

        def by_name(table, name):
            return {(name(w), key): sorted(map(name, readers))
                    for (w, key), readers in table.items()}

        assert by_name(builder.readers_from, names.get) == by_name(
            bulk.readers_from, graph.vertex_name)
        assert {key: sorted(map(names.get, writers))
                for key, writers in builder.writers_of.items()} == {
            key: sorted(map(graph.vertex_name, writers))
            for key, writers in bulk.writers_of.items()}
        assert builder.init_keys == bulk.init_keys


# -- where the two former copies disagreed --------------------------------------


class TestOneRule:
    @pytest.mark.parametrize("mode", ["batch", "online"])
    def test_every_matching_axiom_is_reported(self, mode):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)], status=ABORTED)
        b.txn(1, [W("x", 1), W("x", 2)])
        b.txn(2, [R("x", 1)])
        report = repro.check(b.build(), mode=mode)
        assert not report.ok and report.decided_by == "axioms"
        assert [a.axiom for a in report.anomalies] == [
            "AbortedReads", "IntermediateReads"]

    @pytest.mark.parametrize("mode", ["batch", "online"])
    @pytest.mark.parametrize("reader_first", [False, True])
    def test_evidence_outranks_the_initial_values_map(self, mode,
                                                      reader_first):
        b = HistoryBuilder()
        txns = [(0, [W("x", 5)], ABORTED), (1, [R("x", 5)], COMMITTED)]
        for session, ops, status in txns[::-1] if reader_first else txns:
            b.txn(session, ops, status=status)
        report = repro.check(b.build(), mode=mode, initial_values={"x": 5})
        assert not report.ok
        assert [a.axiom for a in report.anomalies] == ["AbortedReads"]
        # ... while the plain initial value short-circuits everything.
        b = HistoryBuilder()
        b.txn(0, [W("x", None)], status=ABORTED)
        b.txn(1, [R("x", None)])
        assert repro.check(b.build(), mode=mode).ok

    @pytest.mark.parametrize("mode", ["batch", "online", "parallel"])
    def test_a_broken_precondition_outranks_an_anomaly(self, mode):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [W("x", 1)])
        b.txn(2, [W("y", 2)], status=ABORTED)
        b.txn(3, [R("y", 2)])
        with pytest.raises(DuplicateValueError):
            repro.check(b.build(), mode=mode)


# -- the parent commit's polygraphs ---------------------------------------------


def sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


with open(os.path.join(HERE, "data", "front_half_a0c7660.json"),
          encoding="utf-8") as _handle:
    PARENT = json.load(_handle)


@pytest.mark.parametrize("unit", sorted(PARENT["units"]))
def test_polygraph_digests_written_by_the_parent_commit(unit):
    """``tests/data/front_half_a0c7660.json`` holds what that commit's
    ``build_polygraph`` returned: the constraint list *in order* (the
    search depends on it), the known edges and the reader index."""
    if unit.startswith("corpus/"):
        assert set(PARENT["units"]) >= {
            f"corpus/{t}" for t in ANOMALY_TEMPLATES}
        history = make_anomaly(unit.split("/", 1)[1], **PARENT["corpus"])
    else:
        history = generate_history(
            WorkloadParams(**PARENT["general"]["params"][unit]),
            seed=PARENT["general"]["seed"], isolation="snapshot").history
    graph, violations = build_polygraph(history)
    assert {
        "vertices": graph.num_vertices,
        "violations": len(violations),
        "known_edges": len(graph.known_edges),
        "known_set": sha(sorted(graph.known_edges, key=repr)),
        "readers_from": sha(sorted(graph.readers_from.items(), key=repr)),
        "constraints": len(graph.constraints),
        "constraints_in_order": sha([(c.key, c.pair, c.either, c.orelse)
                                     for c in graph.constraints]),
    } == PARENT["units"][unit]


@pytest.mark.parametrize("build", ["f8d5e43", "80ea5ae", "d90a0f0"])
def test_builder_state_is_the_checkpoint_payload(build):
    """The builder's tables moved, their ``STATE_VERSION`` 1 keys did
    not: a checkpoint an earlier build wrote comes back, key for key,
    from restore followed by snapshot."""
    with open(os.path.join(HERE, "data", f"checkpoint_{build}.json"),
              encoding="utf-8") as handle:
        state = json.load(handle)["state"]
    again = json.loads(json.dumps(OnlineChecker.restore(state).snapshot()))
    assert set(again) == set(state)
    front = PolygraphBuilder(print, 0).state(0)
    assert len(front) == 11
    for key in front:
        assert again[key] == state[key], key
    assert again["live"] == state["live"]


# -- one copy -------------------------------------------------------------------


def test_the_indexes_are_assigned_in_the_builder_only():
    """No class under ``core/`` or ``online/`` other than the builder
    keeps one of the read-matching indexes (``core/axioms.py``, the
    declarative specification, builds its own inside each check)."""
    tables = {"writer_index", "aborted_writes", "intermediate", "pending",
              "writers_of", "readers_from", "init_keys"}
    gone = {"_register_aborted", "_check_unique", "_register_writes",
            "_scan_reads", "_record_init_read"}
    owners = set()
    for package in ("core", "online"):
        folder = os.path.join(SRC, package)
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".py") or name == "axioms.py":
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in ast.walk(cls):
                    if isinstance(node, ast.FunctionDef):
                        assert node.name not in gone, (name, node.name)
                    if isinstance(node, ast.Attribute) and isinstance(
                            node.ctx, ast.Store) and node.attr.lstrip(
                            "_") in tables:
                        owners.add((name, cls.name))
    assert owners == {
        ("polygraph.py", "PolygraphBuilder"),
        # ... whose readers_from the polygraph is handed,
        ("polygraph.py", "GeneralizedPolygraph"),
        # the History's own (key, value) -> Transaction cache, which only
        # the baselines and the timestamp engine read (not PolySI, TCC
        # or RA),
        ("history.py", "History"),
        # and a namesake: the fixpoint's queue of promoted edges.
        ("pruning.py", "PruneState"),
    }
    assert "check_axioms" not in inspect.getsource(PolySIChecker.construct)
    assert "check_axioms" not in inspect.getsource(PolygraphBuilder)
    # TCC and RA take the front half from the builder, not a second one.
    with open(os.path.join(SRC, "extensions", "causal.py"),
              encoding="utf-8") as handle:
        weak = handle.read()
    for name in ("check_axioms", "writer_index", "session_order_pairs"):
        assert name not in weak, name
