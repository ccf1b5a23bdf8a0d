"""Shared history constructors for the test suite.

They live in a plainly-named module rather than ``tests/conftest.py``:
``from conftest import ...`` resolves to whichever conftest-bearing
directory lands first on ``sys.path``, while a helper module has no
competing twin, so imports resolve the same way regardless of what else
was collected.  ``benchmarks/bench_gates.py`` imports the reference
fixpoint and rules from here too.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import networkx as nx

from repro.core.history import History, HistoryBuilder, R, W
from repro.core.polygraph import (
    RW,
    SO,
    WR,
    WW,
    GeneralizedPolygraph,
)
from repro.core.known import KnownGraph
from repro.core.pruning import (
    PruneResult,
    PruneState,
    apply_decisions,
    classify_constraints,
    order_writers,
)
from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.utils.closure import PyBitsetClosure
from repro.utils.closure_np import NumpyBitsetClosure
from repro.utils.reachability import transitive_closure_bits
from repro.workloads.generator import WorkloadParams, generate_workload

__all__ = [
    "branch_impossible_reference",
    "prune_iteration_state",
    "prune_constraints_recompute",
    "prune_fixpoint_reference",
    "explicit_constraints_reference",
    "first_iteration",
    "first_iteration_state",
    "evict_closed_reference",
    "subgraph_reference",
    "polygraph_reference",
    "decision_vars",
    "all_decision_search",
    "assert_completion_is_a_model",
    "assert_valid_witness",
    "solve_under_contract",
    "report_payload_reference",
    "build",
    "long_fork_history",
    "lost_update_history",
    "write_skew_history",
    "causality_history",
    "serializable_history",
    "simulated",
    "delayed",
    "KERNELS",
    "batch_on_kernel",
    "online_on_kernel",
]


def build(*session_txns) -> History:
    """Compact history constructor: each op-list in its own session, or
    pass ``(session, [ops...])`` tuples to control sessions explicitly."""
    builder = HistoryBuilder()
    for i, item in enumerate(session_txns):
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], int):
            session, ops = item
        else:
            session, ops = i, item
        builder.txn(session, ops)
    return builder.build()


# Canonical paper histories, used across several test modules. ----------------


def long_fork_history() -> History:
    """Figure 3(a): the long-fork anomaly (violates SI)."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 0), W("y", 0)])   # T0
    b.txn(0, [W("x", 2)])              # T5 (same session as T0)
    b.txn(1, [W("x", 1)])              # T1
    b.txn(2, [W("y", 1)])              # T2
    b.txn(3, [R("x", 1), R("y", 0)])   # T3
    b.txn(4, [R("x", 0), R("y", 1)])   # T4
    return b.build()


def lost_update_history() -> History:
    """Figure 5: two concurrent read-modify-writes (violates SI)."""
    b = HistoryBuilder()
    b.txn(0, [W("k", 4)])
    b.txn(1, [R("k", 4), W("k", 5)])
    b.txn(2, [R("k", 4), W("k", 13)])
    return b.build()


def write_skew_history() -> History:
    """Classic write skew: allowed under SI, forbidden under SER."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 0), W("y", 0)])
    b.txn(1, [R("x", 0), R("y", 0), W("x", 1)])
    b.txn(2, [R("x", 0), R("y", 0), W("y", 1)])
    return b.build()


def causality_history() -> History:
    """Figure 13: a session overwrites a value then reads it back stale."""
    b = HistoryBuilder()
    b.txn(1, [W(10, 26), W(13, 21)])   # T:(1,15)
    b.txn(0, [R(13, 21)])              # T:(0,6)
    b.txn(0, [W(10, 3)])               # T:(0,7)
    b.txn(0, [R(10, 26)])              # T:(0,9)
    return b.build()


def serializable_history() -> History:
    """A plainly serializable (hence SI) history."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 1)])
    b.txn(1, [R("x", 1), W("y", 2)])
    b.txn(0, [R("y", 2), W("x", 3)])
    b.txn(2, [R("x", 3), R("y", 2)])
    return b.build()


# Online streams. ---------------------------------------------------------------


def simulated(seed, count, isolation="snapshot", **shape):
    """The first ``count`` events of a simulator run, commit order;
    ``shape`` holds the ``WorkloadParams`` fields but
    ``txns_per_session``."""
    params = WorkloadParams(
        txns_per_session=-(-count // shape["sessions"]) + 8, **shape)
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(isolation=isolation, seed=seed + 1)
    events = []
    for event in stream_workload(db, spec, seed=seed + 2):
        events.append(event)
        if len(events) == count:
            break
    return events


def delayed(events, index, distance):
    """Move event ``index`` later past at most ``distance`` events of
    other sessions: reads of what it writes arrive before their writer."""
    events = list(events)
    index %= len(events)
    moving = events.pop(index)
    to = index
    while (to < len(events) and to < index + distance
           and events[to][0] != moving[0]):
        to += 1
    events.insert(to, moving)
    return events


# Closure kernels. ---------------------------------------------------------------

#: Both closure kernels by name.  Batch pruning builds the python one and
#: the online checker the numpy one; the python kernel is the reference
#: the numpy one is held to.
KERNELS = {"python": PyBitsetClosure, "numpy": NumpyBitsetClosure}


def batch_on_kernel(monkeypatch, kernel):
    """Have batch pruning (and so the checker's provenance) build the
    ``kernel`` named in :data:`KERNELS` for the rest of the test, so the
    other kernel answers the batch fixpoint's own insert and reseed
    sequence.  A test-only swap: the checker has no such option."""
    monkeypatch.setattr("repro.core.pruning.KERNEL", KERNELS[kernel])


def online_on_kernel(monkeypatch, kernel):
    """As :func:`batch_on_kernel`, for the online checker's closures."""
    monkeypatch.setattr("repro.online.checker.NumpyBitsetClosure",
                        KERNELS[kernel])


# Reference implementations: the code the shipped versions replaced, kept
# verbatim as differential oracles. -------------------------------------------


def branch_impossible_reference(edges, reach, dep_preds) -> bool:
    """The per-predecessor form of the paper's impossibility rules
    (Section 4.3, Figure 4): one ``reach.has`` call per immediate
    Dep-predecessor of every RW edge's tail, over a branch's typed
    edges.  The oracle for :func:`repro.core.pruning.pair_impossible`,
    which decides the same questions from the writer pair and reader
    list by bitset algebra on one closure row."""
    for src, dst, label, _key in edges:
        if label == WW:
            if reach.has(dst, src):
                return True
        else:  # RW
            for prec in dep_preds[src]:
                if prec == dst or reach.has(dst, prec):
                    return True
    return False


def prune_fixpoint_reference(checker) -> int:
    """``OnlineChecker._prune_fixpoint`` before it kept dirty
    constraints: every pass asks every unresolved constraint, until a
    pass resolves nothing.  The oracle for the worklist fixpoint;
    returns how many constraints it asked."""
    reach, dep_preds = checker._ki, checker._known.dep_preds
    asked = 0
    changed = True
    while changed and checker._violation is None:
        changed = False
        for ck in list(checker._unresolved):
            if ck not in checker._unresolved or checker._violation is not None:
                continue
            asked += 1
            _ck, either, orelse = checker._constraint(ck)
            either_bad = branch_impossible_reference(either, reach, dep_preds)
            orelse_bad = branch_impossible_reference(orelse, reach, dep_preds)
            if either_bad and orelse_bad:
                cycle = checker._witness(either) or checker._witness(orelse)
                checker._latch("pruning", cycle=cycle)
                return asked
            if either_bad:
                checker._resolve(ck, t_first=False, edges=orelse)
                changed = True
            elif orelse_bad:
                checker._resolve(ck, t_first=True, edges=either)
                changed = True
    return asked


def prune_iteration_state(graph):
    """The read-only state one pruning iteration classifies against,
    rebuilt from scratch: reachability of the known induced graph (its
    ``rows`` are the closure) plus the immediate Dep-predecessor masks.
    The incremental fixpoint carries the same state forward in a
    :class:`repro.core.pruning.PruneState` instead."""
    known = KnownGraph.from_edges(graph.num_vertices, graph.known_edges)
    reach = transitive_closure_bits(graph.num_vertices,
                                    known.induced_adjacency())
    return reach, known.pred_mask


class _DirectPromotion:
    """What :func:`repro.core.pruning.apply_decisions` promotes through
    on the recompute path: a winning branch's edges land on the graph
    directly, and the next iteration rebuilds everything from them."""

    def __init__(self, graph):
        self.graph = graph

    def promote(self, winners):
        for cons, either_wins in winners:
            self.graph.add_known_many(
                cons.either if either_wins else cons.orelse)


def prune_constraints_recompute(graph):
    """The recompute-per-iteration fixpoint that
    :func:`repro.core.pruning.prune_constraints` replaced: the
    adjacency, the Dep-predecessor masks and the whole KI closure are
    rebuilt from ``graph.known_edges`` at the top of every iteration.
    The differential baseline the incremental fixpoint is pinned to
    (``test_pruning_incremental.py``) and the comparison leg of
    ``benchmarks/bench_gates.py prune``."""
    result = PruneResult()
    result.constraints_before = graph.num_constraints
    result.unknown_deps_before = graph.num_unknown_deps
    promotion = _DirectPromotion(graph)
    while True:
        result.iterations += 1
        reach, pred_mask = prune_iteration_state(graph)
        decisions = classify_constraints(graph.constraints, reach, pred_mask)
        changed = apply_decisions(graph, decisions, result, promotion)
        if not result.ok or not changed:
            break
    result.constraints_after = graph.num_constraints
    result.unknown_deps_after = graph.num_unknown_deps
    return result


def first_iteration(graph, keyed):
    """Run pruning's first iteration on an unbuilt compact ``graph``: by
    key (:func:`repro.core.pruning.order_writers`, the shipped path), or
    pair by pair over the built constraint list (:func:`classify_constraints`
    then :func:`apply_decisions`, the path it replaced).  Returns
    :func:`first_iteration_state` and the seconds the iteration took,
    building the list included, seeding the closure not."""
    state, result = PruneState(graph), PruneResult()
    start = time.perf_counter()
    if keyed:
        changed = order_writers(graph, state, result)
    else:
        changed = apply_decisions(graph, classify_constraints(
            graph.constraints, state.reach, state.pred_mask), result, state)
    seconds = time.perf_counter() - start
    return first_iteration_state(graph, state, result, changed), seconds


def first_iteration_state(graph, state, result, changed):
    """What one iteration leaves for the next and for the reader: the
    constraints in order, the counters, the witness, the installed
    pairs, the closure queue and the known edges in order."""
    known = state.known
    witness = result.violation_constraint
    return {
        "changed": changed,
        "constraints": [(c.key, c.pair, list(c.readers[0]),
                         list(c.readers[1])) for c in graph.constraints],
        "ok": result.ok,
        "pruned": result.pruned,
        "witness": None if witness is None else (witness.key, witness.pair),
        "cycle": result.violation_cycle,
        "dep": [sorted(succ) for succ in known.dep],
        "antidep": [sorted(succ) for succ in known.antidep],
        "pred_mask": list(known.pred_mask),
        "pairs_implied": state.pairs_implied,
        "queued": state._queued,
        "pending": list(state._pending),
        "known_edges": list(graph.known_edges),
    }


def explicit_constraints_reference(constraints):
    """The non-compacted (Definition 8) construction as it was written
    with explicit edge lists, from the generalized constraints
    ``(key, either, orelse)`` of the same history, in order: for each,
    the WW-direction constraint ``<[t->s], [s->t]>``, then
    ``<[t->s, r->s], [s->t]>`` per RW edge of ``either``, then
    ``<[s->t, r->t], [t->s]>`` per RW edge of ``orelse``.  Returns
    ``[(key, either, orelse)]``."""
    out = []
    for key, either, orelse in constraints:
        ww_ts, ww_st = either[0], orelse[0]
        out.append((key, (ww_ts,), (ww_st,)))
        out.extend((key, (ww_ts, edge), (ww_st,)) for edge in either[1:])
        out.extend((key, (ww_st, edge), (ww_ts,)) for edge in orelse[1:])
    return out


def evict_closed_reference(checker) -> None:
    """``OnlineChecker._evict_closed`` before it kept candidates: every
    live vertex is tested against the four window conditions, in
    ascending order.  The oracle for the candidate-set pass."""
    front = checker._front
    if any(s not in front.session_tail for s in checker.sessions):
        return
    tails = set(front.session_tail.values())
    waiting = set(front.waiting_readers())
    reach = checker._dep_reach

    def stable(x):
        return all(x == t or reach.has(x, t) for t in tails)

    txn_of = front.txn_of
    for vertex, txn in list(txn_of.items()):
        if (vertex in tails or checker._unresolved_touch.get(vertex)
                or vertex in waiting):
            continue
        if all(any(s in txn_of and stable(s)
                   for s in checker._ww_succ.get(vertex, {}).get(key, ()))
               for key in txn.keys_written):
            checker._evict(vertex)


def polygraph_reference(history, initial_values=None):
    """Definition 9 transcribed (with the init vertex of Section 2.3),
    for a history the non-cyclic axioms accept: ``(known edge set,
    readers_from, constraints in order)`` with vertices = transaction
    ids and init = ``len(history)``.  Shares no code with
    :class:`repro.core.polygraph.PolygraphBuilder`."""
    initial, init = initial_values or {}, len(history)
    committed = [t for t in history.transactions if t.committed]
    final = {(k, v): t.tid for t in committed for k, v in t.writes.items()}
    wr = [(init if v is None or (k in initial and v == initial[k])
           else final.get((k, v)), t.tid, k)
          for t in committed for k, v in t.external_reads.items()]
    wr = [(w, r, k) for w, r, k in wr if w is not None and w != r]
    readers, writers = {}, {}
    for w, r, k in wr:
        readers.setdefault((w, k), []).append(r)
    for t in committed:
        for k in t.writes:
            writers.setdefault(k, []).append(t.tid)
    known = {(a.tid, b.tid, SO, None)
             for a, b in history.session_order_pairs()}
    known |= {(w, r, WR, k) for w, r, k in wr}
    for (w, k), rs in readers.items():
        for s in writers.get(k, ()) if w == init else ():
            known |= {(init, s, WW, k)} | {(r, s, RW, k) for r in rs if r != s}

    def branch(k, t, s):
        return ((t, s, WW, k),) + tuple(
            (r, s, RW, k) for r in readers.get((t, k), ()) if r != s)

    return known, readers, [
        (k, (t, s), branch(k, t, s), branch(k, s, t))
        for k, ws in writers.items() for i, t in enumerate(ws)
        for s in ws[i + 1:]]


def subgraph_reference(graph, vertices):
    """``GeneralizedPolygraph.subgraph`` as it was before the bulk
    rewrite: a dict renumbering and one deduplicating ``add_known`` call
    per edge.  The oracle for the shipped method's output."""
    order = sorted(vertices)
    remap = {old: new for new, old in enumerate(order)}
    needs_init = graph.init_vertex is not None and any(
        u == graph.init_vertex and v in remap
        for u, v, _label, _key in graph.known_edges
    )
    init_new = len(order) if needs_init else None
    if needs_init:
        remap[graph.init_vertex] = init_new
    sub = GeneralizedPolygraph(
        graph.history, len(order) + (1 if needs_init else 0), init_new
    )
    sub.labels = [graph.vertex_name(old) for old in order]
    sub._txn_of = [graph.vertex_txn(old) for old in order]
    if needs_init:
        sub.labels.append("T:init")
        sub._txn_of.append(None)
    for u, v, label, key in graph.known_edges:
        if v in remap and u in remap:
            sub.add_known((remap[u], remap[v], label, key))
    # Constraints as plain records of their branch edges renamed one by
    # one, never rebuilt from reader lists the way the shipped method does.
    for cons in graph.constraints:
        t, s = cons.pair
        if t not in remap:
            continue
        sub.constraints.append(SimpleNamespace(
            key=cons.key, pair=(remap[t], remap[s]),
            either=tuple((remap[u], remap[v], label, key)
                         for u, v, label, key in cons.either),
            orelse=tuple((remap[u], remap[v], label, key)
                         for u, v, label, key in cons.orelse)))
    for (writer, key), readers in graph.readers_from.items():
        if writer in remap:
            kept = [remap[r] for r in readers if r in remap]
            if kept:
                sub.readers_from[(remap[writer], key)] = kept
    old_of_new = list(order)
    if needs_init:
        old_of_new.append(graph.init_vertex)
    return sub, old_of_new


# The solver's decision-variable contract (DESIGN.md S4): oracles that read
# the solver's tables but share none of its code. ------------------------------


def decision_vars(solver) -> set:
    """The variables the search of an ``AcyclicGraphSolver`` may decide."""
    cdcl = solver._solver
    return {var for var in range(1, cdcl.num_vars + 1) if cdcl.decision[var]}


def all_decision_search(encoding):
    """Turn ``encoding``'s search into the one it replaced — every
    variable a decision variable, every first phase *false* — and return
    the encoding.  The differential reference for choices-only search;
    it exists here only."""
    solver = encoding.solver
    for var in range(1, solver.num_vars + 1):
        solver.set_decision_var(var, False)
    return encoding


def assert_completion_is_a_model(solver) -> None:
    """After a SAT answer: every decision variable is assigned, and
    reading each unassigned variable as *false* satisfies every original
    and every learned clause while the static edges plus the edges of
    true variables form an acyclic graph."""
    cdcl = solver._solver
    values = cdcl.values
    assert all(values[var] != 0 for var in decision_vars(solver))

    def holds(lit: int) -> bool:
        return (values[abs(lit)] == 1) == (lit > 0)

    for clause in solver._clauses + cdcl.learned_clauses:
        assert any(holds(lit) for lit in clause), clause
    graph = nx.DiGraph()
    for u, row in enumerate(solver._theory.static_adj):
        graph.add_edges_from((u, v) for v in row)
    graph.add_edges_from(
        edge for var, edge in solver._edges.items() if values[var] == 1)
    assert nx.is_directed_acyclic_graph(graph)


def assert_valid_witness(cycle, graph) -> None:
    """A closed walk of known or constraint edges with no two adjacent
    anti-dependencies — an undesired cycle of Theorem 6."""
    assert cycle
    allowed = set(graph.known_edges)
    for cons in graph.constraints:
        allowed.update(cons.either)
        allowed.update(cons.orelse)
    for edge, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert edge in allowed
        assert edge[1] == nxt[0]
        assert not (edge[2] == RW and nxt[2] == RW)


def solve_under_contract(encoding, twin) -> bool:
    """Solve ``encoding`` and hold the answer to the contract: on SAT
    the completion property, and either way the answer of ``twin`` — a
    second encoding of the same instance — searched over all variables."""
    verdict = encoding.solver.solve()
    if verdict:
        assert_completion_is_a_model(encoding.solver)
    assert all_decision_search(twin).solver.solve() == verdict
    return verdict


def report_payload_reference(report) -> str:
    """``Report.to_json`` as it was before ``to_dict``: ``_jsonable``
    over *all* of ``stats`` (the trace included), pretty-printed with
    ``indent=2`` by the pure-Python encoder.  The one addition is the
    anomaly ``key`` field, emitted when the anomaly has one."""
    from repro.api.report import _jsonable

    name = report.names or str
    anomalies = []
    for a in report.anomalies:
        entry = {"axiom": getattr(a, "axiom", None),
                 "txn": getattr(getattr(a, "txn", None), "name", None),
                 "detail": getattr(a, "detail", repr(a))}
        if getattr(a, "key", None) is not None:
            entry["key"] = repr(a.key)
        anomalies.append(entry)
    payload = {
        "verdict": report.verdict,
        "isolation": report.isolation,
        "mode": report.mode,
        "engine": report.engine,
        "decided_by": report.decided_by,
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
        "anomalies": anomalies,
    }
    if report.cycle:
        payload["cycle"] = [
            {"from": name(u), "to": name(v), "type": label,
             "key": repr(key) if key is not None else None}
            for u, v, label, key in report.cycle
        ]
    if report.stats:
        payload["stats"] = _jsonable(report.stats)
    return json.dumps(payload, indent=2)
