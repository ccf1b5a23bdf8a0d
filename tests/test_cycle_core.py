"""After the fixpoint, ask the closure (repro.core.encoding.cycle_core).

The serial checker hands the solver only the *cycle core*: the vertices
a cycle through a surviving constraint edge can visit, read off the
closure rows pruning ends with.  The claim is exactness — the induced
subgraph on the core has a cycle iff the whole graph has — so these
tests hold the core path to the whole-graph path (``encode_polygraph``
with no prune result: Algorithm 1 as written), to the brute-force
oracle, and to a definition of the core written with networkx that
shares no code with it.  They also pin what rides on the hand-over:
witnesses come back in the caller's vertex ids, and the closure does
not outlive the check.
"""

import gc
import pickle
import random
import types

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.naive import OracleTooLarge, naive_check_si
from repro.core.axioms import check_axioms
from repro.core.checker import PolySIChecker
from repro.core.encoding import (
    cycle_core,
    encode_polygraph,
    graph_constraints,
)
from repro.core.history import HistoryBuilder, Operation, R, W
from repro.core.polygraph import RW, build_polygraph
from repro.core.pruning import PruneState, prune_constraints
from repro.utils.closure import ClosureBackend, iter_bits
from repro.utils.closure_np import NumpyBitsetClosure
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.random_histories import random_history

from _helpers import (
    KERNELS,
    assert_valid_witness,
    batch_on_kernel,
    causality_history,
    solve_under_contract,
)
from test_encoding_incremental import PINNED_GENERATED

SIZES = ("vars", "clauses", "induced_edges", "aux_vars")


def side_by_side(*histories):
    """The given histories on disjoint keys and sessions, as one."""
    b = HistoryBuilder()
    for part, history in enumerate(histories):
        for txn in history.transactions:
            b.txn(1000 * part + txn.session,
                  [Operation(op.kind, (part, op.key), op.value)
                   for op in txn.ops],
                  status=txn.status)
    return b.build()


def contended(seed, sessions=4, txns=4, ops=4, keys=4):
    """A valid simulator run small enough for the oracle and contended
    enough that constraints survive pruning (four in five do)."""
    return generate_history(
        WorkloadParams(sessions=sessions, txns_per_session=txns,
                       ops_per_txn=ops, keys=keys, read_proportion=0.5),
        seed=seed, isolation="snapshot").history


@st.composite
def small_histories(draw):
    """Random histories as the differential suite draws them (most are
    decided before the encoder), alone or beside a contended valid run
    and a corpus template — so the solver sees satisfiable and
    unsatisfiable instances whose core is a proper part of the graph."""
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    parts = []
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        parts.append(random_history(
            random.Random(seed),
            sessions=draw(st.integers(min_value=2, max_value=3)),
            txns_per_session=draw(st.integers(min_value=1, max_value=3)),
            max_ops=draw(st.integers(min_value=2, max_value=4)),
            keys=draw(st.integers(min_value=2, max_value=4)),
            read_initial_prob=draw(st.sampled_from([0.25, 0.6])),
            abort_prob=draw(st.sampled_from([0.0, 0.15])),
        ))
    if not parts or draw(st.booleans()):
        parts.append(contended(
            seed,
            sessions=draw(st.integers(min_value=2, max_value=4)),
            txns=draw(st.integers(min_value=2, max_value=4)),
            ops=draw(st.integers(min_value=2, max_value=4)),
            keys=draw(st.integers(min_value=2, max_value=4)),
        ))
    # Every template is swept on its own below; here mostly the one
    # that only the solver can decide.
    template = draw(st.sampled_from(
        [None, None, "lost-update", "lost-update", "long-fork",
         "read-skew"]))
    if template is not None:
        parts.append(make_anomaly(template, seed=seed))
    return side_by_side(*parts)


def after_fixpoint(history):
    """``(graph, prune result)`` of a history that gets as far as the
    encoder with a clean closure diagonal, else None."""
    if check_axioms(history):
        return None
    graph, anomalies = build_polygraph(history)
    if anomalies:
        return None
    pruned = prune_constraints(graph)
    if not (pruned.ok and pruned.known_acyclic):
        return None
    return graph, pruned


def core_reference(graph, known):
    """The core by its definition, on a networkx copy of ``KI``: the
    endpoints of every induced pair a constraint edge can create, plus
    every vertex on a known path from a head to a tail."""
    ki = nx.DiGraph()
    ki.add_nodes_from(range(graph.num_vertices))
    for u, row in enumerate(known.induced_adjacency()):
        ki.add_edges_from((u, v) for v in row)
    tails, heads = set(), set()
    for cons in graph.constraints:
        for u, v, label, _key in list(cons.either) + list(cons.orelse):
            heads.add(v)
            if label == RW:
                tails |= known.dep_preds[u]
            else:
                tails.add(u)
                heads |= known.antidep[v]
    below = set(heads)
    for head in heads:
        below |= nx.descendants(ki, head)
    above = set(tails)
    for tail in tails:
        above |= nx.ancestors(ki, tail)
    return tails | heads | (below & above)


def assert_core_is_exact(history):
    """(i) core and whole graph agree, and agree with the oracle."""
    reached = after_fixpoint(history)
    if reached is None:
        return None
    graph, pruned = reached
    state = pruned.state
    core = cycle_core(graph.constraints, state.known, state.reach)
    assert set(iter_bits(core)) == core_reference(graph, state.known)

    on_core = encode_polygraph(graph, pruned)
    on_all = encode_polygraph(graph)
    assert not on_core.static_cycle and not on_all.static_cycle
    assert on_core.num_solver_vertices == bin(core).count("1")
    assert on_all.num_solver_vertices == graph.num_vertices
    # The core path encodes against the fixpoint's reduced known graph
    # and skips every pair the closure already has: never more.
    assert all(on_core.stats()[k] <= on_all.stats()[k] for k in SIZES)
    # No static edge leaves the core, and none inside it is missing.
    whole = state.known.induced_adjacency()
    for u, row in enumerate(on_core.solver._theory.static_adj):
        assert set(row) == ({v for v in whole[u] if core >> v & 1}
                            if core >> u & 1 else set())

    verdict = solve_under_contract(on_core, encode_polygraph(graph, pruned))
    assert verdict == on_all.solver.solve()
    try:
        assert verdict == naive_check_si(history, max_orders=50_000)
    except OracleTooLarge:
        pass
    if not verdict:
        # (ii) parent ids, no mapping: the witness is made of the
        # parent graph's own edges.
        assert_valid_witness(
            on_core.violation_cycle(graph.known_edges,
                                    graph_constraints(graph)), graph)
    return verdict, bin(core).count("1"), graph.num_vertices


class TestCoreIsExact:
    @given(small_histories())
    @settings(max_examples=200, deadline=None)
    def test_random_histories(self, history):
        assert_core_is_exact(history)

    @pytest.mark.parametrize("template", sorted(ANOMALY_TEMPLATES))
    def test_anomaly_templates_with_padding(self, template):
        for seed in range(4):
            history = make_anomaly(template, seed=seed, padding_txns=12)
            assert_core_is_exact(history)
            result = PolySIChecker().check(history)
            assert not result.satisfies_si
            assert result.satisfies_si == naive_check_si(history)
            if result.cycle is not None:
                assert_valid_witness(result.cycle, result.polygraph)

    def test_the_sweep_reaches_the_solver_both_ways_on_a_proper_core(self):
        """Guard the guard: histories shaped like the ones above must
        reach the solver through the core path on a satisfiable and an
        unsatisfiable instance, with vertices left outside the core."""
        seen = set()
        for seed in range(12):
            for template in (None, "lost-update"):
                parts = [contended(seed)]
                if template:
                    parts.append(make_anomaly(template, seed=seed))
                outcome = assert_core_is_exact(side_by_side(*parts))
                if outcome is not None and outcome[1]:
                    verdict, core, vertices = outcome
                    seen.add((verdict, core < vertices))
        assert seen == {(True, True), (False, True)}

    def test_islands_stay_outside_the_core(self):
        blind = HistoryBuilder()
        blind.txn(0, [W("z", 1)])
        blind.txn(1, [W("z", 2)])
        chain = HistoryBuilder()
        chain.txn(0, [W("q", 1)])
        chain.txn(1, [R("q", 1), W("q", 2)])
        chain.txn(1, [R("q", 2)])
        history = side_by_side(*[chain.build()] * 6, blind.build())
        verdict, core, vertices = assert_core_is_exact(history)
        assert verdict is True
        assert (core, vertices) == (2, 6 * 3 + 2)


class TestWitnessesNeedNoMapping:
    """(ii) through the checker: a violation the solver finds in one
    island of many is reported in the history's own vertex ids."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_lost_update_among_islands(self, kernel, monkeypatch):
        batch_on_kernel(monkeypatch, kernel)
        b = HistoryBuilder()
        for c in range(5):          # ten vertices before the anomaly
            b.txn(c, [W(f"pad{c}", 1)])
            b.txn(c, [R(f"pad{c}", 1), W(f"pad{c}", 2)])
        b.txn(50, [W("k", 4)])
        b.txn(51, [R("k", 4), W("k", 5)])
        b.txn(52, [R("k", 4), W("k", 13)])
        result = PolySIChecker().check(b.build())
        assert not result.satisfies_si
        assert result.decided_by == "solving"
        assert result.stats["solver_vertices"] == 2
        assert_valid_witness(result.cycle, result.polygraph)
        assert {v for edge in result.cycle for v in edge[:2]} == {11, 12}


def cores_over_both_kernels(graph, pruned):
    """The core over the fixpoint's own (python) closure and over the
    same rows held by the numpy kernel."""
    state = pruned.state
    return {cycle_core(graph.constraints, state.known, reach)
            for reach in (state.reach, NumpyBitsetClosure.from_rows(
                state.reach.int_rows()))}


class TestBackendsAgreeOnTheCore:
    """(iii) the core is a function of the closure's content, not of
    the kernel that holds it."""

    @given(small_histories())
    @settings(max_examples=100, deadline=None)
    def test_same_bitset(self, history):
        reached = after_fixpoint(history)
        if reached is None:
            return
        assert len(cores_over_both_kernels(*reached)) == 1

    def test_contended_workload(self):
        history = generate_history(
            WorkloadParams(sessions=6, txns_per_session=12, ops_per_txn=6,
                           keys=8, read_proportion=0.5),
            seed=2, isolation="snapshot").history
        graph, pruned = after_fixpoint(history)
        assert graph.constraints
        cores = cores_over_both_kernels(graph, pruned)
        assert len(cores) == 1 and next(iter(cores))


class TestNoPruneResultIsTheReferenceClauseSet:
    """(v) the one-argument call is still the pinned reference, and the
    core path adds no variable or clause to it."""

    @pytest.mark.parametrize("seed", sorted(PINNED_GENERATED))
    def test_generated_workloads(self, seed):
        history = generate_history(
            WorkloadParams(sessions=6, txns_per_session=12, ops_per_txn=6,
                           keys=8, read_proportion=0.5),
            seed=seed, isolation="snapshot").history
        graph, pruned = after_fixpoint(history)
        alone = encode_polygraph(graph).stats()
        told = encode_polygraph(graph, pruned)
        assert (alone["vars"], alone["clauses"]) == \
            PINNED_GENERATED[seed]["pruned"]
        assert all(told.stats()[k] <= alone[k] for k in SIZES)
        assert told.num_solver_vertices < graph.num_vertices


def reachable_from(root):
    """Every object reachable from ``root`` through ``gc.get_referents``,
    not descending into modules, classes or a function's globals (which
    reach the whole interpreter) — a function's closure cells and
    defaults are followed."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return out


class TestTheClosureDoesNotOutliveTheCheck:
    """Workers pickle their results back and ``repro.check`` callers keep
    thousands of reports: nothing reachable from one may pin the
    fixpoint's n²/8 bytes of rows."""

    @staticmethod
    def contended():
        return generate_history(
            WorkloadParams(sessions=8, txns_per_session=20, ops_per_txn=6,
                           keys=12, read_proportion=0.5),
            seed=5, isolation="snapshot").history

    @pytest.mark.parametrize("options", [
        {},
        {"mode": "parallel", "workers": 2},
    ], ids=["serial", "parallel-serial"])
    def test_report_holds_no_closure(self, options):
        report = repro.check(self.contended(), **options)
        native = report.native
        assert report.ok and report.decided_by == "solving"
        assert native.prune_result.constraints_after > 0
        assert native.prune_result.state is None
        assert len(pickle.dumps(native.prune_result)) < 1024
        held = [obj for obj in reachable_from(report)
                if isinstance(obj, (PruneState, ClosureBackend))]
        assert held == []

    def test_state_is_dropped_when_a_later_stage_raises(self, monkeypatch):
        import repro.core.checker as checker_module

        def boom(graph, pruned):
            assert pruned.state is not None
            raise RuntimeError("encoder failed")

        monkeypatch.setattr(checker_module, "encode_polygraph", boom)
        graph, _ = build_polygraph(self.contended())
        result = checker_module.CheckResult()
        with pytest.raises(RuntimeError):
            PolySIChecker().check_polygraph(graph, result)
        assert result.prune_result.state is None

    def test_violating_fixpoint_drops_it_too(self):
        result = PolySIChecker().check(causality_history())
        assert result.decided_by == "pruning"
        assert result.prune_result.state is None
