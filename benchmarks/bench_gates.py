"""The benchmark gates: each pins one stage of the system and asserts
its bar after writing ``BENCH_<name>.json``::

    python bench_gates.py                  # every gate, in GATES order
    python bench_gates.py prune resume     # just these

- ``prune``     — incremental pruning against the recompute-per-iteration
  fixpoint, both closure kernels, the classification rule, the reseed,
  the keyed first iteration and the disabled-tracing budget;
- ``online``    — online incremental checking against repeated batch
  re-checking, and one ``extend`` per 64-transaction slice;
- ``solver``    — the solver substrate: CDCL, the acyclicity theory, the
  closure kernels and the search over choice variables;
- ``corpus``    — the known-anomaly corpus (Section 5.2.1) and what
  serialising a report costs;
- ``segmented`` — segmented against whole-history checking (Section 6)
  and the segment pool;
- ``collect``   — live SQLite collection, checked end to end;
- ``timestamp`` — the timestamp engine against batch PolySI;
- ``resume``    — durability cost and resume-from-checkpoint speed;
- ``interpret`` — interpretation next to checking (Section 5.3);
- ``service``   — the daemon under concurrent collector processes.

A speed bar that only holds at size is asserted at
``REPRO_BENCH_SCALE`` >= 1 (ROADMAP's keep-or-revert line is 1.3x on
the layer, measured at full scale); the other bars, and verdicts,
parity and counts, at every scale.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time

from _common import (
    SCALE,
    note_stage_seconds,
    record_sweep_verdicts,
    run_named,
    scaled,
)
from repro import check
from repro.bench.harness import Sweep, measure, render_series, render_table
from repro.bench.results import BenchReport
from repro.collect import Collector, FaultyAdapter, SQLiteAdapter
from repro.core.checker import PolySIChecker
from repro.core.encoding import encode_polygraph
from repro.core.history import HistoryBuilder, R, W
from repro.core.known import KnownGraph
from repro.core.polygraph import build_polygraph
from repro.core.pruning import (
    PruneResult,
    PruneState,
    apply_decisions,
    classify_constraints,
    order_writers,
    prune_constraints,
)
from repro.extensions import run_segmented_workload
from repro.interpret import interpret_violation
from repro.obs import collector_passes
from repro.online import OnlineChecker, WindowPolicy
from repro.service import ReproService, ServiceClient, ServiceConfig
from repro.solver.cdcl import CDCLSolver
from repro.solver.monosat import AcyclicGraphSolver
from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.store import PersistentCheck, SegmentStore
from repro.timestamp import TimestampChecker
from repro.utils.closure import PyBitsetClosure
from repro.utils.closure_np import NumpyBitsetClosure
from repro.utils.gcpause import collector_paused
from repro.utils.reachability import (
    transitive_closure_bits,
    transitive_closure_sets,
)
from repro.workloads.corpus import (
    ANOMALY_TEMPLATES,
    known_anomaly_corpus,
    make_anomaly,
)
from repro.workloads.generator import (
    WorkloadParams,
    generate_history,
    generate_workload,
)

# The replaced pruning rule and fixpoint live with the test oracles.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from _helpers import (  # noqa: E402
    branch_impossible_reference,
    first_iteration,
    prune_constraints_recompute,
)

# The class API, bound once.
check_si = PolySIChecker().check

#: Wall-clock best-of-N to damp scheduler noise.
ROUNDS = 3


def best_of(fn, *, setup=None) -> tuple:
    """``(best seconds, last value)`` of ``fn()`` over ``ROUNDS`` calls,
    scheduling noise only ever adding time.  With ``setup``, each call
    is ``fn(setup())`` and the setup is not timed."""
    best = float("inf")
    for _ in range(ROUNDS):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, value


#: Sessions of the commit-order streams the online and resume gates feed.
STREAM_SESSIONS = 6


def stream_txns(n_txns: int, seed: int):
    """A valid SI transaction stream in commit order.

    Commit order matters: every prefix of a commit-ordered stream is a
    causally closed (hence checkable) history, which is what both a
    repeated-batch monitor and the online checker actually consume.
    """
    params = WorkloadParams(
        sessions=STREAM_SESSIONS,
        txns_per_session=max(2, n_txns // STREAM_SESSIONS),
        ops_per_txn=5,
        keys=max(10, n_txns // 5),
        read_proportion=0.5,
    )
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(isolation="snapshot", seed=seed)
    return list(stream_workload(db, spec, seed=seed))


# -- prune: incremental pruning and both closure kernels ----------------------

#: The acceptance bar on the deep-fixpoint (cascade) corpus.
CASCADE_SPEEDUP_BAR = 2.0

#: Both closure kernels by name: batch pruning's, then the online
#: checker's.
CLOSURE_KERNELS = {"python": PyBitsetClosure, "numpy": NumpyBitsetClosure}

#: Bar for the numpy closure kernel over the python reference on the
#: kernel-cascade trace (the deep-fixpoint shape at kernel scale).
NUMPY_SPEEDUP_BAR = 3.0

#: Vertices in the kernel-cascade closure trace.  At this size one
#: insert propagates ~n/2 ancestor rows on average — the regime batch
#: pruning reaches on large histories, where the bulk row OR dominates.
KERNEL_CASCADE_N = scaled(2048, minimum=256)

#: ROADMAP's keep-or-revert line for an optimisation of one layer, applied
#: to the mask classification rule at full scale.
CLASSIFY_SPEEDUP_BAR = 1.3

#: The same line for the hop-graph reseed kernel, on the write-heavy shape.
RESEED_SPEEDUP_BAR = 1.3

#: The bar for the keyed first iteration over the per-pair one on the
#: write-heavy shape, at full scale.
ITERATION1_SPEEDUP_BAR = 2.0

#: DESIGN.md S11 budget: the *disabled* observability path (no ambient
#: tracer/registry installed — what every non-traced caller pays) must
#: cost < 2% of the cascade fixpoint's wall time.
TRACE_OVERHEAD_BAR_PCT = 2.0


def cascade_history(pairs: int):
    """A resolution cascade: exactly one constraint resolves per fixpoint
    iteration, so pruning takes ``pairs + 1`` iterations.

    Writers ``A_i`` and ``B_i`` race on key ``k_i``; reader ``R_i``
    observes ``k_i`` from ``A_i`` and a marker written by ``A_{i+1}``.
    Resolving pair ``i`` (to ``A_i`` before ``B_i``) promotes the
    anti-dependency ``R_i -> B_i``, which composes with the marker WR
    edge into the *only* path ``A_{i+1} ~> B_{i+1}`` — so pair ``i+1``
    becomes resolvable one iteration later, and so on down the chain.
    Pair 1 is seeded by a read-modify-write.
    """
    b = HistoryBuilder()
    for i in range(pairs):
        ops = [W(f"k{i}", f"a{i}")]
        if i > 0:
            ops.append(W(f"m{i - 1}", f"mark{i - 1}"))
        b.txn(1 + i, ops)                       # A_i, one session each
    for i in range(pairs):
        ops = [R(f"k{i}", f"a{i}")]
        if i + 1 < pairs:
            ops.append(R(f"m{i}", f"mark{i}"))
        b.txn(1 + pairs + i, ops)               # R_i, one session each
    b.txn(0, [R("k0", "a0"), W("k0", "b0")])    # B_1: the RMW seed
    for i in range(1, pairs):
        b.txn(0, [W(f"k{i}", f"b{i}")])         # B chain, session 0
    return b.build()


def zipfian_history(read_proportion: float, seed: int = 1):
    params = WorkloadParams(
        sessions=scaled(8),
        txns_per_session=scaled(60),
        ops_per_txn=scaled(8),
        read_proportion=read_proportion,
        keys=scaled(500),
        distribution="zipfian",
    )
    return generate_history(params, seed=seed).history


def read_heavy_history(seed: int = 1):
    """The GeneralRH shape: 95 % reads over a zipfian key space, so hot
    versions have many readers and every branch carries many RW edges
    whose tails have many Dep-predecessors — the work per branch the
    classification rule is judged on."""
    params = WorkloadParams(
        sessions=16,
        txns_per_session=scaled(100),
        ops_per_txn=8,
        read_proportion=0.95,
        keys=scaled(4000),
        distribution="zipfian",
    )
    return generate_history(params, seed=seed).history


def write_heavy_history(seed: int = 1):
    """The GeneralRW shape: half the operations write, so iteration 1
    promotes tens of thousands of edges and the fixpoint reseeds."""
    params = WorkloadParams(
        sessions=16,
        txns_per_session=scaled(120),
        ops_per_txn=8,
        read_proportion=0.5,
        keys=scaled(3000),
        distribution="zipfian",
    )
    return generate_history(params, seed=seed).history


RESEED_SHAPES = {
    "general-RW": write_heavy_history,
    "general-RH": read_heavy_history,
}

PRUNE_CORPORA = {
    "cascade": lambda: cascade_history(scaled(48, minimum=8)),
    "zipfian-RW": lambda: zipfian_history(0.5),
    "zipfian-WH": lambda: zipfian_history(0.3),
}

PRUNE_VARIANTS = {
    "recompute": prune_constraints_recompute,
    "incremental": prune_constraints,
}


def prune_seconds(fn, history) -> tuple:
    """(best seconds, last PruneResult) over ROUNDS fresh polygraphs."""
    return best_of(fn, setup=lambda: build_polygraph(history)[0])


def assert_parity(history):
    """Both fixpoints must produce identical counters and known edges."""
    g_old, v1 = build_polygraph(history)
    g_new, v2 = build_polygraph(history)
    assert not v1 and not v2
    r_old = prune_constraints_recompute(g_old)
    r_new = prune_constraints(g_new)
    assert r_old.as_dict() == r_new.as_dict(), (
        r_old.as_dict(), r_new.as_dict()
    )
    assert sorted(map(str, g_old.known_edges)) == sorted(
        map(str, g_new.known_edges)
    )
    return r_new


def kernel_cascade(kernel: str, n: int) -> tuple:
    """(best seconds, final int rows) for the chain insertion trace
    ``insert(i, i+1)`` on a fresh eager closure of ``n`` vertices.

    This drives the closure kernel directly (no polygraph, no
    classification), isolating exactly the insert-bound work the numpy
    kernel exists to accelerate: every insert unions the new target
    into all ancestors of ``i`` — O(n^2/2) row ORs over the whole trace.
    """
    def chain(closure):
        for i in range(n - 1):
            closure.insert(i, i + 1)
        return closure

    seconds, closure = best_of(chain,
                               setup=lambda: CLOSURE_KERNELS[kernel](n))
    return seconds, closure.int_rows()


def classify_seconds(history) -> tuple:
    """(reference seconds, shipped seconds, constraints) for classifying
    every constraint of ``history``'s polygraph once against its seeded
    closure — best of ROUNDS each, identical decisions asserted."""
    graph, violations = build_polygraph(history)
    assert not violations
    state = PruneState(graph)
    reach, known = state.reach, state.known
    constraints = graph.constraints

    def reference():
        dep_preds = known.dep_preds
        return [
            (branch_impossible_reference(cons.either, reach, dep_preds),
             branch_impossible_reference(cons.orelse, reach, dep_preds))
            for cons in constraints
        ]

    def shipped():
        return classify_constraints(constraints, reach, known.pred_mask)

    reference_s, want = best_of(reference)
    shipped_s, got = best_of(shipped)
    assert got == want, "mask rule diverged from the per-predecessor rule"
    return reference_s, shipped_s, len(constraints)


@collector_paused  # as inside a check, where every reseed runs
def reseed_seconds(history) -> tuple:
    """(materialised seconds, hop seconds, reduced seconds, pair counts)
    for one closure reseed over ``history``'s known graph as fixpoint
    iteration 1 leaves it — best of ROUNDS each, identical rows
    asserted.  The first two close the pair projection of every typed
    known edge; the third the graph promotion installed, which skips
    the pairs the rest of the iteration implies."""
    graph, violations = build_polygraph(history)
    assert not violations
    state = PruneState(graph)
    decisions = classify_constraints(graph.constraints, state.reach,
                                     state.pred_mask)
    assert apply_decisions(graph, decisions, PruneResult(), state=state)
    n = graph.num_vertices
    known = KnownGraph.from_edges(n, graph.known_edges)
    reduced = state.known

    def materialised():
        return PyBitsetClosure.from_rows(
            transitive_closure_bits(n, known.induced_adjacency()).rows)

    def hop(of=known):
        return PyBitsetClosure.from_rows(of.closure().rows)

    materialised_s, want = best_of(materialised)
    hop_s, got = best_of(hop)
    reduced_s, got_reduced = best_of(lambda: hop(reduced))
    assert got.int_rows() == want.int_rows(), (
        "hop-graph closure diverged from the materialised KI"
    )
    assert got_reduced.int_rows() == want.int_rows(), (
        "the installed graph's closure diverged from the typed edges'"
    )
    counts = {
        "vertices": n,
        "dep": sum(map(len, known.dep)),
        "antidep": sum(map(len, known.antidep)),
        "ki": sum(map(len, known.induced_adjacency())),
        "reduced_dep": sum(map(len, reduced.dep)),
        "reduced_antidep": sum(map(len, reduced.antidep)),
    }
    return materialised_s, hop_s, reduced_s, counts


@collector_paused  # as inside a check
def iteration1_seconds(history) -> tuple:
    """(per-pair seconds, keyed seconds, counts) for pruning's first
    iteration over ``history``'s unbuilt polygraph — best of ROUNDS
    each, from a fresh polygraph and seeded closure every round,
    identical state asserted.  ``counts``: writer pairs, the pairs the
    keyed iteration ordered and the constraints it built."""
    best = {}
    states = {}
    for keyed in (False, True):
        best[keyed] = float("inf")
        for _ in range(ROUNDS):
            graph, violations = build_polygraph(history)
            assert not violations
            pairs = graph.num_constraints
            states[keyed], seconds = first_iteration(graph, keyed)
            best[keyed] = min(best[keyed], seconds)
    assert states[True] == states[False], (
        "the keyed first iteration diverged from the per-pair one"
    )
    graph, _violations = build_polygraph(history)
    state = PruneState(graph)
    order_writers(graph, state, PruneResult())
    counts = {"pairs": pairs, "pairs_ordered": state.pairs_ordered,
              "constraints_built": state.constraints_built}
    return best[False], best[True], counts


def disabled_trace_overhead_pct(history) -> float:
    """Measured cost of the *disabled* observability path on the cascade
    fixpoint, as a percentage of its wall time.

    The library is instrumented unconditionally, so the disabled cost is
    the no-op ``trace_span`` / ``counter`` calls the fixpoint makes.  We
    count those calls on an enabled run of the same corpus (recorded
    spans + published counters), micro-benchmark the per-call no-op cost
    with nothing installed, and take the ratio against the disabled
    wall time from :func:`prune_seconds`."""
    from repro.obs import (MetricsRegistry, Tracer, counter, trace_span,
                           use_metrics, use_tracer)

    disabled_seconds, _result = prune_seconds(prune_constraints, history)

    tracer = Tracer()
    registry = MetricsRegistry()
    graph, _violations = build_polygraph(history)
    with use_tracer(tracer), use_metrics(registry):
        prune_constraints(graph)
    payload = tracer.payload(metrics=registry.snapshot())
    obs_calls = (len(payload["spans"]) + payload["dropped"]
                 + len(payload["metrics"]["counters"]))

    reps = 20_000
    start = time.perf_counter()
    for _ in range(reps):
        with trace_span("noop"):
            pass
    span_cost = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    for _ in range(reps):
        counter("noop").inc()
    counter_cost = (time.perf_counter() - start) / reps

    disabled_cost = obs_calls * max(span_cost, counter_cost)
    return 100.0 * disabled_cost / disabled_seconds


def prune():
    """Incremental batch pruning vs the recompute-per-iteration reference.

    The pruning fixpoint (paper Section 4.3, Algorithm 2) is the dominant
    pre-solver cost.  The reference rebuilds the Dep/AntiDep adjacency
    and recomputes the whole SCC-condensed closure of the known induced
    graph on *every* iteration; ``prune_constraints`` seeds the shared
    incremental closure kernel once and only propagates the edges each
    iteration promotes (``repro.core.pruning.PruneState``).  Pinned:

    - **parity** — identical ``PruneResult`` counters and known-edge sets
      on every corpus, and every run reaching a verdict;
    - **speedup** — wall-clock ratio per corpus, headlined by the
      *cascade* corpus: a deep resolution chain that resolves exactly one
      constraint per fixpoint iteration (asserted: at least 3 iterations,
      none left), the shape where per-iteration recomputation hurts most.
      Its bar is 2x (note ``speedup_bar_met``); the zipfian corpora (2-6
      iterations) are the realistic shallow-fixpoint baseline.
    - **kernel cascade** — an ascending chain insertion trace driven
      straight into each closure kernel, the insert-bound shape at a
      size where vectorization pays: rows identical between kernels, the
      numpy kernel (the online checker's) at 3x over the python one
      (series ``kernel-cascade[<kernel>]``, notes
      ``kernel_speedup_numpy`` / ``numpy_bar_met``).
    - **classify** — one fixpoint iteration's classification of a
      read-heavy polygraph against one frozen closure: the shipped
      bitset rule (``pair_impossible``) against one ``has()`` call per
      Dep-predecessor, identical decisions (series ``classify[python]``
      / ``classify-reference[python]``); below 1.3x at full scale fails.
    - **reseed** — the closure reseed on the known graph iteration 1
      leaves, where ``KI = Dep ∪ (Dep ; AntiDep)`` has grown to several
      times the pairs it composes: ``KnownGraph.closure()`` through hop
      nodes against composing KI with ``induced_adjacency()`` first, and
      the graph promotion actually installs (``reseed[reduced]``, which
      skips the pairs the rest of an iteration implies, DESIGN.md S9),
      identical rows; below 1.3x on the write-heavy shape at full scale
      fails.
    - **iteration1** — the first iteration from an unbuilt compact
      polygraph: ``order_writers`` (each key's writer pairs decided from
      its writers' rows) against building, classifying and applying
      every constraint, identical state (``tests/_helpers``'s
      ``first_iteration``), more pairs ordered than constraints built;
      below 2x on GeneralRW at full scale fails.
    - **disabled tracing** — the no-op observability path costs < 2 % of
      the cascade fixpoint (DESIGN.md S11).
    """
    report = BenchReport("prune", config={
        "rounds": ROUNDS,
        "corpora": sorted(PRUNE_CORPORA),
        "speedup_bar": CASCADE_SPEEDUP_BAR,
        "closure_backends": list(CLOSURE_KERNELS),
        "numpy_speedup_bar": NUMPY_SPEEDUP_BAR,
        "kernel_cascade_n": KERNEL_CASCADE_N,
        "classify_speedup_bar": CLASSIFY_SPEEDUP_BAR,
        "reseed_speedup_bar": RESEED_SPEEDUP_BAR,
        "iteration1_speedup_bar": ITERATION1_SPEEDUP_BAR,
    })
    rows = []
    speedups = {}
    for corpus, make in PRUNE_CORPORA.items():
        history = make()
        parity = assert_parity(history)
        report.count_verdict("prune_ok" if parity.ok else "prune_violation")
        if corpus == "cascade":
            assert parity.iterations >= 3 and parity.constraints_after == 0, (
                f"the cascade took {parity.iterations} iterations and left "
                f"{parity.constraints_after} constraints: not a deep fixpoint"
            )
        timings = {}
        for variant, fn in PRUNE_VARIANTS.items():
            seconds, result = prune_seconds(fn, history)
            assert result.ok, f"{variant} pruning of {corpus} found a cycle"
            timings[variant] = seconds
            report.add_point(variant, corpus, seconds=seconds, axis="corpus")
        speedup = timings["recompute"] / timings["incremental"]
        speedups[corpus] = speedup
        report.note(f"speedup_{corpus}", round(speedup, 2))
        rows.append([
            corpus,
            len(history),
            parity.iterations,
            parity.pruned,
            f"{timings['recompute']:.3f}",
            f"{timings['incremental']:.3f}",
            f"{speedup:.2f}x",
        ])
    report.note("speedup_bar_met", speedups["cascade"] >= CASCADE_SPEEDUP_BAR)
    report.note("parity", "ok")

    # The kernel-cascade trace: the perf gate for the numpy kernel.
    kernel_rows = []
    kernel_seconds = {}
    kernel_int_rows = {}
    for backend in CLOSURE_KERNELS:
        seconds, final_rows = kernel_cascade(backend, KERNEL_CASCADE_N)
        kernel_seconds[backend] = seconds
        kernel_int_rows[backend] = final_rows
        report.add_point(f"kernel-cascade[{backend}]", KERNEL_CASCADE_N,
                         seconds=seconds, axis="vertices")
        kernel_rows.append([backend, KERNEL_CASCADE_N, f"{seconds:.3f}"])
    assert kernel_int_rows["python"][0], "the chain did not close"
    for backend, final_rows in kernel_int_rows.items():
        assert final_rows == kernel_int_rows["python"], (
            f"kernel {backend} diverged from the python reference"
        )
    report.note("kernel_parity", "ok")
    kernel_speedup = kernel_seconds["python"] / kernel_seconds["numpy"]
    numpy_bar_met = kernel_speedup >= NUMPY_SPEEDUP_BAR
    report.note("kernel_speedup_numpy", round(kernel_speedup, 2))
    report.note("numpy_bar_met", numpy_bar_met)

    # The classification rule on its own: one iteration's worth of
    # branches against one frozen closure, old rule vs shipped rule.
    read_heavy = read_heavy_history()
    kernel = PyBitsetClosure.name
    reference, shipped, constraints = classify_seconds(read_heavy)
    assert constraints, "the read-heavy polygraph has no constraint"
    report.add_point(f"classify-reference[{kernel}]", constraints,
                     seconds=reference, axis="constraints")
    report.add_point(f"classify[{kernel}]", constraints,
                     seconds=shipped, axis="constraints")
    classify_speedup = reference / shipped
    classify_rows = [[kernel, constraints, f"{reference:.3f}",
                      f"{shipped:.3f}", f"{classify_speedup:.2f}x"]]
    classify_bar_met = classify_speedup >= CLASSIFY_SPEEDUP_BAR
    report.note("classify_speedup", round(classify_speedup, 2))
    report.note("classify_bar_met", classify_bar_met)
    report.note("classify_parity", "ok")

    # The reseed kernel on its own: the known graph iteration 1 leaves
    # behind, closed through hop nodes vs composed first.
    reseed_rows = []
    reduced_rows = []
    reseed_speedups = {}
    for shape, make in RESEED_SHAPES.items():
        materialised, hop, reduced, counts = reseed_seconds(make())
        assert counts["ki"] > counts["dep"], (shape, counts)
        assert counts["reduced_dep"] <= counts["dep"], (shape, counts)
        assert counts["reduced_antidep"] < counts["antidep"], (shape, counts)
        report.add_point("reseed[materialised]", shape,
                         seconds=materialised, axis="shape")
        report.add_point("reseed[hop]", shape, seconds=hop, axis="shape")
        report.add_point("reseed[reduced]", shape, seconds=reduced,
                         axis="shape")
        report.note(f"reseed_{shape}", counts)
        reseed_speedups[shape] = materialised / hop
        reseed_rows.append([shape, counts["vertices"], counts["dep"],
                            counts["antidep"], counts["ki"],
                            f"{materialised:.3f}", f"{hop:.3f}",
                            f"{materialised / hop:.2f}x"])
        reduced_rows.append([shape, counts["reduced_dep"],
                             counts["reduced_antidep"], f"{hop:.3f}",
                             f"{reduced:.3f}", f"{hop / reduced:.2f}x"])
    reseed_bar_met = reseed_speedups["general-RW"] >= RESEED_SPEEDUP_BAR
    report.note("reseed_speedup", round(reseed_speedups["general-RW"], 2))
    report.note("reseed_bar_met", reseed_bar_met)
    report.note("reseed_parity", "ok")

    # The first iteration on its own: each key decided in bulk from its
    # writers' rows vs every constraint built and classified.
    iteration1_rows = []
    iteration1_speedups = {}
    for shape, make in RESEED_SHAPES.items():
        per_pair, keyed, counts = iteration1_seconds(make())
        assert counts["pairs_ordered"] > counts["constraints_built"], (
            shape, counts)
        report.add_point("iteration1[per-pair]", shape, seconds=per_pair,
                         axis="shape")
        report.add_point("iteration1[keyed]", shape, seconds=keyed,
                         axis="shape")
        report.note(f"iteration1_{shape}", counts)
        iteration1_speedups[shape] = per_pair / keyed
        iteration1_rows.append([shape, counts["pairs"],
                                counts["pairs_ordered"],
                                counts["constraints_built"],
                                f"{per_pair:.3f}", f"{keyed:.3f}",
                                f"{per_pair / keyed:.2f}x"])
    iteration1_speedup = iteration1_speedups["general-RW"]
    iteration1_bar_met = iteration1_speedup >= ITERATION1_SPEEDUP_BAR
    report.note("iteration1_speedup", round(iteration1_speedup, 2))
    report.note("iteration1_bar_met", iteration1_bar_met)
    report.note("iteration1_parity", "ok")

    # Stage-level cost breakdown of one traced batch check (DESIGN S11).
    note_stage_seconds(report, PRUNE_CORPORA["cascade"]())
    # ... and the disabled-overhead budget gate: the no-op observability
    # path must cost < 2% of the cascade fixpoint.
    overhead_pct = disabled_trace_overhead_pct(PRUNE_CORPORA["cascade"]())
    trace_bar_met = overhead_pct < TRACE_OVERHEAD_BAR_PCT
    report.note("trace_overhead_pct", round(overhead_pct, 3))
    report.note("trace_overhead_bar_met", trace_bar_met)

    print("\nIncremental vs recompute-per-iteration pruning "
          f"(best of {ROUNDS}, seconds)")
    print(render_table(
        ["corpus", "txns", "iters", "pruned", "recompute", "incremental",
         "speedup"],
        rows,
    ))
    print("\nparity: identical PruneResult counters and known-edge sets "
          "on every corpus")
    bar = "meets" if speedups["cascade"] >= CASCADE_SPEEDUP_BAR else "below"
    print(f"cascade speedup: {speedups['cascade']:.2f}x "
          f"({bar} the {CASCADE_SPEEDUP_BAR:.0f}x bar)")

    print(f"\nClosure kernel cascade ({KERNEL_CASCADE_N} vertices, "
          f"best of {ROUNDS}, seconds; identical rows asserted)")
    print(render_table(["kernel", "vertices", "seconds"], kernel_rows))
    bar = "meets" if numpy_bar_met else "below"
    print(f"numpy kernel speedup: {kernel_speedup:.2f}x "
          f"({bar} the {NUMPY_SPEEDUP_BAR:.0f}x bar)")
    print(f"disabled observability overhead: {overhead_pct:.3f}% of the "
          f"cascade fixpoint (budget {TRACE_OVERHEAD_BAR_PCT:.0f}%)")

    print(f"\nClassification rule, one iteration over a read-heavy "
          f"polygraph ({len(read_heavy)} txns, best of {ROUNDS}, seconds; "
          "identical decisions asserted)")
    print(render_table(
        ["kernel", "constraints", "per-predecessor", "mask", "speedup"],
        classify_rows,
    ))
    bar = "meets" if classify_bar_met else "below"
    print(f"classify speedup [{kernel}]: {classify_speedup:.2f}x "
          f"({bar} the {CLASSIFY_SPEEDUP_BAR}x keep-or-revert line)")
    print(f"\nClosure reseed after fixpoint iteration 1 [{kernel}] "
          f"(best of {ROUNDS}, seconds; identical rows asserted)")
    print(render_table(
        ["shape", "vertices", "|Dep|", "|AntiDep|", "|KI|", "materialised",
         "hop", "speedup"],
        reseed_rows,
    ))
    bar = "meets" if reseed_bar_met else "below"
    print(f"reseed speedup [general-RW, {kernel}]: "
          f"{reseed_speedups['general-RW']:.2f}x "
          f"({bar} the {RESEED_SPEEDUP_BAR}x keep-or-revert line)")
    print(f"\nThe same reseed over the graph promotion installed [{kernel}] "
          f"(best of {ROUNDS}, seconds; identical rows asserted)")
    print(render_table(
        ["shape", "|Dep| installed", "|AntiDep| installed", "hop",
         "reduced", "speedup"],
        reduced_rows,
    ))
    print(f"\nFixpoint iteration 1 from an unbuilt polygraph [{kernel}] "
          f"(best of {ROUNDS}, seconds; identical state asserted)")
    print(render_table(
        ["shape", "writer pairs", "ordered", "constraints built",
         "per-pair", "keyed", "speedup"],
        iteration1_rows,
    ))
    bar = "meets" if iteration1_bar_met else "below"
    print(f"iteration 1 speedup [general-RW, {kernel}]: "
          f"{iteration1_speedup:.2f}x "
          f"({bar} the {ITERATION1_SPEEDUP_BAR:.0f}x bar)")
    print(f"results: {report.write()}")
    assert trace_bar_met, (
        f"disabled observability overhead {overhead_pct:.2f}% breaches "
        f"the {TRACE_OVERHEAD_BAR_PCT:.0f}% budget (DESIGN.md S11)"
    )
    if SCALE >= 1.0:
        assert iteration1_bar_met, (
            f"the keyed first iteration is {iteration1_speedup:.2f}x the "
            f"per-pair one on the write-heavy shape, below the "
            f"{ITERATION1_SPEEDUP_BAR:.0f}x bar"
        )
        assert reseed_bar_met, (
            f"the hop-graph reseed is {reseed_speedups['general-RW']:.2f}x "
            f"the materialised one on the write-heavy shape on the "
            f"{kernel} kernel, below the {RESEED_SPEEDUP_BAR}x line: "
            "revert it (ROADMAP, 'Spend the measurement')"
        )
        assert classify_bar_met, (
            f"mask classification is {classify_speedup:.2f}x the "
            f"per-predecessor rule on the {kernel} kernel, below the "
            f"{CLASSIFY_SPEEDUP_BAR}x line: revert it (ROADMAP, 'Spend the "
            "measurement')"
        )


# -- online: incremental checking vs repeated batch re-checking ---------------

ONLINE_SIZES = [scaled(120), scaled(240), scaled(480)]
REBATCH_STRIDE = 8
#: Each timed cell is the fastest of this many rounds.
REPEATS = 5


def online_run(txns, *, solve_every: int = 1, windowed: bool = False,
               batch: int = 1):
    """Check ``txns`` online, ``batch`` transactions per call (``add``
    for one, ``extend`` for more); returns amortized seconds per
    transaction and the final result's stats."""
    window = WindowPolicy(max_live=64, gc_every=32) if windowed else None
    checker = OnlineChecker(
        solve_every=solve_every,
        window=window,
        sessions=range(STREAM_SESSIONS) if windowed else None,
    )
    start = time.perf_counter()
    if batch == 1:
        for session, ops, status in txns:
            result = checker.add(session, ops, status=status)
            assert result.satisfies_si, "benchmark streams are SI-valid"
    else:
        for at in range(0, len(txns), batch):
            result = checker.extend(txns[at:at + batch])
            assert result.satisfies_si, "benchmark streams are SI-valid"
    final = checker.finish()
    elapsed = time.perf_counter() - start
    assert final.satisfies_si
    return elapsed / max(1, len(txns)), final.stats


def rebatch_amortized(txns, *, stride: int = REBATCH_STRIDE) -> float:
    """Amortized seconds per transaction, re-checking the growing prefix
    with the batch pipeline every ``stride`` transactions."""
    start = time.perf_counter()
    for upto in range(stride, len(txns) + 1, stride):
        builder = HistoryBuilder()
        for session, ops, status in txns[:upto]:
            builder.txn(session, ops, status=status)
        result = check_si(builder.build())
        assert result.satisfies_si
    elapsed = time.perf_counter() - start
    return elapsed / len(txns)


ONLINE_MODES = {
    "online": {},
    "online/8": {"solve_every": 8},
    "online+win": {"solve_every": 8, "windowed": True},
    "batch/1": {"windowed": True},
    "batch/64": {"windowed": True, "batch": 64},
}
#: Asserted at full scale: ``batch/1`` over ``batch/64`` seconds.
MIN_BATCH_SPEEDUP = 1.2
REBATCH = f"rebatch/{REBATCH_STRIDE}"
#: The order of one timing round: the asserted pair back to back.
ROUND = ("online", REBATCH, *(m for m in ONLINE_MODES if m != "online"))


def online():
    """Online incremental checking vs repeated batch re-checking.

    A monitor that wants a verdict after every transaction can re-run
    the batch checker on the growing prefix (cost grows with history
    length) or check incrementally with :class:`repro.online.OnlineChecker`
    (cost per transaction tracks the *residue* — unresolved constraints
    plus the new edges — not the history).  Amortized per-transaction
    wall time, on streams of increasing length, for:

    - ``online``      — incremental, solving after every transaction;
    - ``online/8``    — incremental, solving every 8th transaction;
    - ``online+win``  — incremental with a bounded window (eviction on);
    - ``batch/1``, ``batch/64`` — windowed, a verdict after every batch:
      one ``add`` per transaction against one ``extend`` per
      64-transaction slice (the service daemon's batch), which prunes,
      evicts and solves once per slice;
    - ``rebatch/8``   — batch re-check of the prefix every 8th
      transaction (a *conservative* stand-in for per-transaction
      re-checking, which would be 8x slower again).

    Asserted at the largest size: solving after *every* transaction costs
    less per transaction than re-running the batch checker every 8th.
    Every cell is the fastest of ``REPEATS`` rounds, each round running
    every series once, the two asserted ones back to back: scheduling
    noise only ever adds time, and a slow spell on one side of that
    comparison could otherwise decide it at smoke scale.

    ``derived`` records what keeps the online column flat:
    ``solver_builds`` per mode (one instance per stream, plus one per
    window compaction — asserted), ``solve1_over_solve8``, and the
    machine-independent work counts ``prune_asked``, ``gc_examined`` and
    ``closure`` (``inserts_new`` / ``inserts_known`` / ``queries``) per
    mode; and ``batch_speedup``, ``batch/1`` over ``batch/64``, asserted
    at 1.2x or more at full scale (both runs must reach the same accepted
    count and evictions).
    """
    report = BenchReport("online", config={
        "sessions": STREAM_SESSIONS, "sizes": ONLINE_SIZES,
        "modes": sorted([*ONLINE_MODES, REBATCH]),
        "seconds_meaning": "amortized per transaction",
        "repeats": REPEATS,
    })
    rows = []
    for size in ONLINE_SIZES:
        txns = stream_txns(size, seed=11)
        cells = [str(len(txns))]
        runs = {mode: [] for mode in (*ONLINE_MODES, REBATCH)}
        builds, asked, examined, settled, closure = {}, {}, {}, {}, {}
        for _ in range(REPEATS):
            for mode in ROUND:
                if mode == REBATCH:
                    runs[mode].append(rebatch_amortized(txns))
                    continue
                per_txn, stats = online_run(txns, **ONLINE_MODES[mode])
                runs[mode].append(per_txn)
                settled[mode] = (stats["accepted"],
                                 stats["window"]["evicted"])
                builds[mode] = stats["solver_builds"]
                asked[mode] = stats["prune_asked"]
                examined[mode] = stats["gc_examined"]
                closure[mode] = {name: stats["closure"][name] for name in
                                 ("inserts_new", "inserts_known", "queries")}
                assert builds[mode] <= stats["window"]["compactions"] + 1, (
                    f"{mode}: {builds[mode]} solver instances for "
                    f"{stats['window']['compactions']} compactions")
        seconds = {mode: min(times) for mode, times in runs.items()}
        for mode, per_txn in seconds.items():
            cells.append(f"{per_txn * 1000:.2f}")
            report.add_point(mode, len(txns), seconds=per_txn, axis="txns")
            report.count_verdict("si")  # the mode runners assert validity
        rows.append(cells)
    # The last (largest) size is the headline.
    report.note("solver_builds", builds)
    report.note("prune_asked", asked)
    report.note("gc_examined", examined)
    report.note("closure", closure)
    report.note("solve1_over_solve8",
                round(seconds["online"] / seconds["online/8"], 2))
    assert settled["batch/1"] == settled["batch/64"], settled
    batch_speedup = round(seconds["batch/1"] / seconds["batch/64"], 2)
    report.note("batch_speedup", batch_speedup)
    # Stage-level cost breakdown of one traced online replay (DESIGN S11).
    builder = HistoryBuilder()
    for session, ops, status in stream_txns(ONLINE_SIZES[0], seed=11):
        builder.txn(session, ops, status=status)
    note_stage_seconds(report, builder.build(), mode="online", solve_every=8)
    print("\nOnline vs repeated-batch checking (amortized ms per txn)")
    print(render_table(["txns", *ONLINE_MODES, REBATCH], rows))
    print(f"solver instances built at {rows[-1][0]} txns: {builds}; "
          f"online / online/8 = {report.derived['solve1_over_solve8']}")
    print(f"constraints asked: {asked}; vertices examined: {examined}")
    print(f"closure work: {closure}")
    print(f"batch/1 / batch/64 = {batch_speedup}")
    print(f"results: {report.write()}")
    assert seconds["online"] < seconds[REBATCH], (
        f"at {rows[-1][0]} txns a verdict after every transaction costs "
        f"{seconds['online'] * 1000:.2f} ms/txn online but "
        f"{seconds[REBATCH] * 1000:.2f} ms/txn by re-running the batch "
        f"checker every {REBATCH_STRIDE}th: the online checker has stopped "
        "being incremental"
    )
    if SCALE >= 1.0:
        assert batch_speedup >= MIN_BATCH_SPEEDUP, (
            f"at {rows[-1][0]} txns one extend per 64-transaction slice is "
            f"only {batch_speedup}x faster than one add per transaction "
            f"(want {MIN_BATCH_SPEEDUP}x): the batch no longer settles once"
        )


# -- solver: the MonoSAT substitute and the reachability kernels --------------

#: ROADMAP, "Spend the measurement": a layer change keeps its place only
#: at >= 1.3x on the layer, measured at full scale.
SEARCH_SPEEDUP_BAR = 1.3

REACHABILITY_KERNELS = {
    "bits": transitive_closure_bits,
    "sets": transitive_closure_sets,
}


def random_3sat(num_vars: int, num_clauses: int, seed: int):
    rng = random.Random(seed)
    return [
        [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(3)]
        for _ in range(num_clauses)
    ]


def solve_cnf(num_vars, clauses) -> bool:
    solver = CDCLSolver()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver.solve()


def build_layered_dag(layers: int, width: int, seed: int):
    """A layered DAG: the shape of known induced graphs."""
    rng = random.Random(seed)
    n = layers * width
    edges = []
    for layer in range(layers - 1):
        for i in range(width):
            u = layer * width + i
            for _ in range(3):
                edges.append((u, (layer + 1) * width + rng.randrange(width)))
    return n, edges


def acyclic_theory_solves() -> dict:
    """Both acyclicity-theory configurations over one 20x25 layered DAG,
    each forcing its edges true and solved once: ``insert-heavy`` pushes
    every edge through the theory (the solve stage's hot path),
    ``static-substrate`` keeps them as permanent substrate under 60
    variable edges (the post-pruning configuration)."""
    n, edges = build_layered_dag(20, 25, seed=3)
    static_adj = [[] for _ in range(n)]
    for u, v in edges:
        static_adj[u].append(v)
    rng = random.Random(5)
    var_edges = [
        (rng.randrange(n // 2), n // 2 + rng.randrange(n // 2))
        for _ in range(60)
    ]

    def solve(substrate, forced):
        solver = AcyclicGraphSolver(n, static_adj=substrate)
        for (u, v) in forced:
            var = solver.new_var()
            solver.add_edge(var, u, v)
            solver.add_clause([var])
        return solver.solve()

    return {
        "insert-heavy": functools.partial(solve, None, edges),
        "static-substrate": functools.partial(solve, static_adj, var_edges),
    }


def general_rw_polygraph(seed: int = 1):
    """The pruned polygraph of a GeneralRW-shaped history (the e2e
    ``general_rw`` unit: hundreds of constraints survive pruning), with
    the prune result whose state the encoder reads."""
    history = generate_history(
        WorkloadParams(sessions=scaled(16), txns_per_session=scaled(120),
                       ops_per_txn=8, read_proportion=0.5, keys=scaled(3000),
                       distribution="zipfian"),
        seed=seed, isolation="snapshot").history
    graph, violations = build_polygraph(history)
    pruned = prune_constraints(graph)
    assert not violations and pruned.ok
    return graph, pruned


def search_seconds(graph, pruned, *, all_vars: bool):
    """Best-of solve time of a fresh encoding of ``graph``, over the
    cycle core as the checker builds it; returns ``(seconds, verdict,
    stats)``."""
    def encoded():
        solver = encode_polygraph(graph, pruned).solver
        if all_vars:
            for var in range(1, solver.num_vars + 1):
                solver.set_decision_var(var, False)
        return solver

    seconds, (verdict, solver) = best_of(
        lambda solver: (solver.solve(), solver), setup=encoded)
    return seconds, verdict, solver.stats.as_dict()


def solver():
    """Micro-benchmarks for the solver substrate (the MonoSAT substitute)
    and the reachability kernels used by pruning.

    Not a paper figure, but the ablation data behind three engineering
    choices DESIGN.md calls out: the Pearce-Kelly dynamic topological
    order in the acyclicity theory (both configurations must solve), the
    SCC-condensed bitset closure versus the naive set-based kernel, and
    the search deciding constraint choices only (``search[choices]``,
    what ships: derived variables ``decision=False``, choice phases
    seeded from the topological order) versus deciding every variable
    with phase *false* (``search[all-vars]``, the search it replaced) on
    the pruned polygraph of a GeneralRW-shaped history.  Both searches
    must find it satisfiable, and at full scale the first must beat the
    second by ROADMAP's 1.3x keep-or-revert line (it reads 10x and more).
    """
    report = BenchReport("solver", config={
        "cnf_vars": 60, "dag": "20x25 layered", "closure_dag": "15x20 layered",
        "search_instance": "GeneralRW 16x120x8, 3000 zipfian keys (scaled)",
        "search_speedup_bar": SEARCH_SPEEDUP_BAR,
    })
    rows = []
    for label, ratio in [("easy-sat", 3.0), ("phase-transition", 4.26),
                         ("easy-unsat", 5.0)]:
        clauses = random_3sat(60, int(60 * ratio), seed=7)
        m = measure(solve_cnf, 60, clauses)
        report.add_point("cdcl-3sat", label, seconds=m.seconds,
                         peak_mb=m.peak_mb, axis="ratio")
        rows.append([f"cdcl-3sat/{label}", f"{m.seconds:.4f}"])

    for label, solve in acyclic_theory_solves().items():
        seconds, satisfied = best_of(solve)
        assert satisfied, f"acyclic-theory/{label}: a DAG read as cyclic"
        report.add_point("acyclic-theory", label, seconds=seconds,
                         axis="configuration")
        rows.append([f"acyclic-theory/{label}", f"{seconds:.4f}"])

    n, edges = build_layered_dag(15, 20, seed=9)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    for kernel, fn in REACHABILITY_KERNELS.items():
        m = measure(fn, n, adj)
        report.add_point("closure", kernel, seconds=m.seconds,
                         peak_mb=m.peak_mb, axis="kernel")
        rows.append([f"closure/{kernel}", f"{m.seconds:.4f}"])

    graph, pruned = general_rw_polygraph()
    searches = {}
    for label, all_vars in (("choices", False), ("all-vars", True)):
        seconds, verdict, stats = search_seconds(graph, pruned,
                                                 all_vars=all_vars)
        searches[label] = (seconds, verdict)
        report.add_point(f"search[{label}]", len(graph.constraints),
                         seconds=seconds, axis="constraints")
        report.note(f"search_decisions[{label}]", stats["decisions"])
        report.note(f"search_conflicts[{label}]", stats["conflicts"])
        rows.append([f"search[{label}] ({len(graph.constraints)} constraints, "
                     f"{stats['decisions']} decisions, "
                     f"{stats['conflicts']} conflicts)", f"{seconds:.4f}"])
    assert searches["choices"][1] == searches["all-vars"][1] is True, searches
    report.count_verdict("si", 2)
    speedup = searches["all-vars"][0] / searches["choices"][0]
    report.note("search_speedup", round(speedup, 2))
    report.note("search_speedup_bar_met", speedup >= SEARCH_SPEEDUP_BAR)

    print("\nSolver-substrate micro-benchmarks (seconds)")
    print(render_table(["case", "seconds"], rows))
    print(f"search speedup, choices over all-vars: {speedup:.1f}x "
          f"(keep-or-revert line {SEARCH_SPEEDUP_BAR}x, gated at full scale)")
    print(f"results: {report.write()}")
    if SCALE >= 1.0:
        assert speedup >= SEARCH_SPEEDUP_BAR, (
            f"deciding choices only is {speedup:.2f}x the all-variable "
            f"search, below the {SEARCH_SPEEDUP_BAR}x line: revert it "
            "(ROADMAP, 'Spend the measurement')"
        )


# -- corpus: the known-anomaly corpus and the verdict record ------------------

#: The paper's corpus size, scaled like every other workload.
CORPUS_SIZE = scaled(2477)

#: Gate: seconds in ``Report.to_json`` over seconds in ``repro.check``.
MAX_SERIALISE_SHARE = 0.15

#: The gate's corpus, shaped like the end-to-end ``corpus`` workload:
#: 2477 of every 3000 histories are known anomalies padded to about 45
#: transactions, the rest valid 48-transaction histories.
GATE_PADDING_TXNS = 40
GATE_VALID = WorkloadParams(sessions=6, txns_per_session=8, ops_per_txn=4,
                            read_proportion=0.5, keys=200,
                            distribution="uniform")


def gate_histories(count: int):
    anomalies = round(count * 2477 / 3000)
    histories = [h for _, h in known_anomaly_corpus(
        anomalies, seed=2023, padding_txns=GATE_PADDING_TXNS)]
    histories += [generate_history(GATE_VALID, seed=i,
                                   isolation="snapshot").history
                  for i in range(count - anomalies)]
    return histories


def serialise_share(histories):
    """``(check_s, to_json_s)`` summed over ``histories`` on the façade
    path, each the best of ``ROUNDS`` passes."""
    best_check = best_json = float("inf")
    for _ in range(ROUNDS):
        check_s = json_s = 0.0
        for history in histories:
            t0 = time.perf_counter()
            report = check(history)
            t1 = time.perf_counter()
            report.to_json()
            json_s += time.perf_counter() - t1
            check_s += t1 - t0
        best_check = min(best_check, check_s)
        best_json = min(best_json, json_s)
    return best_check, best_json


def sweep_corpus(count: int):
    detected = 0
    by_class: dict = {}
    for name, history in known_anomaly_corpus(count, seed=2023):
        result = check_si(history)
        stats = by_class.setdefault(name, [0, 0])
        stats[1] += 1
        if not result.satisfies_si:
            detected += 1
            stats[0] += 1
    return detected, by_class


def corpus():
    """Section 5.2.1: reproducing the corpus of known SI anomalies.

    The paper replays 2477 anomalous histories collected from
    CockroachDB, MySQL-Galera and YugabyteDB releases; PolySI flags every
    one.  Our regenerated corpus (``repro.workloads.corpus``) covers the
    anomaly classes those reports contain; the sweep must detect all of
    them, as must one lightly padded history per class.

    It also gates the verdict record: on the façade path
    (``repro.check`` then ``Report.to_json``), serialising a report may
    cost at most ``MAX_SERIALISE_SHARE`` of the check that produced it.
    """
    m = measure(sweep_corpus, CORPUS_SIZE)
    detected, by_class = m.result
    report = BenchReport("corpus", config={
        "corpus_size": CORPUS_SIZE, "classes": sorted(by_class),
    })
    report.add_point("polysi", CORPUS_SIZE, seconds=m.seconds,
                     peak_mb=m.peak_mb, axis="histories")
    report.count_verdict("violation", detected)
    report.count_verdict("si", CORPUS_SIZE - detected)
    report.note("detection_rate", detected / CORPUS_SIZE)
    report.note("histories_per_second",
                round(CORPUS_SIZE / m.seconds, 1) if m.seconds else None)
    check_s, json_s = serialise_share(gate_histories(CORPUS_SIZE))
    share = json_s / check_s if check_s else 0.0
    report.note("facade_check_s", round(check_s, 4))
    report.note("facade_to_json_s", round(json_s, 4))
    report.note("serialise_share", round(share, 4))
    rows = []
    for name in sorted(by_class):
        found, total = by_class[name]
        rows.append([name, total, found, "100%" if found == total else "MISS"])
    print(f"\nSection 5.2.1: known-anomaly corpus ({CORPUS_SIZE} histories)")
    print(render_table(["anomaly class", "histories", "detected", "rate"], rows))
    print(f"total detected: {detected}/{CORPUS_SIZE}")
    print(f"Report.to_json {json_s:.3f}s / repro.check {check_s:.3f}s = "
          f"{share:.3f} (gate {MAX_SERIALISE_SHARE})")
    print(f"results: {report.write()}")
    assert detected == CORPUS_SIZE, by_class
    missed = [name for name in sorted(ANOMALY_TEMPLATES) if check_si(
        make_anomaly(name, seed=11, padding_txns=6)).satisfies_si]
    assert not missed, f"padded anomalies read as SI: {missed}"
    assert share <= MAX_SERIALISE_SHARE, (
        f"serialising reports costs {share:.2f}x the check "
        f"(gate {MAX_SERIALISE_SHARE}x)")


# -- segmented: segmented checking for long histories -------------------------

SEGMENT_TXNS_PER_SESSION = [scaled(30), scaled(60), scaled(120)]
SEGMENT_SESSIONS = scaled(6)
SNAPSHOT_EVERY = scaled(40)
POOL_SNAPSHOT_EVERY = scaled(540)
POOL_WORKERS = [1, 2]


def check_segments(run, **options):
    """The native segmented verdict, through the facade untraced."""
    return check(run, mode="segmented", trace=False, **options).native


@functools.lru_cache(maxsize=None)
def segmented_run(txns_per_session: int, seed: int = 1,
                  snapshot_every: int = SNAPSHOT_EVERY):
    params = WorkloadParams(
        sessions=SEGMENT_SESSIONS,
        txns_per_session=txns_per_session,
        ops_per_txn=scaled(6),
        keys=scaled(200),
        distribution="zipfian",
    )
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(seed=seed)
    return run_segmented_workload(
        db, spec, snapshot_every=snapshot_every, seed=seed
    )


def pooled_seconds(run, workers: int) -> float:
    """Best-of-ROUNDS wall clock; no tracemalloc, which would only slow
    the in-process side."""
    def pooled():
        result = check_segments(run, workers=workers, oversubscribe=True)
        assert result.satisfies_si
        return result

    return best_of(pooled)[0]


def segmented():
    """Extension: segmented checking for long histories (Section 6).

    The paper sketches snapshot-based history segmentation as future
    work; ``repro.extensions.segmented`` implements it.  With periodic
    snapshots, checking cost scales with *segment* length instead of
    total history length: the sweep over total history length, with a
    fixed segment size, compares whole-history checking against
    segmented checking.  Every point must satisfy SI, and the longest
    history must check faster in segments than whole.

    A pooled series then takes a history three times the sweep's longest,
    with a barrier every POOL_SNAPSHOT_EVERY commits (a few heavy
    segments), and checks it in-process (``workers=1``) and on the
    segment pool (``workers=2``, oversubscribed so the pool runs on
    one-CPU hosts too), recording ``derived.pool_speedup`` (no bar).
    Light segments cost less to check than to ship to a worker, so small
    scales read below 1x.
    """
    seg_sweep = Sweep("segmented")
    whole_sweep = Sweep("whole-history")
    for txns in SEGMENT_TXNS_PER_SESSION:
        run = segmented_run(txns)
        seg_sweep.run(txns, check_segments, run)
        whole_sweep.run(txns, PolySIChecker().check, run.full_history())
    print(f"\nSection 6 extension: segmented vs whole-history checking "
          f"(snapshot every {SNAPSHOT_EVERY} commits)")
    print(render_series(
        "txns/session", SEGMENT_TXNS_PER_SESSION, [whole_sweep, seg_sweep]
    ))
    report = BenchReport("segmented", config={
        "snapshot_every": SNAPSHOT_EVERY, "sessions": SEGMENT_SESSIONS,
        "txns_per_session": SEGMENT_TXNS_PER_SESSION,
    })
    report.add_sweeps([whole_sweep, seg_sweep], axis="txns_per_session",
                      xs=SEGMENT_TXNS_PER_SESSION)
    record_sweep_verdicts(report, [whole_sweep, seg_sweep])

    run = segmented_run(3 * SEGMENT_TXNS_PER_SESSION[-1],
                        snapshot_every=POOL_SNAPSHOT_EVERY)
    segments = sum(1 for segment in run.segments if segment.txns)
    pooled = {workers: pooled_seconds(run, workers)
              for workers in POOL_WORKERS}
    for workers, seconds in pooled.items():
        report.add_point("pooled", workers, seconds=seconds, axis="workers")
        report.count_verdict("si")
    speedup = pooled[1] / pooled[2]
    report.note("pool_segments", segments)
    report.note("pool_speedup", round(speedup, 2))
    print(f"\nsegment pool on {run.total_txns} txns in {segments} "
          "segment(s), oversubscribed")
    print(render_table(["workers", "seconds"],
                       [[w, f"{s:.3f}"] for w, s in pooled.items()]))
    print(f"pool_speedup (workers=1 / workers=2): {speedup:.2f}x")
    # Stage-level cost breakdown of one traced segmented check (DESIGN S11).
    note_stage_seconds(report, segmented_run(SEGMENT_TXNS_PER_SESSION[0]),
                       mode="segmented")
    print(f"results: {report.write()}")
    for sweep in (whole_sweep, seg_sweep):
        for txns, m in sweep.points.items():
            assert not m.timed_out and m.result.satisfies_si, (
                f"{sweep.name} at {txns} txns/session")
    longest = SEGMENT_TXNS_PER_SESSION[-1]
    seg_s = seg_sweep.points[longest].seconds
    whole_s = whole_sweep.points[longest].seconds
    assert seg_s < whole_s, (
        f"at {longest} txns/session segmented checking takes "
        f"{seg_s:.3f}s, whole-history {whole_s:.3f}s: segments no "
        "longer bound the cost")


# -- collect: live-database collection ----------------------------------------

SESSION_COUNTS = [2, 4, 8]
COLLECT_TXNS = scaled(240)


def collect_workload(sessions: int, seed: int = 7):
    """A fixed-size workload split across ``sessions`` sessions."""
    params = WorkloadParams(
        sessions=sessions,
        txns_per_session=max(2, COLLECT_TXNS // sessions),
        ops_per_txn=5,
        keys=max(12, COLLECT_TXNS // 10),
        read_proportion=0.5,
        distribution="zipfian",
    )
    return generate_workload(params, seed=seed)


def collect_once(sessions: int):
    """One collection run; returns (run, collect_seconds)."""
    adapter = SQLiteAdapter()
    try:
        start = time.perf_counter()
        run = Collector(adapter).run(collect_workload(sessions))
        elapsed = time.perf_counter() - start
    finally:
        adapter.close()
    return run, elapsed


def collect():
    """Live-database collection: throughput and end-to-end wall clock.

    Collection is the stage the other gates skip — they start from a
    history that already exists.  This one measures what it costs to
    *produce* that history from a real database (the stdlib SQLite
    adapter, WAL mode, one connection per session thread) and what the
    full check-a-live-database loop costs end to end:

    - ``collect``   — wall-clock seconds to run the workload against
      SQLite over N concurrent sessions and record the observed history;
    - ``txn/s``     — collection throughput (completed transactions per
      second, aborts included);
    - ``check``     — batch-checking the collected history (must satisfy
      SI);
    - ``e2e``       — collect + check, the ``repro collect --check`` path.

    Expected shape: collection cost is I/O-bound and grows with session
    count (SQLite serializes writers, so more sessions mean more lock
    waits and retries, not more parallel commits), while checking stays
    CPU-bound — at these sizes the two are the same order of magnitude.
    """
    report = BenchReport("collect", config={
        "session_counts": SESSION_COUNTS, "txns_total": COLLECT_TXNS,
        "adapter": "sqlite",
    })
    rows = []
    for sessions in SESSION_COUNTS:
        run, collect_s = collect_once(sessions)
        start = time.perf_counter()
        result = check_si(run.history)
        check_s = time.perf_counter() - start
        assert result.satisfies_si, "SQLite histories must satisfy SI"
        report.add_point("collect", sessions, seconds=collect_s,
                         axis="sessions")
        report.add_point("check", sessions, seconds=check_s, axis="sessions")
        report.add_point("e2e", sessions, seconds=collect_s + check_s,
                         axis="sessions")
        report.count_verdict("si")
        report.note(f"txn_per_s_{sessions}sessions", round(run.throughput, 1))
        rows.append([
            sessions,
            len(run.history),
            run.aborted,
            run.retried,
            f"{collect_s:.2f}",
            f"{run.throughput:.0f}",
            f"{check_s:.2f}",
            f"{collect_s + check_s:.2f}",
        ])
    print("\nLive SQLite collection (collect vs check vs end-to-end seconds)")
    print(render_table(
        ["sessions", "txns", "aborted", "retried", "collect",
         "txn/s", "check", "e2e"],
        rows,
    ))
    print(f"results: {report.write()}")


# -- timestamp: the timestamp engine vs batch PolySI --------------------------

#: The acceptance bar on the headline (largest clean) corpus.
TIMESTAMP_SPEEDUP_BAR = 5.0

#: The corpus the bar is measured on.
TIMESTAMP_HEADLINE = "collected-L"

#: Collected corpora: (sessions, txns/session, keys, injection profile).
TIMESTAMP_CORPORA = {
    "collected-S": (2, scaled(40, minimum=10), scaled(48, minimum=12), None),
    "collected-M": (4, scaled(60, minimum=10), scaled(96, minimum=12), None),
    "collected-L": (4, scaled(120, minimum=10), scaled(160, minimum=12), None),
    "collected-faulty": (4, scaled(40, minimum=10), scaled(48, minimum=12),
                         "lost-update"),
}

TIMESTAMP_CHECKERS = {
    "timestamp": lambda h: TimestampChecker().check(h),
    "polysi": lambda h: PolySIChecker().check(h),
}


def collect_corpus(name: str, seed: int = 7):
    """Collect one named corpus from live SQLite (optionally faulty)."""
    sessions, txns, keys, profile = TIMESTAMP_CORPORA[name]
    adapter = SQLiteAdapter()
    if profile is not None:
        adapter = FaultyAdapter(adapter, profile=profile, seed=seed)
    params = WorkloadParams(
        sessions=sessions,
        txns_per_session=txns,
        ops_per_txn=5,
        keys=keys,
        read_proportion=0.5,
        distribution="zipfian",
    )
    spec = generate_workload(params, seed=seed)
    try:
        run = Collector(adapter).run(spec)
    finally:
        adapter.close()
    return run.history


def timestamp():
    """Timestamp-accelerated checking vs the batch PolySI pipeline.

    The ``timestamp`` engine validates SI directly from the
    per-transaction ``(start_ts, commit_ts)`` intervals the collection
    layer records (here: SQLite's database-issued logical clock), in
    near-linear time, and only falls back to the full PolySI pipeline on
    the timestamp-ambiguous residue.  Pinned:

    - **parity** — the timestamp engine and batch PolySI return the same
      verdict on every corpus: SI on the clean ones, a violation on the
      fault-injected one, where the fallback must find it;
    - **speedup** — wall-clock ratio per collected corpus, headlined by
      the largest clean collection, where the bar is >= 5x.  On cleanly
      collected SQLite histories the logical-clock intervals certify
      every transaction (``residue_fraction`` 0.0, also recorded per
      corpus in ``derived``), so the comparison is the honest
      near-linear-scan vs solve-the-polygraph cost gap.

    The fault-injected corpus is excluded from the bar: anomalies there
    poison their ambiguity clusters, so the engine pays validation *plus*
    a fallback on the residue, which is the designed behaviour
    (soundness over speed on suspicious histories).
    """
    report = BenchReport("timestamp", config={
        "rounds": ROUNDS,
        "corpora": sorted(TIMESTAMP_CORPORA),
        "speedup_bar": TIMESTAMP_SPEEDUP_BAR,
        "headline": TIMESTAMP_HEADLINE,
        "adapter": "sqlite",
    })
    rows = []
    speedups = {}
    for corpus, (*_shape, profile) in TIMESTAMP_CORPORA.items():
        history = collect_corpus(corpus)
        timings = {}
        results = {}
        for name, fn in TIMESTAMP_CHECKERS.items():
            seconds, result = best_of(functools.partial(fn, history))
            timings[name] = seconds
            results[name] = result
            report.add_point(name, corpus, seconds=seconds, axis="corpus")
        ts, ps = results["timestamp"], results["polysi"]
        assert ts.satisfies_si == ps.satisfies_si, (
            f"verdict divergence on {corpus}: timestamp says "
            f"{ts.satisfies_si}, polysi says {ps.satisfies_si}"
        )
        assert ps.satisfies_si == (profile is None), (
            f"{corpus}: satisfies_si is {ps.satisfies_si} with injection "
            f"profile {profile}"
        )
        report.count_verdict("si" if ps.satisfies_si else "violation", 2)
        residue_fraction = ts.stats.get("residue_fraction", 0.0)
        speedup = timings["polysi"] / timings["timestamp"]
        speedups[corpus] = speedup
        report.note(f"speedup_{corpus}", round(speedup, 2))
        report.note(f"residue_fraction_{corpus}", round(residue_fraction, 4))
        rows.append([
            corpus,
            len(history),
            f"{residue_fraction:.2f}",
            ts.decided_by,
            f"{timings['polysi']:.3f}",
            f"{timings['timestamp']:.4f}",
            f"{speedup:.1f}x",
        ])
    headline = speedups[TIMESTAMP_HEADLINE]
    report.note("residue_fraction",
                report.derived[f"residue_fraction_{TIMESTAMP_HEADLINE}"])
    report.note("speedup_bar_met", headline >= TIMESTAMP_SPEEDUP_BAR)
    report.note("parity", "ok")
    # Stage-level cost breakdown of one traced timestamp check (S11).
    note_stage_seconds(report, collect_corpus(TIMESTAMP_HEADLINE),
                       engine="timestamp")

    print("\nTimestamp engine vs batch PolySI on live-collected SQLite "
          f"histories (best of {ROUNDS}, seconds)")
    print(render_table(
        ["corpus", "txns", "residue", "decided_by", "polysi", "timestamp",
         "speedup"],
        rows,
    ))
    print("\nparity: identical verdicts on every corpus "
          "(fault-injected one included)")
    bar = "meets" if headline >= TIMESTAMP_SPEEDUP_BAR else "below"
    print(f"{TIMESTAMP_HEADLINE} speedup: {headline:.1f}x "
          f"({bar} the {TIMESTAMP_SPEEDUP_BAR:.0f}x bar)")
    print(f"results: {report.write()}")
    assert headline >= TIMESTAMP_SPEEDUP_BAR, (
        f"timestamp engine speedup {headline:.1f}x on "
        f"{TIMESTAMP_HEADLINE} breaches the {TIMESTAMP_SPEEDUP_BAR:.0f}x bar "
        "(DESIGN.md S12)"
    )


# -- resume: durability cost and recovery speed -------------------------------

RESUME_SIZES = [scaled(150), scaled(300), scaled(600)]
CHECKPOINT_EVERY = 64
RESUME_SPEEDUP_BAR = 5.0
JOURNAL_OVERHEAD_BAR = 0.05
#: Reopens per timed recovery path; the best one counts.
REOPENS = 3


def plain_seconds(txns) -> float:
    checker = OnlineChecker()
    start = time.perf_counter()
    for session, ops, status in txns:
        checker.add(session, ops, status=status)
    result = checker.finish()
    elapsed = time.perf_counter() - start
    assert result.satisfies_si
    return elapsed


def persistent_seconds(txns, path: str, *, checkpoint_every: int) -> float:
    """Feed + finish through a fresh ``PersistentCheck`` at ``path``."""
    start = time.perf_counter()
    with PersistentCheck(path, checkpoint_every=checkpoint_every) as check:
        for session, ops, status in txns:
            check.feed(session, ops, status=status)
        result = check.finish()
    elapsed = time.perf_counter() - start
    assert result.satisfies_si
    return elapsed


def append_only_seconds(txns, path: str) -> float:
    """Journal the stream without checking it — the durability tax."""
    start = time.perf_counter()
    with SegmentStore.create(path) as store:
        for session, ops, status in txns:
            store.append_event((session, ops, status, None))
    return time.perf_counter() - start


def reopen_seconds(path: str, *, resume: bool) -> float:
    """Time-to-verdict for reopening a finished state directory."""
    start = time.perf_counter()
    with PersistentCheck(path, resume=resume) as check:
        result = check.finish()
    elapsed = time.perf_counter() - start
    assert result.satisfies_si
    if resume:
        assert check.replayed == 0, "final checkpoint should cover the log"
    else:
        assert check.resumed_from == 0
    return elapsed


def with_passes(run, *args, **kwargs):
    """``(run(...), collector passes per generation during it)``."""
    before = collector_passes()
    value = run(*args, **kwargs)
    after = collector_passes()
    return value, {name: after[name] - before[name] for name in after}


def resume():
    """Resume-from-checkpoint vs re-check-from-scratch (DESIGN.md S14).

    The segment store's pitch is that durability is cheap and recovery
    is fast.  Both claims, priced on valid SI streams of increasing
    length:

    - ``plain``    — the in-memory ``OnlineChecker`` alone (the baseline
      every durability cost is measured against);
    - ``journal``  — ``PersistentCheck`` with checkpoints disabled: every
      event is encoded, appended and flushed before it is checked;
    - ``append-only`` — the journaling path in isolation (appending the
      whole stream to a store, no checker): the durability tax
      ``journal`` adds over ``plain``, measured directly rather than as
      the difference of two large noisy numbers.  The bar: **< 5% of
      plain** at the largest size, where the store's fixed setup cost
      has amortized away;
    - ``checkpoint`` — journaling plus a checkpoint every 64 events (the
      steady-state ``watch --state-dir`` configuration);
    - ``recheck``  — reopening the finished state dir with
      ``resume=False``: a full replay of the journal, what recovery would
      cost without checkpoints;
    - ``resume``   — reopening with ``resume=True``: restore the final
      checkpoint, replay nothing.  The bar: **>= 5x faster than
      recheck** at the largest size (and growing with it — replay is
      O(journal), restore is O(state)).  ``recheck`` and ``resume`` are
      each the best of three reopens of the same directory.

    ``derived.gc`` records, per series (``plain``, ``journal``,
    ``checkpoint``, ``resume``), the cyclic collector's passes per
    generation during that series' run at the largest size (``resume``:
    its last reopen) — no bar, a record of what the collector pause
    leaves.
    """
    report = BenchReport("resume", config={
        "sessions": STREAM_SESSIONS,
        "sizes": RESUME_SIZES,
        "checkpoint_every": CHECKPOINT_EVERY,
        "resume_speedup_bar": RESUME_SPEEDUP_BAR,
        "journal_overhead_bar": JOURNAL_OVERHEAD_BAR,
        "seconds_meaning": "whole-run wall time",
    })
    rows = []
    speedups = []
    overheads = []
    workdir = tempfile.mkdtemp(prefix="bench_resume_")
    try:
        # Warm both paths untimed: module imports, first store creation,
        # and allocator growth otherwise land on the smallest size.
        warmup = stream_txns(min(RESUME_SIZES), seed=17)
        plain_seconds(warmup)
        persistent_seconds(warmup, os.path.join(workdir, "warmup"),
                           checkpoint_every=0)
        for size in RESUME_SIZES:
            txns = stream_txns(size, seed=17)
            n = len(txns)
            passes = {}
            plain, passes["plain"] = with_passes(plain_seconds, txns)
            journal, passes["journal"] = with_passes(
                persistent_seconds, txns,
                os.path.join(workdir, f"journal-{n}"), checkpoint_every=0)
            append_only = min(
                append_only_seconds(
                    txns, os.path.join(workdir, f"append-{n}-{attempt}"))
                for attempt in range(3))
            ckpt_path = os.path.join(workdir, f"ckpt-{n}")
            checkpoint, passes["checkpoint"] = with_passes(
                persistent_seconds, txns, ckpt_path,
                checkpoint_every=CHECKPOINT_EVERY)
            # Best of three reopens each, as for append-only: one noisy
            # sample must not decide the speedup bar.
            recheck = min(reopen_seconds(ckpt_path, resume=False)
                          for _ in range(REOPENS))
            resumes = [with_passes(reopen_seconds, ckpt_path, resume=True)
                       for _ in range(REOPENS)]
            resume_s = min(seconds for seconds, _ in resumes)
            passes["resume"] = resumes[-1][1]

            overhead = append_only / plain
            speedup = recheck / max(resume_s, 1e-9)
            overheads.append((n, overhead))
            speedups.append((n, speedup))
            for series, seconds in (("plain", plain), ("journal", journal),
                                    ("append-only", append_only),
                                    ("checkpoint", checkpoint),
                                    ("recheck", recheck),
                                    ("resume", resume_s)):
                report.add_point(series, n, seconds=seconds, axis="txns")
                report.count_verdict("si")
            rows.append([str(n), f"{plain:.3f}", f"{journal:.3f}",
                         f"{append_only:.4f}", f"{checkpoint:.3f}",
                         f"{recheck:.3f}", f"{resume_s:.3f}",
                         f"{overhead * 100:.2f}%", f"{speedup:.1f}x"])
        report.note("gc", passes)  # the largest size's
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("\nDurability cost and recovery speed (seconds, whole run)")
    print(render_table(
        ["txns", "plain", "journal", "append-only", "checkpoint",
         "recheck", "resume", "durability tax", "resume speedup"],
        rows,
    ))
    print("collector passes per generation at the largest size: "
          + ", ".join(f"{series} {'/'.join(map(str, counts.values()))}"
                      for series, counts in report.derived["gc"].items()))
    print(f"results: {report.write()}")

    largest, speedup = speedups[-1]
    assert speedup >= RESUME_SPEEDUP_BAR, (
        f"resume speedup regressed at {largest} txns: {speedup:.1f}x "
        f"< {RESUME_SPEEDUP_BAR}x — restore should be O(state), "
        f"replay O(journal)"
    )
    largest_n, overhead = overheads[-1]
    assert overhead < JOURNAL_OVERHEAD_BAR, (
        f"durability tax at {largest_n} txns is {overhead * 100:.1f}% "
        f">= {JOURNAL_OVERHEAD_BAR * 100:.0f}% of the in-memory "
        f"checker — durability is supposed to hide behind checking"
    )
    print(f"bars ok: resume {speedup:.1f}x >= {RESUME_SPEEDUP_BAR}x and "
          f"durability tax {overhead * 100:.2f}% < "
          f"{JOURNAL_OVERHEAD_BAR * 100:.0f}% at {largest} txns")


# -- interpret: the counterexample pipeline next to checking ------------------

CYCLIC_CLASSES = [
    name for name in sorted(ANOMALY_TEMPLATES)
    if name not in ("aborted-read", "intermediate-read")
]


def interpret_cost(label: str, history):
    """``(check, interpret+dot)`` measurements of one anomalous history,
    asserting the pipeline costs less than 20 checks or half a second."""
    check_m = measure(check_si, history)
    result = check_m.result
    assert not result.satisfies_si, label
    interpret_m = measure(lambda: interpret_violation(result).to_dot())
    assert interpret_m.seconds < max(0.5, check_m.seconds * 20), (
        f"{label}: interpreting takes {interpret_m.seconds:.3f}s, "
        f"checking {check_m.seconds:.3f}s")
    return check_m, interpret_m


def interpret():
    """Interpretation-algorithm cost (Section 5.3).

    The paper's interpretation pass is a 300-line post-processing step
    whose cost is negligible next to checking; per anomaly class, and
    on a longer long-fork history, the counterexample pipeline (restore
    -> resolve -> finalize -> classify -> DOT) must cost less than 20
    checks or half a second.
    """
    report = BenchReport("interpret", config={"classes": CYCLIC_CLASSES})
    rows = []
    for name in CYCLIC_CLASSES:
        check_m, interpret_m = interpret_cost(
            name, make_anomaly(name, seed=5, padding_txns=10))
        report.count_verdict("violation")
        report.add_point("check", name, seconds=check_m.seconds,
                         peak_mb=check_m.peak_mb, axis="anomaly_class")
        report.add_point("interpret+dot", name, seconds=interpret_m.seconds,
                         peak_mb=interpret_m.peak_mb, axis="anomaly_class")
        rows.append([name, f"{check_m.seconds:.4f}",
                     f"{interpret_m.seconds:.4f}"])
    print("\nInterpretation cost next to checking (seconds)")
    print(render_table(["anomaly class", "check", "interpret+dot"], rows))
    label = "long-fork, seed 6, 20 padding txns"
    check_m, interpret_m = interpret_cost(
        label, make_anomaly("long-fork", seed=6, padding_txns=20))
    print(f"{label}: check {check_m.seconds:.4f}s, "
          f"interpret+dot {interpret_m.seconds:.4f}s")
    print(f"results: {report.write()}")


# -- service: the daemon under concurrent collectors --------------------------

#: Concurrent collector processes (the acceptance floor is 4).
COLLECTORS = 4

#: Small on purpose: the gate must exercise the 429 reject/resend path,
#: not avoid it.
QUEUE_DEPTH = 16

#: Small global budget so window eviction engages during the run.
MAX_LIVE_TOTAL = 64
MIN_LIVE_SHARE = 8

#: The tenant fed through the anomaly-injecting adapter.
FAULTY_TENANT = "collector-3"

#: One event pushed before any collector starts, so the daemon's thread
#: count is read once with a single tenant.
WARM_UP_TENANT = "warm-up"

SERVICE_PARAMS = WorkloadParams(
    sessions=4,
    txns_per_session=scaled(30, minimum=8),
    ops_per_txn=4,
    keys=scaled(48, minimum=12),
    read_proportion=0.5,
    distribution="uniform",
)


def _collector_main(name: str, seed: int, inject, http_port: int,
                    results: "multiprocessing.Queue") -> None:
    """One collector process: live SQLite collection -> HTTP push."""
    adapter = SQLiteAdapter()
    if inject is not None:
        adapter = FaultyAdapter(adapter, profile=inject, seed=seed)
    spec = generate_workload(SERVICE_PARAMS, seed=seed)
    try:
        run = Collector(adapter).run(spec)
    finally:
        adapter.close()
    client = ServiceClient("127.0.0.1", http_port)
    start = time.perf_counter()
    stats = client.push_events(name, run.iter_events(),
                               sessions=SERVICE_PARAMS.sessions, batch=32)
    elapsed = time.perf_counter() - start
    results.put({
        "tenant": name,
        "seed": seed,
        "injected": inject is not None,
        "push_seconds": elapsed,
        **stats.as_dict(),
    })


def _context_switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_nvcsw + usage.ru_nivcsw


def service():
    """Checking-as-a-service under concurrent collectors.

    One in-process daemon (``repro.service.ReproService``) ingests from
    **N collector processes at once** — each runs a live SQLite
    collection and streams its events to its own tenant over the
    ``repro-events/1`` HTTP wire, through a deliberately *small*
    per-tenant queue so backpressure (HTTP 429 reject/resend) actually
    engages.  One tenant is anomaly-injected; the rest are clean.
    Asserted:

    - **zero event loss under backpressure** — every event each
      collector sent was eventually accepted (rejected events are counted
      and resent by the producer, never dropped), against both the
      client's and the daemon's accounting, and backpressure engaged;
    - **verdict correctness** — after drain, clean tenants are satisfied
      and the injected one violated;
    - **one checker thread** — the threads the daemon runs
      (``derived.daemon_threads``) are the same with one tenant as with
      ``COLLECTORS + 1``.

    Recorded: ingest throughput (events/s across all collectors), verdict
    latency (per ``GET /verdict/<tenant>`` round trip, sampled during
    ingestion), eviction counts under the global live-transaction budget,
    and ``derived.ctx_switches_per_event`` (``getrusage`` delta of this
    process — the daemon's threads plus the sampling loop — over the
    events served).
    """
    report = BenchReport("service", config={
        "collectors": COLLECTORS,
        "queue_depth": QUEUE_DEPTH,
        "max_live_total": MAX_LIVE_TOTAL,
        "sessions": SERVICE_PARAMS.sessions,
        "txns_per_session": SERVICE_PARAMS.txns_per_session,
        "faulty_tenant": FAULTY_TENANT,
        "adapter": "sqlite",
        "wire": "repro-events/1 over HTTP (429 backpressure)",
    })
    daemon = ReproService(ServiceConfig(
        http_port=0, tcp_port=None,
        queue_depth=QUEUE_DEPTH,
        max_live_total=MAX_LIVE_TOTAL,
        min_live_share=MIN_LIVE_SHARE,
    ))
    threads_before = threading.active_count()
    handle = daemon.start_in_thread()
    client = ServiceClient("127.0.0.1", handle.http_port)
    client.push_events(WARM_UP_TENANT, [(0, (W("warm-up", 1),), "committed")],
                       sessions=1)
    deadline = time.monotonic() + 30
    while client.verdict(WARM_UP_TENANT)["events"] < 1:
        assert time.monotonic() < deadline, "warm-up event never checked"
        time.sleep(0.01)
    threads_one_tenant = threading.active_count() - threads_before
    switches_before = _context_switches()
    results: "multiprocessing.Queue" = multiprocessing.Queue()
    workers = []
    for i in range(COLLECTORS):
        name = f"collector-{i}"
        inject = "lost-update" if name == FAULTY_TENANT else None
        workers.append(multiprocessing.Process(
            target=_collector_main,
            args=(name, i + 1, inject, handle.http_port, results),
        ))
    wall_start = time.perf_counter()
    for w in workers:
        w.start()

    # Sample verdict-query latency while ingestion is in flight.
    verdict_latencies = []
    while any(w.is_alive() for w in workers):
        for name in client.tenants():
            t0 = time.perf_counter()
            client.verdict(name)
            verdict_latencies.append(time.perf_counter() - t0)
        time.sleep(0.02)
    for w in workers:
        w.join()
    ingest_wall = time.perf_counter() - wall_start

    collector_stats = [results.get() for _ in range(COLLECTORS)]
    assert all(w.exitcode == 0 for w in workers), "a collector crashed"
    daemon_threads = threading.active_count() - threads_before
    assert daemon_threads == threads_one_tenant, (
        f"daemon threads depend on the tenant count: {threads_one_tenant} "
        f"with one tenant, {daemon_threads} with {COLLECTORS + 1}"
    )

    drain_start = time.perf_counter()
    verdicts = handle.drain()
    drain_seconds = time.perf_counter() - drain_start
    switches = _context_switches() - switches_before
    del verdicts[WARM_UP_TENANT]
    # Final-verdict latency: the polished read path after drain.
    for name in sorted(verdicts):
        t0 = time.perf_counter()
        client.verdict(name)
        verdict_latencies.append(time.perf_counter() - t0)

    sent_total = sum(s["sent"] for s in collector_stats)
    accepted_total = sum(s["accepted"] for s in collector_stats)
    rejected_total = sum(s["rejected_retries"] for s in collector_stats)
    served_total = sum(v["events"] for v in verdicts.values())
    zero_loss = sent_total == accepted_total == served_total
    assert zero_loss, (
        f"event loss: sent={sent_total} accepted={accepted_total} "
        f"daemon-side={served_total}"
    )
    assert rejected_total > 0, (
        "backpressure never engaged; shrink QUEUE_DEPTH so the gate "
        "actually measures the reject/resend path"
    )
    evictions_total = sum(
        v["report"]["stats"].get("window", {}).get("evicted", 0)
        for v in verdicts.values()
    )

    rows = []
    for stats in sorted(collector_stats, key=lambda s: s["tenant"]):
        name = stats["tenant"]
        verdict = verdicts[name]["report"]["verdict"]
        expected = "violated" if stats["injected"] else "satisfied"
        assert verdict == expected, (
            f"{name}: expected {expected}, daemon said {verdict}"
        )
        report.count_verdict("si" if verdict == "satisfied" else "violation")
        eps = stats["sent"] / stats["push_seconds"]
        report.add_point("ingest", name, seconds=stats["push_seconds"],
                         axis="tenant")
        report.note(f"events_{name}", stats["sent"])
        report.note(f"rejected_retries_{name}", stats["rejected_retries"])
        rows.append([
            name,
            stats["sent"],
            stats["rejected_retries"],
            f"{eps:.0f}",
            verdict,
            verdicts[name].get("classification", "-"),
        ])

    throughput = sent_total / ingest_wall
    report.add_point("service", "drain", seconds=drain_seconds, axis="stage")
    report.note("collectors", COLLECTORS)
    report.note("events_sent", sent_total)
    report.note("events_accepted", accepted_total)
    report.note("rejected_total", rejected_total)
    report.note("zero_loss", zero_loss)
    report.note("ingest_throughput_eps", round(throughput, 1))
    report.note("evictions_total", evictions_total)
    report.note("verdict_latency_p50_ms", round(
        1000 * statistics.median(verdict_latencies), 3))
    report.note("verdict_latency_max_ms", round(
        1000 * max(verdict_latencies), 3))
    report.note("drain_seconds", round(drain_seconds, 3))
    report.note("daemon_threads", daemon_threads)
    report.note("ctx_switches_per_event", round(switches / served_total, 2))

    print(f"\n{COLLECTORS} concurrent collector processes -> one daemon "
          f"(queue_depth={QUEUE_DEPTH}, max_live_total={MAX_LIVE_TOTAL})")
    print(render_table(
        ["tenant", "events", "rejects", "events/s", "verdict",
         "classification"],
        rows,
    ))
    print(f"\naggregate ingest throughput: {throughput:.0f} events/s "
          f"({sent_total} events in {ingest_wall:.2f}s wall)")
    print(f"backpressure: {rejected_total} rejected event(s), all resent "
          "and accepted — zero loss")
    print(f"window evictions under the {MAX_LIVE_TOTAL}-txn budget: "
          f"{evictions_total}")
    print(f"daemon threads: {daemon_threads} (one tenant or "
          f"{COLLECTORS + 1}); "
          f"{report.derived['ctx_switches_per_event']} context switches "
          "per event")
    print(f"verdict latency: p50 "
          f"{report.derived['verdict_latency_p50_ms']}ms, max "
          f"{report.derived['verdict_latency_max_ms']}ms")
    print(f"results: {report.write()}")
    handle.stop()


GATES = {
    "prune": prune,
    "online": online,
    "solver": solver,
    "corpus": corpus,
    "segmented": segmented,
    "collect": collect,
    "timestamp": timestamp,
    "resume": resume,
    "interpret": interpret,
    "service": service,
}


def main(argv=None):
    run_named(GATES, argv, "gate")


if __name__ == "__main__":
    main()
