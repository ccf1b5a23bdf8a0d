"""Incremental batch pruning vs the recompute-per-iteration reference.

The pruning fixpoint (paper Section 4.3, Algorithm 2) is the dominant
pre-solver cost.  The pre-PR implementation rebuilt the Dep/AntiDep
adjacency and recomputed the whole SCC-condensed closure of the known
induced graph on *every* iteration; ``prune_constraints`` now seeds the
shared incremental closure kernel once and only propagates the edges
each iteration promotes (``repro.core.pruning.PruneState``).  This bench
pins both:

- **parity** — identical ``PruneResult`` counters and identical
  resulting known-edge sets on every corpus (asserted, not printed);
- **speedup** — wall-clock ratio per corpus, headlined by the
  *cascade* corpus: a deep resolution chain that resolves exactly one
  constraint per fixpoint iteration, the shape where per-iteration
  recomputation hurts most.  The acceptance bar for this repo is >= 2x
  there (typical machines land far above it); the zipfian workload
  corpora (2-6 iterations) are reported alongside as the realistic
  shallow-fixpoint baseline.

The incremental fixpoint runs on batch pruning's kernel, the python
int-bitset closure (DESIGN.md S10).  A *kernel cascade* — an ascending
chain insertion trace driven straight into each closure kernel, built
directly, the insert-bound shape at a size where vectorization pays
(every insert propagates one new target into all ancestors) — gates the
numpy kernel, the online checker's, at >= 3x over the python one
(series ``kernel-cascade[<kernel>]``, notes ``kernel_speedup_numpy`` /
``numpy_bar_met``), with byte-identical rows asserted between kernels.

The **classify** series isolates one fixpoint iteration's
classification — every constraint of a read-heavy polygraph against
one frozen closure — and times the shipped rule (bitset algebra on one
closure row per branch, ``repro.core.pruning.pair_impossible``)
against the rule it replaced (one ``has()`` call per Dep-predecessor,
kept as the test oracle in ``tests/_helpers.py``), on batch pruning's
kernel, with identical decisions asserted (series ``classify[python]``
/ ``classify-reference[python]``, notes ``classify_speedup`` /
``classify_bar_met``).
ROADMAP's rule for a single-layer optimisation applies: below 1.3x at
full scale the run fails, because the change is then to be reverted,
not kept behind a flag.

The **reseed** series isolates the closure reseed the fixpoint's
delta-adaptive flush falls back to: on the known graph as iteration 1
leaves it — where ``KI = Dep ∪ (Dep ; AntiDep)`` has grown to several
times the pairs of the two relations it composes — it times the shipped
kernel (``KnownGraph.closure()``, which walks Dep and AntiDep through
hop nodes) against the one it replaced (compose KI with
``induced_adjacency()``, then close it), each wrapped into batch
pruning's kernel as ``PruneState._seed`` does, identical rows asserted (series
``reseed[hop]`` / ``reseed[materialised]`` per shape, notes
``reseed_<shape>`` with ``dep`` / ``antidep`` / ``ki`` pair counts,
``reseed_speedup`` / ``reseed_bar_met`` for the write-heavy shape).
The same 1.3x line applies at full scale.  Both close the pair
projection of the typed known edges (``KnownGraph.from_edges``); the
``reseed[reduced]`` row closes the graph promotion actually installs,
which skips the pairs the rest of an iteration implies (DESIGN.md S9),
with its pair counts (``reduced_dep`` / ``reduced_antidep`` in the
``reseed_<shape>`` note) and identical rows asserted.

The **iteration1** series isolates the fixpoint's first iteration on
the GeneralRW and GeneralRH shapes, from an unbuilt compact polygraph
and its seeded closure: the shipped keyed iteration
(``repro.core.pruning.order_writers``: each key's writer pairs decided
from its writers' rows, a ``Constraint`` built only for a pair they
leave unordered) against the per-pair one it replaced (build the
constraint list, classify every constraint, apply), identical state
asserted — remaining constraints, counters, installed pairs, closure
queue and known edges (``tests/_helpers.first_iteration``; series
``iteration1[keyed]`` / ``iteration1[per-pair]`` per shape, notes
``iteration1_<shape>`` with ``pairs_ordered`` and
``constraints_built``, ``iteration1_speedup`` / ``iteration1_bar_met``
for GeneralRW).  Below 2x on GeneralRW at full scale the run fails.

Run:  PYTHONPATH=../src python bench_prune.py
"""

import os
import sys
import time

import pytest

from _common import SCALE, note_stage_seconds, scaled
from repro.bench.harness import render_table
from repro.bench.results import BenchReport
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
from repro.utils.closure import PyBitsetClosure
from repro.utils.closure_np import NumpyBitsetClosure
from repro.utils.gcpause import collector_paused
from repro.utils.reachability import transitive_closure_bits
from repro.workloads.generator import WorkloadParams, generate_history

# The replaced rule and fixpoint live with the test oracles.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from _helpers import (  # noqa: E402
    branch_impossible_reference,
    first_iteration,
    prune_constraints_recompute,
)

#: Wall-clock best-of-N to damp scheduler noise.
ROUNDS = 3

#: The repo's acceptance bar on the deep-fixpoint corpus.
SPEEDUP_BAR = 2.0

#: Both closure kernels by name: batch pruning's, then the online
#: checker's.
KERNELS = {"python": PyBitsetClosure, "numpy": NumpyBitsetClosure}

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


def workload_history(read_proportion: float, seed: int = 1):
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


CORPORA = {
    "cascade": lambda: cascade_history(scaled(48, minimum=8)),
    "zipfian-RW": lambda: workload_history(0.5),
    "zipfian-WH": lambda: workload_history(0.3),
}

VARIANTS = {
    "recompute": prune_constraints_recompute,
    "incremental": prune_constraints,
}


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


def best_of(fn, history) -> tuple:
    """(best seconds, last PruneResult) over ROUNDS fresh polygraphs."""
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        graph, _violations = build_polygraph(history)
        start = time.perf_counter()
        result = fn(graph)
        best = min(best, time.perf_counter() - start)
    return best, result


def best_call(fn) -> tuple:
    """(best seconds, last return value) of ``fn()`` over ROUNDS calls."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def kernel_cascade(kernel: str, n: int) -> tuple:
    """(best seconds, final int rows) for the chain insertion trace
    ``insert(i, i+1)`` on a fresh eager closure of ``n`` vertices.

    This drives the closure kernel directly (no polygraph, no
    classification), isolating exactly the insert-bound work the numpy
    kernel exists to accelerate: every insert unions the new target
    into all ancestors of ``i`` — O(n^2/2) row ORs over the whole trace.
    """
    backend = KERNELS[kernel]
    best = float("inf")
    closure = None
    for _ in range(ROUNDS):
        closure = backend(n)
        start = time.perf_counter()
        for i in range(n - 1):
            closure.insert(i, i + 1)
        best = min(best, time.perf_counter() - start)
    return best, closure.int_rows()


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

    reference_s, want = best_call(reference)
    shipped_s, got = best_call(shipped)
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

    materialised_s, want = best_call(materialised)
    hop_s, got = best_call(hop)
    reduced_s, got_reduced = best_call(lambda: hop(reduced))
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


@pytest.mark.parametrize("shape", sorted(RESEED_SHAPES))
def test_iteration1_parity(shape):
    per_pair, keyed, counts = iteration1_seconds(RESEED_SHAPES[shape]())
    assert per_pair > 0 and keyed > 0
    assert counts["pairs_ordered"] > counts["constraints_built"]


@pytest.mark.parametrize("shape", sorted(RESEED_SHAPES))
def test_reseed_kernel_parity(shape):
    materialised, hop, reduced, counts = reseed_seconds(
        RESEED_SHAPES[shape]())
    assert materialised > 0 and hop > 0 and reduced > 0
    assert counts["ki"] > counts["dep"]
    assert counts["reduced_dep"] <= counts["dep"]
    assert counts["reduced_antidep"] < counts["antidep"]


def test_classify_rule_parity():
    reference, shipped, constraints = classify_seconds(read_heavy_history())
    assert constraints and reference > 0 and shipped > 0


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_prune_variants(benchmark, corpus, variant):
    history = CORPORA[corpus]()
    seconds, result = benchmark.pedantic(
        best_of, args=(VARIANTS[variant], history), rounds=1, iterations=1
    )
    assert result.ok
    benchmark.extra_info["seconds"] = round(seconds, 4)
    benchmark.extra_info["iterations"] = result.iterations


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_prune_parity(corpus):
    assert_parity(CORPORA[corpus]())


def test_cascade_is_prune_heavy():
    """The headline corpus must actually exercise a deep fixpoint."""
    result = assert_parity(cascade_history(16))
    assert result.iterations >= 3
    assert result.constraints_after == 0


@pytest.mark.parametrize("backend", sorted(KERNELS))
def test_closure_backends_cascade(benchmark, backend):
    seconds, rows = benchmark.pedantic(
        kernel_cascade, args=(backend, scaled(512, minimum=64)),
        rounds=1, iterations=1,
    )
    assert rows[0]  # the chain closed transitively
    benchmark.extra_info["seconds"] = round(seconds, 4)


def test_kernel_cascade_backends_agree():
    """Byte-identical rows between kernels on the kernel trace."""
    rows = {b: kernel_cascade(b, 96)[1] for b in KERNELS}
    reference = rows.pop("python")
    for backend, got in rows.items():
        assert got == reference, backend


def disabled_trace_overhead_pct(history) -> float:
    """Measured cost of the *disabled* observability path on the cascade
    fixpoint, as a percentage of its wall time.

    The library is instrumented unconditionally, so the disabled cost is
    the no-op ``trace_span`` / ``counter`` calls the fixpoint makes.  We
    count those calls on an enabled run of the same corpus (recorded
    spans + published counters), micro-benchmark the per-call no-op cost
    with nothing installed, and take the ratio against the disabled
    wall time from :func:`best_of`."""
    from repro.obs import (MetricsRegistry, Tracer, counter, trace_span,
                           use_metrics, use_tracer)

    disabled_seconds, _result = best_of(prune_constraints, history)

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


def main():
    report = BenchReport("prune", config={
        "rounds": ROUNDS,
        "corpora": sorted(CORPORA),
        "speedup_bar": SPEEDUP_BAR,
        "closure_backends": list(KERNELS),
        "numpy_speedup_bar": NUMPY_SPEEDUP_BAR,
        "kernel_cascade_n": KERNEL_CASCADE_N,
        "classify_speedup_bar": CLASSIFY_SPEEDUP_BAR,
        "reseed_speedup_bar": RESEED_SPEEDUP_BAR,
        "iteration1_speedup_bar": ITERATION1_SPEEDUP_BAR,
    })
    rows = []
    speedups = {}
    for corpus, make in CORPORA.items():
        history = make()
        parity = assert_parity(history)
        report.count_verdict("prune_ok" if parity.ok else "prune_violation")
        timings = {}
        for variant, fn in VARIANTS.items():
            seconds, result = best_of(fn, history)
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
    report.note("speedup_bar_met", speedups["cascade"] >= SPEEDUP_BAR)
    report.note("parity", "ok")

    # The kernel-cascade trace: the perf gate for the numpy kernel.
    kernel_rows = []
    kernel_seconds = {}
    kernel_int_rows = {}
    for backend in KERNELS:
        seconds, final_rows = kernel_cascade(backend, KERNEL_CASCADE_N)
        kernel_seconds[backend] = seconds
        kernel_int_rows[backend] = final_rows
        report.add_point(f"kernel-cascade[{backend}]", KERNEL_CASCADE_N,
                         seconds=seconds, axis="vertices")
        kernel_rows.append([backend, KERNEL_CASCADE_N, f"{seconds:.3f}"])
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
    note_stage_seconds(report, CORPORA["cascade"]())
    # ... and the disabled-overhead budget gate: the no-op observability
    # path must cost < 2% of the cascade fixpoint.
    overhead_pct = disabled_trace_overhead_pct(CORPORA["cascade"]())
    trace_bar_met = overhead_pct < TRACE_OVERHEAD_BAR_PCT
    report.note("trace_overhead_pct", round(overhead_pct, 3))
    report.note("trace_overhead_bar_met", trace_bar_met)
    assert trace_bar_met, (
        f"disabled observability overhead {overhead_pct:.2f}% breaches "
        f"the {TRACE_OVERHEAD_BAR_PCT:.0f}% budget (DESIGN.md S11)"
    )

    print("\nIncremental vs recompute-per-iteration pruning "
          f"(best of {ROUNDS}, seconds)")
    print(render_table(
        ["corpus", "txns", "iters", "pruned", "recompute", "incremental",
         "speedup"],
        rows,
    ))
    print("\nparity: identical PruneResult counters and known-edge sets "
          "on every corpus")
    bar = "meets" if speedups["cascade"] >= SPEEDUP_BAR else "below"
    print(f"cascade speedup: {speedups['cascade']:.2f}x "
          f"({bar} the {SPEEDUP_BAR:.0f}x bar)")

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
    path = report.write()
    print(f"results: {path}")
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


if __name__ == "__main__":
    main()
