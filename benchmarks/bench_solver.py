"""Micro-benchmarks for the solver substrate (the MonoSAT substitute) and
the reachability kernels used by pruning.

Not a paper figure, but the ablation data behind three engineering
choices DESIGN.md calls out: the Pearce-Kelly dynamic topological order
in the acyclicity theory, the SCC-condensed bitset closure versus the
naive set-based kernel, and the search deciding constraint choices only
(``search[choices]``, what ships: derived variables ``decision=False``,
choice phases seeded from the topological order) versus deciding every
variable with phase *false* (``search[all-vars]``, the search it
replaced, rebuilt here by flipping the flags back) on the pruned
polygraph of a GeneralRW-shaped history.  Both searches must agree, and
at full scale the first must beat the second by ROADMAP's 1.3x
keep-or-revert line (it reads 10x and more).
"""

import random
import time

import pytest

from _common import SCALE, scaled
from repro.core.encoding import encode_polygraph
from repro.core.polygraph import build_polygraph
from repro.core.pruning import prune_constraints
from repro.solver.cdcl import CDCLSolver
from repro.solver.monosat import AcyclicGraphSolver
from repro.utils.reachability import (
    transitive_closure_bits,
    transitive_closure_sets,
)
from repro.workloads.generator import WorkloadParams, generate_history

#: ROADMAP, "Spend the measurement": a layer change keeps its place only
#: at >= 1.3x on the layer, measured at full scale.
SEARCH_SPEEDUP_BAR = 1.3
SEARCH_ROUNDS = 3


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


@pytest.mark.parametrize("ratio", [3.0, 4.26, 5.0], ids=["easy-sat", "phase-transition", "easy-unsat"])
def test_cdcl_random_3sat(benchmark, ratio):
    num_vars = 60
    clauses = random_3sat(num_vars, int(num_vars * ratio), seed=7)
    benchmark.pedantic(
        solve_cnf, args=(num_vars, clauses), rounds=3, iterations=1
    )


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


def test_acyclicity_theory_insert_heavy(benchmark):
    """Forcing hundreds of edges through the theory: the PolySI solve-stage
    hot path."""
    n, edges = build_layered_dag(20, 25, seed=3)

    def run():
        solver = AcyclicGraphSolver(n)
        for (u, v) in edges:
            var = solver.new_var()
            solver.add_edge(var, u, v)
            solver.add_clause([var])
        assert solver.solve()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_acyclicity_theory_with_static_substrate(benchmark):
    """Same edges as permanent substrate + a handful of variable edges:
    the post-pruning configuration."""
    n, edges = build_layered_dag(20, 25, seed=3)
    static_adj = [[] for _ in range(n)]
    for u, v in edges:
        static_adj[u].append(v)
    rng = random.Random(5)
    var_edges = [
        (rng.randrange(n // 2), n // 2 + rng.randrange(n // 2))
        for _ in range(60)
    ]

    def run():
        solver = AcyclicGraphSolver(n, static_adj=static_adj)
        for (u, v) in var_edges:
            var = solver.new_var()
            solver.add_edge(var, u, v)
            solver.add_clause([var])
        assert solver.solve()

    benchmark.pedantic(run, rounds=3, iterations=1)


KERNELS = {
    "bits": transitive_closure_bits,
    "sets": transitive_closure_sets,
}


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_closure_kernels(benchmark, kernel):
    n, edges = build_layered_dag(15, 20, seed=9)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    benchmark.pedantic(KERNELS[kernel], args=(n, adj), rounds=3, iterations=1)


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
    best = None
    for _ in range(SEARCH_ROUNDS):
        solver = encode_polygraph(graph, pruned).solver
        if all_vars:
            for var in range(1, solver.num_vars + 1):
                solver.set_decision_var(var, False)
        start = time.perf_counter()
        verdict = solver.solve()
        seconds = time.perf_counter() - start
        if best is None or seconds < best[0]:
            best = (seconds, verdict, solver.stats.as_dict())
    return best


@pytest.mark.parametrize("all_vars", [False, True],
                         ids=["choices", "all-vars"])
def test_search_over_choices_vs_all_vars(benchmark, all_vars):
    _seconds, verdict, _stats = benchmark.pedantic(
        search_seconds, args=general_rw_polygraph(),
        kwargs={"all_vars": all_vars},
        rounds=1, iterations=1)
    assert verdict


def main():
    from repro.bench.harness import measure, render_table
    from repro.bench.results import BenchReport

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

    n, edges = build_layered_dag(15, 20, seed=9)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    for kernel, fn in KERNELS.items():
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


if __name__ == "__main__":
    main()
