"""The paper's Section 5 evaluation: Figs. 6-11 and 15, Tables 2 and 3.

Each figure prints its paper-style tables, writes ``BENCH_<name>.json``
and then asserts the paper's claim it reproduces::

    python bench_paper.py                  # every figure, in FIGURES order
    python bench_paper.py fig9 table3      # just these

Sizes are scaled to pure-Python runtime (the paper's checker is JVM +
native MonoSAT) but keep the paper's sweep structure;
``REPRO_BENCH_SCALE`` grows or shrinks every workload proportionally.
"""

from __future__ import annotations

import functools
import random

from _common import record_sweep_verdicts, run_named, scaled
from repro import check
from repro.baselines.cobra import CobraChecker
from repro.baselines.cobrasi import CobraSIChecker
from repro.baselines.dbcop import DbcopBudgetExceeded, DbcopChecker
from repro.bench.harness import Sweep, measure, render_series, render_table
from repro.bench.results import BenchReport
from repro.core.checker import PolySIChecker
from repro.core.polygraph import build_polygraph
from repro.interpret import interpret_violation
from repro.listappend import ListAppendChecker, generate_list_history
from repro.storage.client import run_workload
from repro.storage.database import MVCCDatabase
from repro.storage.faults import DATABASE_PROFILES
from repro.workloads.benchmarks import (
    ctwitter_workload,
    rubis_workload,
    tpcc_workload,
)
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.keydist import ZipfianKeys


def assert_satisfied(sweeps, *, timeouts: bool = False) -> None:
    """Every measured point answered that its history satisfies the
    checked level; a timed-out point passes only with ``timeouts``
    (Fig. 6's baselines outgrow their budget)."""
    for sweep in sweeps:
        for x, m in sweep.points.items():
            assert m.result is True or (timeouts and m.timed_out), (
                f"{sweep.name} at {x}: "
                + ("no verdict in budget" if m.timed_out else "violated"))


# -- Figures 6, 7 and 15: the six workload axes ------------------------------

#: Base configuration (the paper: 20 sess x 100 txns x 15 ops, 50% reads,
#: 10k keys, zipfian — scaled for Python).
BASE = {
    "sessions": scaled(8),
    "txns_per_session": scaled(40),
    "ops_per_txn": scaled(8),
    "read_proportion": 0.5,
    "keys": scaled(400),
    "distribution": "zipfian",
}

#: Sweep axes (paper values in comments).
AXES = {
    "sessions": [scaled(4), scaled(8), scaled(16), scaled(24)],  # 5..30
    "txns_per_session": [scaled(20), scaled(40), scaled(80)],    # 50..250
    "ops_per_txn": [scaled(4), scaled(8), scaled(16)],           # 5..30
    "read_proportion": [0.1, 0.5, 0.9],                          # 0..100%
    "keys": [scaled(100), scaled(400), scaled(1200)],            # 2k..10k
    "distribution": ["uniform", "zipfian", "hotspot"],
}

#: Per-axis iteration order for the series sweeps, cheapest configuration
#: first.  Checking cost *decreases* with read proportion and key count
#: (less write-write contention) and with ops/txn (more reads pin more
#: version orders), so those axes are swept in reverse; the budget-skip
#: logic in the harness then drops only genuinely hopeless larger points.
SWEEP_ORDER = {
    "sessions": AXES["sessions"],
    "txns_per_session": AXES["txns_per_session"],
    "ops_per_txn": list(reversed(AXES["ops_per_txn"])),
    "read_proportion": list(reversed(AXES["read_proportion"])),
    "keys": list(reversed(AXES["keys"])),
    "distribution": AXES["distribution"],
}

#: Fig. 7 plots peak memory over three of Fig. 6's axes.
FIG7_AXES = ("sessions", "read_proportion", "distribution")

#: Per-point wall-clock budget, scaled down from the paper's 180 s.
BUDGET_SECONDS = 60.0


@functools.lru_cache(maxsize=None)
def history_for(isolation: str = "snapshot", seed: int = 1, **overrides):
    """Cached valid history for a Figure 6/7 configuration."""
    params = WorkloadParams(**{**BASE, **overrides})
    return generate_history(params, seed=seed, isolation=isolation).history


def _dbcop_check(history):
    # 40k states is this harness's analog of the paper's 180 s timeout:
    # dbcop either finishes quickly or state-explodes far past it.
    try:
        return DbcopChecker(max_states=40_000).check_si(history).satisfies
    except DbcopBudgetExceeded:
        raise TimeoutError("dbcop state budget exceeded")


def polysi(history) -> bool:
    return PolySIChecker().check(history).satisfies_si


#: The checker line-up of Figures 6 and 7.
CHECKERS = {
    "PolySI": polysi,
    "dbcop": _dbcop_check,
    "CobraSI w/ GPU": lambda h: CobraSIChecker(gpu=True).check(h).satisfies_si,
    "CobraSI w/o GPU": lambda h: CobraSIChecker(gpu=False).check(h).satisfies_si,
}


def fig6():
    """Figs. 6 and 7: checking time and peak memory vs the workload axes,
    PolySI vs the baselines, over valid SI histories.

    One sweep feeds both figures: every point is measured under
    tracemalloc, so Fig. 7's memory numbers (for shape comparison, not
    absolute footprints) are those of Fig. 6's runs.  The paper's
    qualitative results: dbcop grows exponentially with concurrency and
    times out early; CobraSI costs a constant factor more than PolySI;
    PolySI stays fairly stable w.r.t. read proportion and #keys; PolySI
    consumes less memory than the competitors in general.
    """
    config = {"budget_seconds": BUDGET_SECONDS, "checkers": sorted(CHECKERS)}
    time_report = BenchReport("fig6", config={"axes": sorted(AXES), **config})
    memory_report = BenchReport("fig7", config={
        "axes": list(FIG7_AXES), **config, "value": "peak_mb",
        "sweep": "fig6",
    })
    all_sweeps = []
    for letter, (axis, values) in zip("abcdef", AXES.items()):
        sweeps = []
        for checker_name, checker in CHECKERS.items():
            sweep = Sweep(checker_name, budget_seconds=BUDGET_SECONDS)
            for value in SWEEP_ORDER[axis]:
                sweep.run(value, checker, history_for(**{axis: value}))
            sweeps.append(sweep)
        all_sweeps += sweeps
        print(f"\nFigure 6 ({letter}): time (s) vs {axis}", flush=True)
        print(render_series(axis, values, sweeps), flush=True)
        time_report.add_sweeps(sweeps, axis=axis, xs=SWEEP_ORDER[axis])
        record_sweep_verdicts(time_report, sweeps)
        if axis in FIG7_AXES:
            print(f"\nFigure 7: peak memory (MB) vs {axis}", flush=True)
            print(render_series(axis, values, sweeps, value="peak_mb"),
                  flush=True)
            memory_report.add_sweeps(sweeps, axis=axis, xs=SWEEP_ORDER[axis])
            record_sweep_verdicts(memory_report, sweeps)
    print(f"results: {time_report.write()}")
    print(f"results: {memory_report.write()}")
    assert_satisfied(all_sweeps, timeouts=True)


@functools.lru_cache(maxsize=None)
def list_history_for(seed: int = 1, **overrides):
    params = WorkloadParams(**{**BASE, **overrides})
    return generate_list_history(params, seed=seed)


def check_list(history) -> bool:
    return ListAppendChecker().check(history).satisfies_si


def fig15():
    """Fig. 15 (Appendix F): PolySI-List checking time over Fig. 6's six
    axes, on Elle-style list-append workloads.

    The paper's qualitative result: checking stays around a second
    across all configurations — observed list prefixes pin the version
    order, so almost nothing is left for the solver.  The point of
    PolySI-List, asserted here: on the same write-heavy (30% reads)
    workload shape, inference is not slower than the register checker's
    constraint solving.
    """
    report = BenchReport("fig15", config={"axes": sorted(AXES)})
    sweeps = []
    for letter, (axis, values) in zip("abcdef", AXES.items()):
        sweep = Sweep("PolySI-List")
        for value in values:
            sweep.run(value, check_list, list_history_for(**{axis: value}))
        sweeps.append(sweep)
        print(f"\nFigure 15 ({letter}): PolySI-List time (s) vs {axis}")
        print(render_series(axis, values, [sweep]))
        report.add_sweep(sweep, axis=axis, xs=values)
        record_sweep_verdicts(report, [sweep])
    params = WorkloadParams(**{**BASE, "read_proportion": 0.3})
    list_time = measure(check_list, generate_list_history(params, seed=4))
    register_time = measure(PolySIChecker().check,
                            generate_history(params, seed=4).history)
    ratio = list_time.seconds / register_time.seconds
    report.note("list_over_register", round(ratio, 3))
    print(f"results: {report.write()}")
    assert_satisfied(sweeps)
    assert ratio <= 1.5, f"list checker {ratio:.2f}x the register checker"


# -- Figures 8-10 and Table 3: the six Section 5.1.1 benchmarks --------------

BENCHMARKS = {
    "RUBiS": rubis_workload,
    "TPC-C": tpcc_workload,
    "C-Twitter": ctwitter_workload,
}

#: General{RH,RW,WH}'s read proportions.
GENERAL_READS = {"GeneralRH": 0.95, "GeneralRW": 0.50, "GeneralWH": 0.30}

WORKLOAD_NAMES = [*BENCHMARKS, *GENERAL_READS]

#: Fig. 10's sizes: its unpruned variants are drastically slower.
FIG10_SIZES = {"sessions": 6, "total_txns": 120, "txns_per_session": 20,
               "keys": 250}


@functools.lru_cache(maxsize=None)
def workload_history(name: str, isolation: str = "snapshot", seed: int = 1,
                     *, sessions: int = 8, total_txns: int = 400,
                     txns_per_session: int = 50, keys: int = 600):
    """One of the six Section 5.1.1 benchmark histories, executed on the
    requested isolation level.  Sizes are scaled; ``total_txns`` sizes
    the three applications, ``txns_per_session`` and ``keys`` the
    General workloads (25 sessions x 400 txns x 8 ops in the paper)."""
    if name in GENERAL_READS:
        params = WorkloadParams(
            sessions=scaled(sessions),
            txns_per_session=scaled(txns_per_session),
            ops_per_txn=scaled(8),
            read_proportion=GENERAL_READS[name],
            keys=scaled(keys),
            distribution="zipfian",
        )
        return generate_history(params, seed=seed, isolation=isolation).history
    spec = BENCHMARKS[name](sessions=scaled(sessions),
                            total_txns=scaled(total_txns), seed=seed)
    db = MVCCDatabase(isolation=isolation, seed=seed)
    return run_workload(db, spec, seed=seed).history


#: Figure 8's line-up: Cobra checks *serializability*.
SER_CHECKERS = {
    "PolySI": polysi,
    "Cobra w/ GPU": lambda h: CobraChecker(gpu=True).check(h).serializable,
}


def fig8():
    """Fig. 8: PolySI vs. Cobra (GPU), time and memory, on the six
    benchmarks run on the serializable store (the paper uses
    PostgreSQL's serializable level here).

    The paper's qualitative results: PolySI outperforms Cobra on five of
    six benchmarks (up to 3x on GeneralRH); TPC-C is the exception
    because its read-modify-write transactions play to Cobra's RMW
    inference; memory overheads are comparable.
    """
    sweeps = []
    for checker_name, checker in SER_CHECKERS.items():
        sweep = Sweep(checker_name)
        for workload in WORKLOAD_NAMES:
            sweep.run(workload, checker,
                      workload_history(workload, isolation="serializable"))
        sweeps.append(sweep)
    print("\nFigure 8(a): checking time (s) per benchmark")
    print(render_series("workload", WORKLOAD_NAMES, sweeps))
    print("\nFigure 8(b): peak memory (MB) per benchmark")
    print(render_series("workload", WORKLOAD_NAMES, sweeps, value="peak_mb"))
    report = BenchReport("fig8", config={
        "workloads": WORKLOAD_NAMES, "checkers": sorted(SER_CHECKERS),
        "isolation": "serializable",
    })
    report.add_sweeps(sweeps, axis="workload", xs=WORKLOAD_NAMES)
    record_sweep_verdicts(report, sweeps)
    print(f"results: {report.write()}")
    assert_satisfied(sweeps)


STAGES = ("construct", "prune", "encode", "solve")


@functools.lru_cache(maxsize=None)
def workload_check(name: str):
    """One untraced façade check of a benchmark history: Fig. 9 reads its
    stage timings, Table 3 its pruning counts."""
    report = check(workload_history(name), trace=False)
    assert report.ok, f"{name}: not SI"
    assert report.stats["pruning"]["ok"], f"{name}: pruning found a cycle"
    return report


def fig9():
    """Fig. 9: PolySI's checking time split into construct / prune /
    encode / solve per benchmark.

    The paper's qualitative results: construction is cheap; pruning cost
    is fairly constant across workloads; encoding is moderate (higher for
    TPC-C, which has several times more operations); solving depends on
    what survives pruning (negligible for TPC-C/RUBiS/C-Twitter/GeneralRH).
    """
    report = BenchReport("fig9", config={
        "workloads": WORKLOAD_NAMES, "stages": list(STAGES),
    })
    rows = []
    for workload in WORKLOAD_NAMES:
        timings = workload_check(workload).timings
        seconds = [timings.get(stage, 0.0) for stage in STAGES]
        rows.append([workload] + [f"{s:.3f}" for s in seconds]
                    + [f"{sum(seconds):.3f}"])
        for stage, s in zip(STAGES, seconds):
            report.add_point(stage, workload, seconds=s, axis="workload")
        report.count_verdict("si")
    print("\nFigure 9: PolySI stage decomposition (seconds)")
    print(render_table(["workload", *STAGES, "total"], rows))
    print(f"results: {report.write()}")


PRUNING_COUNTS = ("constraints_before", "constraints_after",
                  "unknown_deps_before", "unknown_deps_after")


def table3():
    """Table 3: constraints and unknown dependencies before/after pruning.

    The paper's qualitative results: pruning eliminates the overwhelming
    majority of constraints everywhere; TPC-C — all read-only and
    read-modify-write transactions — prunes to *zero* remaining
    constraints; write-heavy general workloads retain the most.
    """
    report = BenchReport("table3", config={"workloads": WORKLOAD_NAMES})
    rows, left = [], {}
    for workload in WORKLOAD_NAMES:
        result = workload_check(workload)
        stats = result.stats["pruning"]
        report.add_point("prune", workload, seconds=result.timings["prune"],
                         axis="workload")
        report.count_verdict("prune_ok")
        for key in PRUNING_COUNTS:
            report.note(f"{key}_{workload}", stats[key])
        rows.append([workload, *(stats[key] for key in PRUNING_COUNTS)])
        left[workload] = stats["constraints_after"], stats["unknown_deps_after"]
    print("\nTable 3: constraints / unknown dependencies before and after pruning")
    print(render_table(
        ["benchmark", "#cons before", "#cons after",
         "#unk dep before", "#unk dep after"],
        rows,
    ))
    print(f"results: {report.write()}")
    # TPC-C's RMW pattern lets pruning identify every key's version chain.
    assert left["TPC-C"] == (0, 0), f"TPC-C left {left['TPC-C']}"
    rh, rw, wh = (left[w][0] for w in GENERAL_READS)
    assert rh <= rw <= wh, f"constraints left: {left}"


VARIANTS = {
    "PolySI": PolySIChecker(),
    "PolySI w/o P": PolySIChecker(prune=False),
    "PolySI w/o C+P": PolySIChecker(prune=False, compact=False),
}


def fig10():
    """Fig. 10: differential analysis of PolySI's two optimizations —
    full PolySI, without pruning (w/o P) and without compaction or
    pruning (w/o C+P) — on the six benchmarks at ``FIG10_SIZES``.

    The paper's qualitative results (log-scale figure): each optimization
    contributes orders of magnitude; the unoptimized variants exhaust
    memory on TPC-C, whose unpruned polygraph carries 386k constraints /
    3.6M unknown dependencies.  ``derived.polygraphs`` records both
    polygraph sizes: a compact constraint with ``u`` unknown dependencies
    is ``u - 1`` explicit ones (its writer pair with 2, one per reader
    with 3), so ``C`` compact constraints with ``U`` dependencies in all
    are ``U - C`` explicit ones with ``3U - 4C``.  Every variant must
    answer SI, within the budget.
    """
    sweeps = []
    for variant_name, checker in VARIANTS.items():
        sweep = Sweep(variant_name, budget_seconds=BUDGET_SECONDS)
        for workload in WORKLOAD_NAMES:
            sweep.run(workload, lambda h, c=checker: c.check(h).satisfies_si,
                      workload_history(workload, **FIG10_SIZES))
        sweeps.append(sweep)
    polygraphs = {}
    for workload in WORKLOAD_NAMES:
        history = workload_history(workload, **FIG10_SIZES)
        polygraphs[workload] = {
            form: {"constraints": graph.num_constraints,
                   "unknown_deps": graph.num_unknown_deps}
            for form, graph in (
                ("compact", build_polygraph(history)[0]),
                ("explicit", build_polygraph(history, compact=False)[0]))
        }
    print("\nFigure 10: differential analysis, time (s), log-scale in the paper")
    print(render_series("workload", WORKLOAD_NAMES, sweeps, fmt="{:.3f}"))
    report = BenchReport("fig10", config={
        "workloads": WORKLOAD_NAMES, "variants": sorted(VARIANTS),
        "budget_seconds": BUDGET_SECONDS,
    })
    report.add_sweeps(sweeps, axis="workload", xs=WORKLOAD_NAMES)
    record_sweep_verdicts(report, sweeps)
    report.note("polygraphs", polygraphs)
    print(f"results: {report.write()}")
    assert_satisfied(sweeps)
    for workload, sizes in polygraphs.items():
        c, u = sizes["compact"]["constraints"], sizes["compact"]["unknown_deps"]
        assert sizes["explicit"] == {"constraints": u - c,
                                     "unknown_deps": 3 * u - 4 * c}, (
            f"{workload}: {sizes}")


# -- Figure 11: large workloads ----------------------------------------------

KEYS = 100_000
SESSIONS = scaled(8)
TXNS_PER_SESSION = scaled(80)
SHORT_OPS = scaled(6)
LONG_OPS_DEFAULT = scaled(40)
LONG_TXN_FRACTION = 0.1

READ_PROPORTIONS = [0.2, 0.5, 0.8]
LONG_SIZES = [scaled(20), scaled(40), scaled(80)]


def mixed_workload(read_proportion: float, long_ops: int, seed: int = 1):
    """Short + long transactions over a large zipfian key space."""
    rng = random.Random(seed)
    dist = ZipfianKeys(KEYS)
    counter = 0
    spec = []
    for _s in range(SESSIONS):
        session = []
        for _t in range(TXNS_PER_SESSION):
            ops_count = (
                long_ops if rng.random() < LONG_TXN_FRACTION else SHORT_OPS
            )
            ops = []
            for _o in range(ops_count):
                key = f"k{dist.sample(rng)}"
                if rng.random() < read_proportion:
                    ops.append(("r", key))
                else:
                    counter += 1
                    ops.append(("w", key, counter))
            session.append(ops)
        spec.append(session)
    return spec


@functools.lru_cache(maxsize=None)
def long_history(read_proportion: float, long_ops: int):
    spec = mixed_workload(read_proportion, long_ops)
    return run_workload(MVCCDatabase(seed=3), spec, seed=3).history


def fig11():
    """Fig. 11: PolySI on large workloads, varying (a/b) read proportion
    and (c/d) long-transaction size.

    The paper runs one million transactions over one billion keys and
    observes time growing linearly in transaction size with fairly
    stable memory.  Pure Python is two orders of magnitude slower per
    operation, so the sweep keeps its structure at thousands of
    transactions over 10^5 keys (the zipfian sampler itself handles 10^9
    keys in O(1), exercised in the tests).  Each workload mixes short
    and long transactions, as in the paper (defaults 15 and 150 ops;
    here scaled).  Asserted: time grows at most 6x faster than the
    long-transaction size (no blow-up).
    """
    report = BenchReport("fig11", config={
        "keys": KEYS, "txns": SESSIONS * TXNS_PER_SESSION,
        "long_txn_fraction": LONG_TXN_FRACTION,
    })
    by_reads = Sweep("PolySI")
    for rp in READ_PROPORTIONS:
        by_reads.run(rp, polysi, long_history(rp, LONG_OPS_DEFAULT))
    print("\nFigure 11(a/b): time and memory vs read proportion "
          f"({SESSIONS * TXNS_PER_SESSION} txns, {KEYS} keys)")
    print(render_series("read%", READ_PROPORTIONS, [by_reads]))
    print(render_series("read%", READ_PROPORTIONS, [by_reads], value="peak_mb"))
    report.add_sweep(by_reads, axis="read_proportion", xs=READ_PROPORTIONS)
    record_sweep_verdicts(report, [by_reads])

    by_size = Sweep("PolySI")
    for size in LONG_SIZES:
        by_size.run(size, polysi, long_history(0.5, size))
    print("\nFigure 11(c/d): time and memory vs long-transaction size")
    print(render_series("ops/long-txn", LONG_SIZES, [by_size]))
    print(render_series("ops/long-txn", LONG_SIZES, [by_size], value="peak_mb"))
    report.add_sweep(by_size, axis="ops_per_long_txn", xs=LONG_SIZES)
    record_sweep_verdicts(report, [by_size])
    small, large = (by_size.points[size] for size in (LONG_SIZES[0],
                                                       LONG_SIZES[-1]))
    growth = large.seconds / (small.seconds * LONG_SIZES[-1] / LONG_SIZES[0])
    report.note("long_txn_growth", round(growth, 3))
    print(f"results: {report.write()}")
    assert_satisfied([by_reads, by_size])
    assert growth < 6, f"time grew {growth:.2f}x faster than txn size"


# -- Table 2: violations in the simulated production databases ---------------

PARAMS = WorkloadParams(
    sessions=6, txns_per_session=10, ops_per_txn=5, keys=8,
    distribution="uniform",
)
MAX_SEEDS = 40


def violations(profile_name: str):
    """Seeded workloads against the profile: yields ``(runs, CheckResult)``
    for each run, of the first ``MAX_SEEDS``, that PolySI rejects."""
    faults = DATABASE_PROFILES[profile_name]["faults"]
    for seed in range(MAX_SEEDS):
        run = generate_history(PARAMS, seed=seed, faults=faults)
        result = PolySIChecker().check(run.history)
        if not result.satisfies_si:
            yield seed + 1, result


def table2():
    """Table 2 + Section 5.2.2: finding violations in "production
    databases", simulated by fault profiles of the MVCC store (DESIGN.md,
    substitution 2).

    Per profile, seeded workloads run until PolySI reports a violation,
    which the interpretation algorithm classifies.  Asserted: violations
    are found in every profiled system, and the MariaDB-Galera analog
    exhibits *lost update* (Figure 5).  The Dgraph / YugabyteDB analogs
    exhibit causality violations (Figures 12/13).
    """
    report = BenchReport("table2", config={
        "profiles": sorted(DATABASE_PROFILES), "max_seeds": MAX_SEEDS,
    })
    rows, missed = [], []
    for profile in sorted(DATABASE_PROFILES):
        info = DATABASE_PROFILES[profile]
        m = measure(lambda: next(violations(profile), (MAX_SEEDS, None)))
        seeds, result = m.result
        report.add_point("find_violation", profile, seconds=m.seconds,
                         peak_mb=m.peak_mb, axis="profile")
        if result is None:
            rows.append([profile, info["kind"], info["release"], "none", "-"])
            report.count_verdict("none_found")
            missed.append(profile)
            continue
        example = interpret_violation(result)
        report.count_verdict("violation")
        report.note(f"anomaly_{profile}", example.classification)
        report.note(f"runs_until_violation_{profile}", seeds)
        rows.append([
            profile,
            info["kind"],
            info["release"],
            example.classification,
            f"{seeds} run(s)",
        ])
    print("\nTable 2: simulated databases and the violations PolySI found")
    print(render_table(
        ["database (simulated)", "kind", "release", "violation found", "after"],
        rows,
    ))
    print(f"results: {report.write()}")
    assert not missed, f"no violation found for {missed}"
    assert any(interpret_violation(result).classification == "lost update"
               for _runs, result in violations("mariadb-galera-sim")), (
        "lost update never classified on mariadb-galera-sim")


FIGURES = {
    "fig6": fig6,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig15": fig15,
    "table2": table2,
    "table3": table3,
}


def main(argv=None):
    run_named(FIGURES, argv, "figure")


if __name__ == "__main__":
    main()
