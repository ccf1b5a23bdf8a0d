"""Figure 10: differential analysis of PolySI's two optimizations.

Three variants on the six benchmark workloads: full PolySI, PolySI
without pruning (w/o P), and PolySI without compaction or pruning
(w/o C+P).  The paper's qualitative results (log-scale figure): each
optimization contributes orders of magnitude; the unoptimized variants
exhaust memory on TPC-C, whose unpruned polygraph carries 386k
constraints / 3.6M unknown dependencies.

The unpruned variants are drastically slower, so this bench uses its own
reduced sizes (``FRACTION`` of the shared workload scale).

``main()`` is also a smoke gate on the ablation: every variant must
answer SI, within the budget, on every workload.
"""

import pytest

from _common import record_sweep_verdicts, scaled
from repro.bench.harness import Sweep, render_series
from repro.bench.results import BenchReport
from repro.core.checker import PolySIChecker
from repro.storage.client import run_workload
from repro.storage.database import MVCCDatabase
from repro.workloads.benchmarks import (
    ctwitter_workload,
    rubis_workload,
    tpcc_workload,
)
from repro.workloads.generator import WorkloadParams, generate_history

VARIANTS = {
    "PolySI": PolySIChecker(),
    "PolySI w/o P": PolySIChecker(prune=False),
    "PolySI w/o C+P": PolySIChecker(prune=False, compact=False),
}

WORKLOADS = ["RUBiS", "TPC-C", "C-Twitter", "GeneralRH", "GeneralRW", "GeneralWH"]

BUDGET_SECONDS = 60.0


def small_history(name: str, seed: int = 1):
    total = scaled(120)
    sessions = scaled(6)
    if name == "RUBiS":
        spec = rubis_workload(sessions=sessions, total_txns=total, seed=seed)
    elif name == "TPC-C":
        spec = tpcc_workload(sessions=sessions, total_txns=total, seed=seed)
    elif name == "C-Twitter":
        spec = ctwitter_workload(sessions=sessions, total_txns=total, seed=seed)
    else:
        reads = {"GeneralRH": 0.95, "GeneralRW": 0.5, "GeneralWH": 0.3}[name]
        params = WorkloadParams(
            sessions=sessions,
            txns_per_session=scaled(20),
            ops_per_txn=scaled(8),
            read_proportion=reads,
            keys=scaled(250),
            distribution="zipfian",
        )
        return generate_history(params, seed=seed).history
    db = MVCCDatabase(seed=seed)
    return run_workload(db, spec, seed=seed).history


_cache: dict = {}


def cached_history(name: str):
    if name not in _cache:
        _cache[name] = small_history(name)
    return _cache[name]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_fig10(benchmark, variant, workload):
    history = cached_history(workload)
    checker = VARIANTS[variant]
    result = benchmark.pedantic(
        checker.check, args=(history,), rounds=1, iterations=1
    )
    assert result.satisfies_si


def main():
    sweeps = []
    for variant_name, checker in VARIANTS.items():
        sweep = Sweep(variant_name, budget_seconds=BUDGET_SECONDS)
        for workload in WORKLOADS:
            history = cached_history(workload)
            sweep.run(
                workload,
                lambda h=history, c=checker: c.check(h).satisfies_si,
            )
        sweeps.append(sweep)
    print("\nFigure 10: differential analysis, time (s), log-scale in the paper")
    print(render_series("workload", WORKLOADS, sweeps, fmt="{:.3f}"))
    report = BenchReport("fig10", config={
        "workloads": WORKLOADS, "variants": sorted(VARIANTS),
        "budget_seconds": BUDGET_SECONDS,
    })
    report.add_sweeps(sweeps, axis="workload", xs=WORKLOADS)
    record_sweep_verdicts(report, sweeps)
    print(f"results: {report.write()}")
    for sweep in sweeps:
        for workload, m in sweep.points.items():
            assert not m.timed_out and m.result is True, (
                f"{sweep.name} on {workload}: "
                + ("no verdict in budget" if m.timed_out else "not SI"))


if __name__ == "__main__":
    main()
