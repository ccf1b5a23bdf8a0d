"""Extension bench: segmented checking for long histories (Section 6).

The paper sketches snapshot-based history segmentation as future work;
``repro.extensions.segmented`` implements it.  This bench quantifies the
claim that motivated the sketch: with periodic snapshots, checking cost
scales with *segment* length instead of total history length.

Sweeps total history length with a fixed segment size and compares
whole-history checking against segmented checking; the gap should widen
with history length.

A pooled series then takes a history three times the sweep's longest,
with a barrier every POOL_SNAPSHOT_EVERY commits (a few heavy
segments), and checks it in-process (``workers=1``) and on the segment
pool (``workers=2``, oversubscribed so the pool runs on one-CPU hosts
too), recording ``derived.pool_speedup``.  Light segments cost less to
check than to ship to a worker, so small scales read below 1x.
"""

import functools

import pytest

from _common import note_stage_seconds, record_sweep_verdicts, scaled
from repro.bench.harness import Sweep, measure, render_series, render_table
from repro.bench.results import BenchReport
from repro import check
from repro.core.checker import PolySIChecker
from repro.extensions import run_segmented_workload
from repro.storage.database import MVCCDatabase
from repro.workloads.generator import WorkloadParams, generate_workload

TXNS_PER_SESSION = [scaled(30), scaled(60), scaled(120)]
SESSIONS = scaled(6)
SNAPSHOT_EVERY = scaled(40)
POOL_SNAPSHOT_EVERY = scaled(540)
POOL_WORKERS = [1, 2]
#: Best-of-N wall clock for the pooled series.
POOL_ROUNDS = 3


def check_segments(run, **options):
    """The native segmented verdict, through the facade untraced."""
    return check(run, mode="segmented", trace=False, **options).native


@functools.lru_cache(maxsize=None)
def segmented_run(txns_per_session: int, seed: int = 1,
                  snapshot_every: int = SNAPSHOT_EVERY):
    params = WorkloadParams(
        sessions=SESSIONS,
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


def pooled_run():
    return segmented_run(3 * TXNS_PER_SESSION[-1],
                         snapshot_every=POOL_SNAPSHOT_EVERY)


def pooled_seconds(run, workers: int) -> float:
    """Best-of-POOL_ROUNDS wall clock; no tracemalloc, which would only
    slow the in-process side."""
    best = float("inf")
    for _ in range(POOL_ROUNDS):
        m = measure(check_segments, run, workers=workers,
                    oversubscribe=True, trace_memory=False)
        assert m.result.satisfies_si
        best = min(best, m.seconds)
    return best


@pytest.mark.parametrize("txns", TXNS_PER_SESSION)
def test_segmented_checking(benchmark, txns):
    run = segmented_run(txns)
    result = benchmark.pedantic(
        check_segments, args=(run,), rounds=1, iterations=1
    )
    assert result.satisfies_si
    benchmark.extra_info["segments"] = len(run.segments)


@pytest.mark.parametrize("txns", TXNS_PER_SESSION)
def test_whole_history_checking(benchmark, txns):
    run = segmented_run(txns)
    history = run.full_history()
    checker = PolySIChecker()
    result = benchmark.pedantic(
        checker.check, args=(history,), rounds=1, iterations=1
    )
    assert result.satisfies_si


@pytest.mark.parametrize("workers", POOL_WORKERS)
def test_pooled_segmented_checking(benchmark, workers):
    seconds = benchmark.pedantic(pooled_seconds, args=(pooled_run(), workers),
                                 rounds=1, iterations=1)
    benchmark.extra_info["seconds"] = round(seconds, 3)


def test_segmented_wins_on_long_histories():
    from repro.bench.harness import measure

    run = segmented_run(TXNS_PER_SESSION[-1])
    seg = measure(check_segments, run)
    whole = measure(PolySIChecker().check, run.full_history())
    assert seg.result.satisfies_si and whole.result.satisfies_si
    assert seg.seconds < whole.seconds


def main():
    seg_sweep = Sweep("segmented")
    whole_sweep = Sweep("whole-history")
    for txns in TXNS_PER_SESSION:
        run = segmented_run(txns)
        seg_sweep.run(txns, check_segments, run)
        whole_sweep.run(txns, PolySIChecker().check, run.full_history())
    print(f"\nSection 6 extension: segmented vs whole-history checking "
          f"(snapshot every {SNAPSHOT_EVERY} commits)")
    print(render_series(
        "txns/session", TXNS_PER_SESSION, [whole_sweep, seg_sweep]
    ))
    report = BenchReport("segmented", config={
        "snapshot_every": SNAPSHOT_EVERY, "sessions": SESSIONS,
        "txns_per_session": TXNS_PER_SESSION,
    })
    report.add_sweeps([whole_sweep, seg_sweep], axis="txns_per_session",
                      xs=TXNS_PER_SESSION)
    record_sweep_verdicts(report, [whole_sweep, seg_sweep])

    run = pooled_run()
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
    note_stage_seconds(report, segmented_run(TXNS_PER_SESSION[0]),
                       mode="segmented")
    print(f"results: {report.write()}")


if __name__ == "__main__":
    main()
