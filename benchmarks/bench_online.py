"""Online incremental checking vs repeated batch re-checking.

A monitor that wants a verdict after every transaction has two options:
re-run the batch checker on the growing prefix (cost grows with history
length, so amortized per-transaction cost grows without bound) or check
incrementally with :class:`repro.online.OnlineChecker` (cost per
transaction tracks the *residue* — unresolved constraints plus the new
edges — not the history).

This benchmark streams generated workloads of increasing length and
reports amortized per-transaction wall time for:

- ``online``      — incremental, solving after every transaction;
- ``online/8``    — incremental, solving every 8th transaction;
- ``online+win``  — incremental with a bounded window (eviction on);
- ``batch/1``, ``batch/64`` — windowed, a verdict after every batch:
  one ``add`` per transaction against one ``extend`` per 64-transaction
  slice (the service daemon's batch), which prunes, evicts and solves
  once per slice;
- ``rebatch/8``   — batch re-check of the prefix every 8th transaction
  (a *conservative* stand-in for per-transaction re-checking, which
  would be 8x slower again).

Expected shape: the rebatch column grows roughly linearly with stream
length (each re-check pays for the whole prefix), while the online
columns stay flat — the incremental checker is asymptotically below any
repeated-batch schedule.  That is asserted at the largest size: solving
after *every* transaction must cost less per transaction than
re-running the batch checker every 8th.  Every cell is the fastest
of ``REPEATS`` rounds, each round running every series once, the two
asserted ones back to back: scheduling noise on a shared machine only
ever adds time, and a slow spell that lands on only one side of that
comparison could otherwise decide it at smoke scale.

``derived`` also records what keeps the online column flat:
``solver_builds`` per mode (one instance per stream, plus one per window
compaction — the solver is kept, not rebuilt) and
``solve1_over_solve8``, the price of a verdict after every transaction
relative to every 8th (near 1 when a re-solve on the kept instance is a
handful of decisions); and two work counts that do not depend on the
machine: ``prune_asked`` (constraints the pruning fixpoint evaluated)
and ``gc_examined`` (vertices the window's eviction passes examined)
per mode — the online checker asks only what an event changed — and,
next to them, ``closure``: the induced-graph closure's
``inserts_new`` / ``inserts_known`` / ``queries`` per mode (an
arrival's in-pairs enter with one ``insert_into`` and cost no lookup);
and
``batch_speedup``, ``batch/1`` over ``batch/64``, asserted at 1.2x or
more at full scale (both runs must reach the same verdict, accepted
count and evictions).
"""

import functools
import time

import pytest

from _common import SCALE, note_stage_seconds, scaled
from repro.bench.harness import render_table
from repro.bench.results import BenchReport
from repro.core.checker import PolySIChecker
from repro.core.history import HistoryBuilder
from repro.online import OnlineChecker, WindowPolicy
from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.workloads.generator import WorkloadParams, generate_workload

# The class API, bound once.
_check_si = PolySIChecker().check

SESSIONS = 6
SIZES = [scaled(120), scaled(240), scaled(480)]
REBATCH_STRIDE = 8
#: Each timed cell is the fastest of this many rounds.
REPEATS = 5


def stream_txns(n_txns: int, seed: int = 11):
    """A valid SI transaction stream in commit order.

    Commit order matters: every prefix of a commit-ordered stream is a
    causally closed (hence checkable) history, which is what both a
    repeated-batch monitor and the online checker actually consume.
    """
    params = WorkloadParams(
        sessions=SESSIONS,
        txns_per_session=max(2, n_txns // SESSIONS),
        ops_per_txn=5,
        keys=max(10, n_txns // 5),
        read_proportion=0.5,
    )
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(isolation="snapshot", seed=seed)
    return list(stream_workload(db, spec, seed=seed))


def online_run(txns, *, solve_every: int = 1, windowed: bool = False,
               batch: int = 1):
    """Check ``txns`` online, ``batch`` transactions per call (``add``
    for one, ``extend`` for more); returns amortized seconds per
    transaction and the final result's stats."""
    window = WindowPolicy(max_live=64, gc_every=32) if windowed else None
    checker = OnlineChecker(
        solve_every=solve_every,
        window=window,
        sessions=range(SESSIONS) if windowed else None,
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


def online_amortized(txns, **kwargs) -> float:
    """Amortized seconds per transaction, checking online."""
    return online_run(txns, **kwargs)[0]


def rebatch_amortized(txns, *, stride: int = REBATCH_STRIDE) -> float:
    """Amortized seconds per transaction, re-checking the growing prefix
    with the batch pipeline every ``stride`` transactions."""
    start = time.perf_counter()
    for upto in range(stride, len(txns) + 1, stride):
        builder = HistoryBuilder()
        for session, ops, status in txns[:upto]:
            builder.txn(session, ops, status=status)
        result = _check_si(builder.build())
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
MODES = {mode: functools.partial(online_amortized, **kwargs)
         for mode, kwargs in ONLINE_MODES.items()}
MODES[REBATCH] = rebatch_amortized
#: The order of one timing round: the asserted pair back to back.
ROUND = ("online", REBATCH, *(m for m in ONLINE_MODES if m != "online"))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_online_amortized(benchmark, mode):
    txns = stream_txns(SIZES[0])
    per_txn = benchmark.pedantic(MODES[mode], args=(txns,),
                                 rounds=1, iterations=1)
    benchmark.extra_info["ms_per_txn"] = round(per_txn * 1000, 3)


def main():
    report = BenchReport("online", config={
        "sessions": SESSIONS, "sizes": SIZES, "modes": sorted(MODES),
        "seconds_meaning": "amortized per transaction",
        "repeats": REPEATS,
    })
    rows = []
    for size in SIZES:
        txns = stream_txns(size)
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
    for session, ops, status in stream_txns(SIZES[0]):
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


if __name__ == "__main__":
    main()
