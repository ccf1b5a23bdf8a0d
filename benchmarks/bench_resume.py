"""Resume-from-checkpoint vs re-check-from-scratch (DESIGN.md S14).

The segment store's pitch is that durability is cheap and recovery is
fast.  This benchmark prices both claims on valid SI streams of
increasing length:

- ``plain``    — the in-memory ``OnlineChecker`` alone (the baseline
  every durability cost is measured against);
- ``journal``  — ``PersistentCheck`` with checkpoints disabled: every
  event is encoded, appended, and flushed before it is checked;
- ``append-only`` — the journaling path in isolation (appending the
  whole stream to a store, no checker).  This *is* the durability tax
  ``journal`` adds over ``plain``, measured directly rather than as
  the difference of two large noisy numbers.  The bar: **< 5% of
  plain** at the largest scale, where the store's fixed setup cost has
  amortized away (checking dominates I/O);
- ``checkpoint`` — journaling plus a checkpoint every 64 events (the
  steady-state ``watch --state-dir`` configuration);
- ``recheck``  — reopening the finished state dir with ``resume=False``:
  a full replay of the journal, what recovery would cost without
  checkpoints;
- ``resume``   — reopening with ``resume=True``: restore the final
  checkpoint, replay nothing.  The bar: **>= 5x faster than recheck**
  at the largest scale (and growing with it — replay is O(journal),
  restore is O(state)).  ``recheck`` and ``resume`` are each the best
  of three reopens of the same directory.

Both bars are asserted, so CI fails if durability gets expensive or
resume stops paying for itself.

``derived.gc`` records, per series (``plain``, ``journal``,
``checkpoint``, ``resume``), the cyclic collector's passes per
generation during that series' run at the largest size (``resume``:
its last reopen) — no bar, a record of what the collector pause
leaves.
"""

import os
import shutil
import tempfile
import time

from _common import scaled
from repro.bench.harness import render_table
from repro.bench.results import BenchReport
from repro.obs import collector_passes
from repro.online import OnlineChecker
from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.store import PersistentCheck
from repro.workloads.generator import WorkloadParams, generate_workload

SESSIONS = 6
SIZES = [scaled(150), scaled(300), scaled(600)]
CHECKPOINT_EVERY = 64
RESUME_SPEEDUP_BAR = 5.0
JOURNAL_OVERHEAD_BAR = 0.05
#: Reopens per timed recovery path; the best one counts.
REOPENS = 3


def stream_txns(n_txns: int, seed: int = 17):
    """A valid SI transaction stream in commit order."""
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
    from repro.store import SegmentStore

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


def main():
    report = BenchReport("resume", config={
        "sessions": SESSIONS,
        "sizes": SIZES,
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
        warmup = stream_txns(min(SIZES))
        plain_seconds(warmup)
        persistent_seconds(warmup, os.path.join(workdir, "warmup"),
                           checkpoint_every=0)
        for size in SIZES:
            txns = stream_txns(size)
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
            resume = min(seconds for seconds, _ in resumes)
            passes["resume"] = resumes[-1][1]

            overhead = append_only / plain
            speedup = recheck / max(resume, 1e-9)
            overheads.append((n, overhead))
            speedups.append((n, speedup))
            for series, seconds in (("plain", plain), ("journal", journal),
                                    ("append-only", append_only),
                                    ("checkpoint", checkpoint),
                                    ("recheck", recheck),
                                    ("resume", resume)):
                report.add_point(series, n, seconds=seconds, axis="txns")
                report.count_verdict("si")
            rows.append([str(n), f"{plain:.3f}", f"{journal:.3f}",
                         f"{append_only:.4f}", f"{checkpoint:.3f}",
                         f"{recheck:.3f}", f"{resume:.3f}",
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


if __name__ == "__main__":
    main()
