"""Live-database collection: throughput and end-to-end wall clock.

Collection is the pipeline stage the other benchmarks skip — they start
from a history that already exists.  This one measures what it costs to
*produce* that history from a real database (the stdlib SQLite adapter,
WAL mode, one connection per session thread) and what the full
check-a-live-database loop costs end to end:

- ``collect``   — wall-clock seconds to run the workload against SQLite
  over N concurrent sessions and record the observed history;
- ``txn/s``     — collection throughput (completed transactions per
  second, aborts included);
- ``check``     — batch-checking the collected history;
- ``e2e``       — collect + check, the ``repro collect --check`` path.

Expected shape: collection cost is I/O-bound and grows with session
count (SQLite serializes writers, so more sessions mean more lock
waits and retries, not more parallel commits), while checking stays
CPU-bound — at these sizes the two are the same order of magnitude, so
neither stage dominates the live loop.
"""

import time

import pytest

from _common import scaled
from repro.bench.harness import render_table
from repro.bench.results import BenchReport
from repro.collect import Collector, SQLiteAdapter
from repro.core.checker import PolySIChecker
from repro.workloads.generator import WorkloadParams, generate_workload

# The class API, bound once.
_check_si = PolySIChecker().check

SESSION_COUNTS = [2, 4, 8]
TXNS_TOTAL = scaled(240)


def workload(sessions: int, seed: int = 7):
    """A fixed-size workload split across ``sessions`` sessions."""
    params = WorkloadParams(
        sessions=sessions,
        txns_per_session=max(2, TXNS_TOTAL // sessions),
        ops_per_txn=5,
        keys=max(12, TXNS_TOTAL // 10),
        read_proportion=0.5,
        distribution="zipfian",
    )
    return generate_workload(params, seed=seed)


def collect_once(sessions: int):
    """One collection run; returns (run, collect_seconds)."""
    adapter = SQLiteAdapter()
    try:
        start = time.perf_counter()
        run = Collector(adapter).run(workload(sessions))
        elapsed = time.perf_counter() - start
    finally:
        adapter.close()
    return run, elapsed


@pytest.mark.parametrize("sessions", SESSION_COUNTS)
def test_collect_throughput(benchmark, sessions):
    run_and_time = benchmark.pedantic(
        lambda: collect_once(sessions), rounds=1, iterations=1
    )
    run, elapsed = run_and_time
    benchmark.extra_info["txn_per_s"] = round(run.throughput, 1)
    benchmark.extra_info["aborted"] = run.aborted


def main():
    report = BenchReport("collect", config={
        "session_counts": SESSION_COUNTS, "txns_total": TXNS_TOTAL,
        "adapter": "sqlite",
    })
    rows = []
    for sessions in SESSION_COUNTS:
        run, collect_s = collect_once(sessions)
        start = time.perf_counter()
        result = _check_si(run.history)
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


if __name__ == "__main__":
    main()
