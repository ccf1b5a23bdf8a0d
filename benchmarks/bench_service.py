"""Checking-as-a-service under concurrent collectors.

One in-process daemon (`repro.service.ReproService`) ingests from **N
collector processes at once** — each collector process runs a live
SQLite collection and streams its events to its own tenant over the
``repro-events/1`` HTTP wire, through a deliberately *small* per-tenant
queue so backpressure (HTTP 429 reject/resend) actually engages.  One
tenant is anomaly-injected; the rest are clean.

The report pins the service-layer acceptance criteria:

- **zero event loss under backpressure** — every event each collector
  sent was eventually accepted (rejected events are counted and resent
  by the producer, never dropped), asserted against both the client's
  and the daemon's accounting;
- **verdict correctness** — after drain, every tenant's verdict matches
  the expectation for its adapter (clean -> satisfied, injected ->
  violated);
- **ingest throughput** (events/s across all collectors), **verdict
  latency** (per ``GET /verdict/<tenant>`` round trip, sampled during
  ingestion), and **eviction counts** under the global live-transaction
  budget;
- **one checker thread** — the threads the daemon runs
  (``derived.daemon_threads``) are the same with one tenant as with
  ``COLLECTORS + 1``, and ``derived.ctx_switches_per_event`` records
  what handing events between them costs (``getrusage`` delta of this
  process — the daemon's threads plus this script's sampling loop —
  over the events served).

Run:  PYTHONPATH=../src python bench_service.py
"""

import multiprocessing
import os
import resource
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(__file__))

from _common import scaled
from repro.bench.harness import render_table
from repro.bench.results import BenchReport
from repro.collect import Collector, FaultyAdapter, SQLiteAdapter
from repro.core.history import W
from repro.service import ReproService, ServiceClient, ServiceConfig
from repro.workloads.generator import WorkloadParams, generate_workload

#: Concurrent collector processes (the acceptance floor is 4).
COLLECTORS = 4

#: Small on purpose: the bench must exercise the 429 reject/resend path,
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

PARAMS = WorkloadParams(
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
    spec = generate_workload(PARAMS, seed=seed)
    try:
        run = Collector(adapter).run(spec)
    finally:
        adapter.close()
    client = ServiceClient("127.0.0.1", http_port)
    start = time.perf_counter()
    stats = client.push_events(name, run.iter_events(),
                               sessions=PARAMS.sessions, batch=32)
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


def main():
    report = BenchReport("service", config={
        "collectors": COLLECTORS,
        "queue_depth": QUEUE_DEPTH,
        "max_live_total": MAX_LIVE_TOTAL,
        "sessions": PARAMS.sessions,
        "txns_per_session": PARAMS.txns_per_session,
        "faulty_tenant": FAULTY_TENANT,
        "adapter": "sqlite",
        "wire": "repro-events/1 over HTTP (429 backpressure)",
    })
    service = ReproService(ServiceConfig(
        http_port=0, tcp_port=None,
        queue_depth=QUEUE_DEPTH,
        max_live_total=MAX_LIVE_TOTAL,
        min_live_share=MIN_LIVE_SHARE,
    ))
    threads_before = threading.active_count()
    handle = service.start_in_thread()
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
        "backpressure never engaged; shrink QUEUE_DEPTH so the bench "
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


if __name__ == "__main__":
    main()
