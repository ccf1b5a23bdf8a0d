"""Stream workloads: a real ``repro serve`` daemon fed over TCP.

Load comes from this process through ``ServiceClient`` over the TCP
credit door — a closed loop: a producer sends its next event only while
it holds credit, so a slow daemon receives less load.  ``stream_long``
uses one connection, ``stream_fanin`` two.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from contextlib import ExitStack, nullcontext
from typing import List, Optional, Tuple

from repro.service import ServiceConfig

from batch import SETUP_REPEATS
from inputs import (
    STREAM_FANIN,
    StreamInput,
    build_stream,
    commit_order_events,
    digest_of,
    sub_seed,
    traced_units_for,
    units_for,
)
from procs import Child, Daemon
from spans import SpanLog

CONNECTIONS = {"stream_long": 1, "stream_fanin": 2}
#: ``stream_long`` waits until the daemon has checked a tenant's last
#: event before it starts the next tenant, so one OnlineChecker runs at a
#: time.  (Twelve checker threads at once ran three times slower on two
#: cores — interpreter-lock contention, which is what ``stream_fanin``
#: measures, not the checker.)
AWAIT_EACH = {"stream_long": True, "stream_fanin": False}
POLL_SECONDS = 0.05


def _start_daemon(seed: int, state_dir: str) -> Daemon:
    """A daemon on a fresh state directory, with one throw-away
    unwindowed tenant pushed so both doors, a worker thread and the
    journal have run once before timing starts."""
    daemon = Daemon(state_dir)
    try:
        warm = commit_order_events(STREAM_FANIN, sub_seed(seed, "warm", 0), 50)
        daemon.pusher.push_events_tcp("warm-up", warm)
        daemon.query.verdict("warm-up")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def _push_and_drain(daemon: Daemon, data: StreamInput, workload: str,
                    log: Optional[SpanLog] = None) -> dict:
    """Push every tenant to completion, tenants dealt round-robin over
    the workload's producer threads, then ``POST /drain``.

    With a span log this is the traced run: one span per push and one
    for the drain, and ``GET /stats`` is sampled after every push."""
    def span(name: str, rep: int = 0):
        return nullcontext() if log is None else log.span(name, rep)

    connections = CONNECTIONS[workload]
    credit_waits = [0] * connections
    depth_max = [0] * connections
    errors: List[BaseException] = []

    def produce(lane: int) -> None:
        try:
            for rep in range(lane, len(data.tenants), connections):
                tenant = data.tenants[rep]
                with span("wire.push", rep):
                    stats = daemon.pusher.push_events_tcp(
                        tenant.name, tenant.events, sessions=tenant.sessions)
                credit_waits[lane] += stats.credit_waits
                while AWAIT_EACH[workload] and daemon.query.verdict(
                        tenant.name)["events"] < len(tenant.events):
                    time.sleep(POLL_SECONDS)
                if log is not None:
                    depths = [t["queue_depth"]
                              for t in daemon.query.stats()["tenants"]]
                    depth_max[lane] = max(depth_max[lane], *depths)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=produce, args=(lane,))
               for lane in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    with span("service.drain"):
        verdicts = daemon.query.drain()
    return {"wall_s": time.perf_counter() - start, "verdicts": verdicts,
            "credit_waits": sum(credit_waits),
            "queue_depth_max": max(depth_max)}


def _judge(seed: int, data: StreamInput, verdicts: dict) -> Tuple[list, int]:
    """Tenants whose verdict differs from the construction's, and events
    sent but not checked by the daemon."""
    wrong, checked = [], 0
    for index, tenant in enumerate(data.tenants):
        payload = verdicts.get(tenant.name, {})
        checked += payload.get("events", 0)
        got = payload.get("report", {}).get("verdict")
        if got != tenant.expected:
            wrong.append({"seed": seed, "index": index,
                          "unit": tenant.name,
                          "expected": tenant.expected, "got": got})
    return wrong, data.events - checked


def _closure_backend(verdicts: dict) -> Optional[str]:
    for payload in verdicts.values():
        stats = payload.get("report", {}).get("stats", {})
        if "closure_backend" in stats:
            return stats["closure_backend"]
    return None


def measure(workload: str, seed: int, seconds: float, work_dir: str,
            pin: Optional[str] = None) -> dict:
    units = units_for(workload, seconds)
    setups = []
    with ExitStack() as stack:
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            data = build_stream(workload, seed, units)
            daemon = _start_daemon(
                seed, os.path.join(work_dir, f"state{repeat}"))
            setups.append(time.perf_counter() - start)
            stack.callback(daemon.stop)
            if repeat + 1 < SETUP_REPEATS:
                daemon.stop()
        digest = digest_of(data, pin)
        run = _push_and_drain(daemon, data, workload)
        usage = daemon.stop()
    wrong, lost = _judge(seed, data, run["verdicts"])
    return {
        "metrics": {
            "verdict_s": run["wall_s"],
            "histories_per_s": units / run["wall_s"],
            "ingest_eps": data.events / run["wall_s"],
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        },
        "attempted": data.events,
        "wrong": wrong,
        "lost_events": lost,
        "detail": {
            "units": units, "events": data.events, "digest": digest,
            "connections": CONNECTIONS[workload], "loop": "closed",
            "samples": {"verdict_s": [run["wall_s"]], "setup_s": setups},
            "closure_backend": _closure_backend(run["verdicts"]),
        },
    }


def trace(workload: str, seed: int, seconds: float, work_dir: str,
          pin: Optional[str] = None) -> dict:
    """Untraced run, traced run and in-process layer replay, all on the
    leading third of the run's tenants."""
    units = units_for(workload, seconds)
    traced = traced_units_for(units)
    log = SpanLog(workload)
    with ExitStack() as stack:
        data = build_stream(workload, seed, units)
        digest = digest_of(data, pin)
        subset = StreamInput(data.tenants[:traced])
        daemon = _start_daemon(seed, os.path.join(work_dir, "state-untraced"))
        stack.callback(daemon.stop)
        untraced = _push_and_drain(daemon, subset, workload)
        daemon.stop()

        daemon = _start_daemon(seed, os.path.join(work_dir, "state-traced"))
        stack.callback(daemon.stop)
        run = _push_and_drain(daemon, subset, workload, log)
        usage = daemon.stop()

        config = ServiceConfig()
        tenants_path = os.path.join(work_dir, "tenants.json")
        with open(tenants_path, "w", encoding="utf-8") as handle:
            json.dump([{"name": t.name, "sessions": t.sessions,
                        "lines": t.lines()} for t in subset.tenants], handle)
        child = Child({
            "job": "stream-replay", "workload": workload,
            "input": tenants_path,
            "state_dir": os.path.join(work_dir, "state-replay"),
            "solve_every": config.solve_every,
            "checkpoint_every": config.checkpoint_every,
            "max_spans": config.max_spans,
            # What the daemon's router gives each of `traced` tenants.
            "window_share": max(config.min_live_share,
                                config.max_live_total // traced),
        }, work_dir)
        stack.callback(child.discard)
        log.extend(child.run()["spans"])
    wrong, lost = _judge(seed, subset, run["verdicts"])

    wall = run["wall_s"]
    cpu = usage.ru_utime + usage.ru_stime
    online = log.self_seconds("online.add")
    residual = wall - (log.seconds("codec.decode")
                       + log.seconds("journal.append")
                       + log.seconds("journal.checkpoint") + online)
    metrics = {
        "codec.encode_s": log.seconds("codec.encode"),
        "codec.decode_s": log.seconds("codec.decode"),
        "codec.bytes_per_event": (log.count("codec.decode", "bytes")
                                  / subset.events),
        "journal.append_s": log.seconds("journal.append"),
        "journal.checkpoint_s": log.seconds("journal.checkpoint"),
        "journal.bytes": log.count("journal.append", "bytes"),
        "online.add_s": online,
        "online.ingest_s": log.count("online.add", "ingest"),
        "online.prune_s": log.count("online.add", "prune"),
        "online.solve_s": log.count("online.add", "solve"),
        "online.gc_s": log.count("online.add", "gc"),
        "online.live_max": log.peak("online.add", "live_max"),
        "online.evicted": log.count("online.add", "evicted"),
        "wire.push_s": log.seconds("wire.push"),
        "wire.credit_waits": run["credit_waits"],
        "queue.depth_max": run["queue_depth_max"],
        "service.cpu_s": cpu,
        "service.cpu_share": cpu / wall,
        "service.drain_s": log.seconds("service.drain"),
        "service.residual_s": residual,
        "service.residual_share": residual / wall,
        "trace.overhead_pct": 100 * (wall / untraced["wall_s"] - 1),
        "trace.verdict_s": wall,
        "trace.units": traced,
        "gate.wrong_verdicts": len(wrong),
        "gate.lost_events": lost,
    }
    return {
        "metrics": metrics, "attempted": subset.events, "wrong": wrong,
        "lost_events": lost, "spans": log.rows,
        "detail": {"units": units, "traced_units": traced,
                   "events": subset.events, "digest": digest,
                   "connections": CONNECTIONS[workload], "loop": "closed",
                   "closure_backend": _closure_backend(run["verdicts"])},
    }
