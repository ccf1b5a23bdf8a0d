"""The checking side of the benchmark, run in a fresh interpreter.

``run.py`` starts this file as a subprocess with ``PYTHONHASHSEED=0``
and ``REPRO_CLOSURE_BACKEND`` unset, so set iteration order and the
closure kernel are the same on every run.  It receives only generated
input bytes (a manifest naming a file), never the seed or the expected
answers.

Protocol: import, warm up, print ``READY``; then wait for one line on
stdin (EOF means the parent only wanted to time set-up), do the job the
manifest names and print one JSON object as the last line.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import repro
from repro.core.axioms import check_axioms
from repro.core.encoding import encode_polygraph
from repro.core.history import HistoryBuilder, R, W
from repro.core.polygraph import build_polygraph
from repro.core.pruning import PruneState, prune_constraints
from repro.histories.codec import (
    event_from_json,
    event_to_json,
    history_from_json,
)
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.online import OnlineChecker, WindowPolicy
from repro.store import SegmentStore

from spans import SpanLog


def verdict_of(line: str):
    """What a user does with one history file: decode, check with the
    façade's defaults, serialise the report, explain a violation."""
    report = repro.check(history_from_json(line))
    report.to_json()
    label = None if report.ok else report.interpret().classification
    return report, label


def warm_up(manifest: dict) -> None:
    """Finish lazy imports and let caches and the allocator fill on both
    verdict paths: a five-transaction long fork, then (batch jobs) the
    first history of the input itself."""
    forked = HistoryBuilder()
    forked.txn(0, [W("x", 1), W("y", 1)])
    forked.txn(1, [W("x", 2)])
    forked.txn(2, [W("y", 2)])
    forked.txn(3, [R("x", 2), R("y", 1)])
    forked.txn(4, [R("x", 1), R("y", 2)])
    report = repro.check(forked.build())
    report.to_json()
    report.interpret()
    if manifest["job"] != "stream-replay":
        one_pass(manifest["input"], 1)


#: Iterations of the speed probe: about 40 ms of pure-Python arithmetic.
PROBE_LOOPS = 800_000


def speed_probe() -> float:
    """Seconds a fixed loop of interpreter work takes right now, on the
    core and in the thread that does the checking.  It shares no code
    with the checker, so no change to the checker can move it."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def one_pass(path: str, limit: int, probe_every: int = 0):
    """File to verdicts, timed from opening the file.  With
    ``probe_every``, a speed probe runs before every that many histories
    and after the last; probe time is not part of the pass."""
    start = time.perf_counter()
    verdicts = []
    probes = []
    backend = None
    with open(path, encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            if index == limit:
                break
            if probe_every and index % probe_every == 0:
                probes.append(speed_probe())
            report, label = verdict_of(line)
            verdicts.append([report.verdict, label])
            backend = report.stats.get("closure_backend", backend)
    if probe_every:
        probes.append(speed_probe())
    elapsed = time.perf_counter() - start - sum(probes)
    return elapsed, verdicts, backend, probes


def job_batch(manifest: dict) -> dict:
    """Passes over the whole input until another would overrun
    ``seconds``; at least one."""
    path, seconds = manifest["input"], manifest["seconds"]
    passes, probes, first, stable, backend = [], [], None, True, None
    began = time.perf_counter()
    while True:
        elapsed, verdicts, backend, probed = one_pass(
            path, manifest["units"], manifest["probe_every"])
        passes.append(elapsed)
        probes.append(statistics.mean(probed))
        if first is None:
            first = verdicts
        stable = stable and verdicts == first
        spent = time.perf_counter() - began
        if spent + spent / len(passes) > seconds:
            break
    return {"passes": passes, "probes": probes, "verdicts": first,
            "stable": stable, "closure_backend": backend}


def replay_layers(log: SpanLog, rep: int, line: str) -> None:
    """One history through each batch layer's public function, in the
    order ``PolySIChecker`` calls them, stopping where it would stop."""
    with log.span("codec.load", rep) as counts:
        history = history_from_json(line)
        counts["bytes"] = len(line.encode())
    with log.span("axioms", rep):
        anomalies = check_axioms(history)
    if anomalies:
        return
    with log.span("construct", rep) as counts:
        graph, anomalies = build_polygraph(history)
        counts["vertices"] = graph.num_vertices
        counts["constraints"] = graph.num_constraints
    if anomalies:
        return
    seed_graph = graph.copy()
    with log.span("closure.seed", rep):
        PruneState(seed_graph)
    with log.span("prune", rep) as counts:
        pruned = prune_constraints(graph)
        counts.update(pruned.as_dict())
    if not pruned.ok:
        return
    with log.span("decompose", rep):
        components, constraints_of = graph.constrained_components()
        constrained = [v for comp, cons in zip(components, constraints_of)
                       if cons for v in comp]
        if constrained and len(constrained) < graph.num_vertices:
            graph, _ = graph.subgraph(constrained)
    if not graph.constraints:
        return
    with log.span("encode", rep) as counts:
        encoding = encode_polygraph(graph)
        stats = encoding.stats()
        counts["vars"] = stats["vars"]
        counts["clauses"] = stats["clauses"]
    if encoding.static_cycle:
        return
    with log.span("solve", rep) as counts:
        encoding.solver.solve()
        stats = encoding.solver.stats.as_dict()
        counts["conflicts"] = stats["conflicts"]
        counts["decisions"] = stats["decisions"]


def job_batch_trace(manifest: dict) -> dict:
    """Untraced pass, traced pass and layer replay over the same lines;
    the first two differ only by the benchmark's own spans."""
    path, limit = manifest["input"], manifest["units"]
    log = SpanLog(manifest["workload"])
    untraced, verdicts, backend, _ = one_pass(path, limit)
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()[:limit]
    for rep, line in enumerate(lines):
        with log.span("e2e.verdict", rep):
            report = repro.check(history_from_json(line))
            report.to_json()
            if not report.ok:
                with log.span("interpret", rep):
                    report.interpret()
    for rep, line in enumerate(lines):
        replay_layers(log, rep, line)
    if manifest["parallel"]:
        for rep, line in enumerate(lines):
            with log.span("parallel.w2_verdict", rep):
                repro.check(history_from_json(line), mode="parallel",
                            workers=2).to_json()
    return {"untraced_s": untraced, "verdicts": verdicts,
            "closure_backend": backend, "spans": log.rows}


def job_stream_replay(manifest: dict) -> dict:
    """The daemon's per-event work, one layer at a time, in process."""
    with open(manifest["input"], encoding="utf-8") as handle:
        tenants = json.load(handle)
    log = SpanLog(manifest["workload"])
    every = manifest["checkpoint_every"]
    for rep, tenant in enumerate(tenants):
        lines = tenant["lines"]
        with log.span("codec.decode", rep) as counts:
            events = [event_from_json(line) for line in lines]
            counts["events"] = len(lines)
            counts["bytes"] = sum(len(line) + 1 for line in lines)
        with log.span("codec.encode", rep):
            for event in events:
                event_to_json(event)
        # The daemon journals through append_event, which encodes the
        # event and re-validates the line before writing it.
        store_path = os.path.join(manifest["state_dir"], tenant["name"])
        with log.span("journal.append", rep):
            store = SegmentStore.create(store_path)
            for event in events:
                store.append_event(event)
        checker = OnlineChecker(
            solve_every=manifest["solve_every"],
            window=WindowPolicy(max_live=manifest["window_share"]),
            sessions=range(tenant["sessions"]),
        )
        # The daemon runs every tenant's checker under its own tracer
        # and metrics registry; so does the replay.
        with log.span("online.add", rep) as counts, \
                use_tracer(Tracer(max_spans=manifest["max_spans"])), \
                use_metrics(MetricsRegistry()):
            for seen, event in enumerate(events, 1):
                result = checker.add(event[0], event[1], status=event[2])
                if seen % every == 0 and result.satisfies_si:
                    with log.span("journal.checkpoint", rep):
                        store.save_checkpoint(seen, checker.snapshot())
            result = checker.finish()
            counts.update(result.timings)
            counts["live_max"] = result.stats["window"]["peak_live"]
            counts["evicted"] = result.stats["window"]["evicted"]
        with log.span("journal.append", rep) as counts:
            store.close()
            counts["bytes"] = sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(store_path) for name in names)
    return {"spans": log.rows}


JOBS = {"batch": job_batch, "batch-trace": job_batch_trace,
        "stream-replay": job_stream_replay}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        manifest = json.load(handle)
    warm_up(manifest)
    print("READY", flush=True)
    if not sys.stdin.readline():
        return 0
    result = JOBS[manifest["job"]](manifest)
    import numpy

    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
