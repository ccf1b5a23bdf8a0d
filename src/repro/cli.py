"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``check HISTORY``     — check a history file through the unified
  façade: ``--isolation si|ser|causal|ra``, ``--mode batch|online``,
  ``--engine polysi|cobra|cobrasi|dbcop|naive``.
- ``engines``           — list every registered engine with its
  supported isolation x mode combinations (``--json`` for tooling).
- ``watch``             — run a workload against a (possibly faulty)
  store and check the transaction stream *online*, as it commits.
- ``collect``           — run a workload against a **live database**
  (SQLite, or anything DB-API 2.0) over concurrent sessions, record
  the observed history, and optionally check it in the same shot — or
  stream it to a running daemon with ``--sink``.
- ``serve``             — run the checking-as-a-service daemon:
  ``repro-events/1`` ingestion over TCP (credit backpressure) and HTTP
  (429 backpressure), per-tenant online checkers, and an HTTP verdict /
  metrics / trace API (see ``docs/service.md``).
- ``generate``          — generate a workload, run it on the bundled
  store, and write the recorded history.
- ``audit``             — repeatedly run workloads against a (faulty)
  store profile until a violation is found, then explain it.
- ``corpus``            — sweep the known-anomaly corpus and report the
  detection rate.
- ``profiles``          — list the simulated database profiles.

Exit-code contract (every command):

- **0** — success: the history satisfies the checked isolation level
  (or the command has no verdict and simply completed).
- **1** — a violation was found (``corpus``: at least one anomaly was
  missed).
- **2** — error: bad usage (conflicting or unsupported flags, an
  unsupported isolation x mode x engine combination), unreadable input,
  or an adapter/runtime failure.  All error text goes to stderr as
  ``error: ...`` through a single path in :func:`main`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Optional, Sequence

from .api import Checker, CheckerError, adapt_result
from .api import check as facade_check
from .api import describe_engines, engine_names, list_engines
from .obs import (
    MetricsRegistry,
    Tracer,
    configure_logging,
    use_metrics,
    use_tracer,
    write_chrome_trace,
)
from .collect import (
    ADAPTERS,
    INJECTION_PROFILES,
    AdapterError,
    CollectOptions,
    Collector,
    FaultyAdapter,
    make_adapter,
)
from .core.checker import PolySIChecker
from .histories.codec import dump_history, load_history
from .online import WindowPolicy
from .storage.client import run_workload, stream_workload
from .storage.database import MVCCDatabase
from .storage.faults import DATABASE_PROFILES
from .store import PersistentCheck
from .workloads.corpus import known_anomaly_corpus
from .workloads.generator import WorkloadParams, generate_workload

__all__ = ["main", "CLIError"]


class CLIError(Exception):
    """A usage error any command can raise; :func:`main` prints it to
    stderr and exits 2 — the same path adapter and I/O errors take."""


def _positive_int(text: str) -> int:
    """argparse type for worker counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (got {value})"
        )
    return value


def _nonneg_int(text: str) -> int:
    """argparse type for checkpoint cadences: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return value


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sessions", type=int, default=6)
    parser.add_argument("--txns", type=int, default=10,
                        help="transactions per session")
    parser.add_argument("--ops", type=int, default=5,
                        help="operations per transaction")
    parser.add_argument("--reads", type=float, default=0.5,
                        help="read proportion in [0, 1]")
    parser.add_argument("--keys", type=int, default=20)
    parser.add_argument("--dist", default="uniform",
                        choices=["uniform", "zipfian", "hotspot"])
    parser.add_argument("--seed", type=int, default=0)


def _params(args) -> WorkloadParams:
    return WorkloadParams(
        sessions=args.sessions,
        txns_per_session=args.txns,
        ops_per_txn=args.ops,
        read_proportion=args.reads,
        keys=args.keys,
        distribution=args.dist,
    )


def _explain_report(report, dot_path: Optional[str]):
    """Shared violation reporting: classify, print, optionally write DOT.

    Returns the interpretation, or ``None`` when the report carries no
    interpretable evidence (oracle verdicts, online witnesses).
    """
    example = report.counterexample
    if example is None:
        return None
    print(f"anomaly class: {example.classification}")
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as handle:
            handle.write(example.to_dot())
        print(f"counterexample DOT written to {dot_path}")
    return example


def _render_report(report, *, explain: bool = False,
                   dot: Optional[str] = None) -> int:
    """The one verdict renderer (check / watch / collect all use it):
    verdict paragraph, stage timings, optional interpretation.  Returns
    the exit code for the verdict."""
    print(report.describe())
    if report.timings:
        print("stages (s): " + ", ".join(
            f"{k}={v:.3f}" for k, v in report.timings.items()
        ))
    if report.ok:
        return 0
    if explain or dot:
        _explain_report(report, dot)
    return 1


def _write_trace(report, path: str) -> None:
    """Write the report's ``repro-trace/1`` payload as a Chrome
    ``trace_event`` JSON file (open it in Perfetto / chrome://tracing)."""
    payload = report.stats.get("trace")
    if payload is None:
        raise CLIError(
            "--trace requires tracing to be enabled (it is by default; "
            "the selected checker recorded no trace payload)"
        )
    write_chrome_trace(payload, path)
    print(f"trace written to {path}")


def _print_persistence_line(stats: dict) -> None:
    """One status line for persistent (``--state-dir``) runs."""
    persistence = stats.get("persistence")
    if not persistence:
        return
    print(
        f"state dir {persistence['state_dir']}: "
        f"{persistence['journaled_events']} event(s) journaled in "
        f"{persistence['segments']} segment(s); resumed from "
        f"{persistence['resumed_from']}, replayed "
        f"{persistence['replayed']}, wrote "
        f"{persistence['checkpoints_written']} checkpoint(s)"
    )


def cmd_check(args) -> int:
    """``repro check``: façade verdict + timings; optional
    interpretation.

    ``HISTORY`` may also be a segment-store state directory (one written
    by ``watch --state-dir`` or ``serve --state-dir``): the journaled
    log itself is then the history, checked online — restoring the
    newest checkpoint and replaying only the tail (docs/persistence.md).
    """
    import os

    from .store import is_store_dir

    store_input = is_store_dir(args.history)
    if store_input:
        if args.isolation != "si":
            raise CLIError(
                "state-directory checking is SI-only (--isolation si)"
            )
        if args.state_dir and (os.path.abspath(args.state_dir)
                               != os.path.abspath(args.history)):
            raise CLIError(
                "HISTORY is already a state directory; --state-dir "
                "names a different one"
            )
        args.mode = "online"
        args.state_dir = args.history
    if args.state_dir and args.mode != "online":
        raise CLIError("--state-dir applies to --mode online")
    if (args.explain or args.dot) and args.mode == "online":
        raise CLIError(
            "--explain/--dot require an evidence-carrying mode; re-run "
            "with --mode batch"
        )
    options = {"prune": not args.no_prune}
    if args.mode == "online":
        options["solve_every"] = args.solve_every
        if args.state_dir:
            options["state_dir"] = args.state_dir
            options["resume"] = not args.no_resume
            if args.checkpoint_every is not None:
                options["checkpoint_every"] = args.checkpoint_every
    elif args.solve_every != 1:
        # Pre-2.0 behavior: the flag was silently ignored outside the
        # online pipeline; keep old scripts working but say so.
        print("note: --solve-every applies to --mode online; ignored",
              file=sys.stderr)
    if args.checkpoint_every is not None and not args.state_dir:
        print("note: --checkpoint-every applies with --state-dir; ignored",
              file=sys.stderr)
    checker = Checker(args.isolation, args.mode, args.engine, **options)
    history = (None if store_input
               else load_history(args.history, fmt=args.format))
    report = checker.check(history)
    if args.trace:
        _write_trace(report, args.trace)
    code = _render_report(report, explain=args.explain, dot=args.dot)
    _print_persistence_line(report.stats)
    return code


def cmd_engines(args) -> int:
    """``repro engines``: list the engine registry (``--json`` emits the
    machine-readable form tooling and drift guards consume)."""
    if args.json:
        payload = {
            "engines": [
                {
                    "name": spec.name,
                    "summary": spec.summary,
                    "combos": [
                        {"isolation": isolation, "mode": mode}
                        for isolation, mode in sorted(spec.combos)
                    ],
                    "options": sorted(spec.options),
                }
                for spec in list_engines()
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(describe_engines(verbose=args.verbose), end="")
    return 0


def _emit_stats_line(registry: MetricsRegistry, seen: int) -> None:
    """One-line live-metrics status (``watch --stats-interval``)."""
    gauges = registry.snapshot()["gauges"]
    print(
        f"[stats] txns={seen} "
        f"live={gauges.get('online.live', 0)} "
        f"unresolved={gauges.get('online.unresolved', 0)} "
        f"solves={gauges.get('online.solves', 0)} "
        f"evicted={gauges.get('window.evicted', 0)} "
        f"conflicts={gauges.get('solver.conflicts', 0)}"
    )


def cmd_watch(args) -> int:
    """``repro watch``: online-check a live transaction stream.

    Generates a workload, runs it against the bundled store (optionally
    with a fault profile), and feeds each transaction to the incremental
    checker as it commits — stopping at the first violation.  With
    ``--trace`` the whole stream is span-traced and written as a Chrome
    trace; ``--stats-interval S`` prints a one-line metrics snapshot
    every S seconds.

    With ``--state-dir`` every event is journaled to a segment store
    before it is checked and the checker state is checkpointed every
    ``--checkpoint-every`` events; re-running with the *same workload
    flags and seed* resumes from the newest checkpoint, regenerating
    the deterministic stream and skipping the already-journaled prefix
    (docs/persistence.md).
    """
    spec = generate_workload(_params(args), seed=args.seed)
    faults = DATABASE_PROFILES[args.profile]["faults"] if args.profile else None
    db = MVCCDatabase(isolation=args.isolation, faults=faults, seed=args.seed)
    window = None
    if args.max_live:
        window = WindowPolicy(max_live=args.max_live)
    tracer = Tracer() if args.trace else None
    registry = (MetricsRegistry()
                if args.trace or args.stats_interval else None)
    last_stats = time.monotonic()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if registry is not None:
            stack.enter_context(use_metrics(registry))
        persistent = PersistentCheck(
            args.state_dir or None,
            resume=not args.no_resume,
            checkpoint_every=args.checkpoint_every,
            solve_every=args.solve_every,
            window=window,
            sessions=range(args.sessions) if window else None,
        )
        stack.callback(persistent.close)
        checker = persistent.checker
        result = persistent.result()
        violated = not result.satisfies_si
        if persistent.recovered_events:
            print(f"resumed from {args.state_dir}: "
                  f"{persistent.resumed_from} event(s) restored, "
                  f"{persistent.replayed} replayed")
        if not violated:
            # The stream is seed-deterministic: regenerate it and skip
            # the prefix the store already holds (those events were
            # re-checked by checkpoint restore + tail replay).
            for session, ops, status in persistent.unjournaled(
                    stream_workload(db, spec, seed=args.seed)):
                result = persistent.feed(session, ops, status=status)
                seen = persistent.events
                if not result.satisfies_si:
                    violated = True
                    break
                if args.stats_interval and registry is not None:
                    now = time.monotonic()
                    if now - last_stats >= args.stats_interval:
                        _emit_stats_line(registry, seen)
                        last_stats = now
                if args.report_every and seen % args.report_every == 0:
                    print(
                        f"{seen} txns: SI so far; "
                        f"live={checker.live_transactions} "
                        f"unresolved={checker.unresolved_constraints} "
                        f"({1000 * result.total_time / max(1, seen):.2f} "
                        "ms/txn)"
                    )
        if not violated:
            result = persistent.finish()
    report = adapt_result(result, isolation="si", mode="online",
                          engine="polysi")
    if tracer is not None:
        report.stats["trace"] = tracer.payload(
            mode="online", engine="polysi",
            metrics=registry.snapshot() if registry is not None else None,
        )
        _write_trace(report, args.trace)
    if violated:
        print(f"violation after {persistent.events} transaction(s):")
        code = _render_report(report)
        _print_persistence_line(result.stats)
        return code
    code = _render_report(report)
    print(
        f"checked {result.stats['accepted']} committed transactions in "
        f"{result.total_time:.3f}s "
        f"({1000 * result.total_time / max(1, result.stats['accepted']):.2f} "
        "ms/txn amortized)"
    )
    _print_persistence_line(result.stats)
    return code


def _collect_adapter(args):
    """Build the (possibly fault-wrapped) adapter the flags describe."""
    if args.adapter == "sqlite":
        kwargs = {"path": args.db}
        if args.table:
            kwargs["table"] = args.table
    else:
        if not args.driver:
            raise CLIError("--adapter dbapi requires --driver")
        if not args.dsn:
            raise CLIError("--adapter dbapi requires --dsn")
        kwargs = {"driver": args.driver, "dsn": args.dsn,
                  "begin_sql": args.begin_sql}
        if args.table:
            kwargs["table"] = args.table
    adapter = make_adapter(args.adapter, **kwargs)
    if args.inject:
        adapter = FaultyAdapter(adapter, profile=args.inject, seed=args.seed)
    return adapter


def cmd_collect(args) -> int:
    """``repro collect``: workload -> live database -> recorded history,
    with an optional same-shot verdict (``--check``)."""
    spec = generate_workload(_params(args), seed=args.seed)
    adapter = _collect_adapter(args)
    options = CollectOptions(retries=args.retries,
                             record_aborted=not args.drop_aborted)
    try:
        run = Collector(adapter, options=options).run(spec)
    finally:
        adapter.close()
    print(
        f"collected {len(run.history)} txns from {run.adapter}: "
        f"{run.committed} committed, {run.aborted} aborted, "
        f"{run.retried} retried attempt(s) dropped "
        f"({run.throughput:.0f} txn/s)"
    )
    if args.out:
        dump_history(run.history, args.out, fmt=args.format)
        print(f"wrote {args.out}")
    if args.sink:
        from .service import ServiceClient

        client = ServiceClient.from_sink(args.sink)
        stats = client.push_events(args.tenant, run.iter_events(),
                                   sessions=args.sessions)
        print(
            f"pushed {stats.sent} event(s) to {args.sink} as tenant "
            f"{args.tenant!r} ({stats.rejected_retries} backpressure "
            f"retries, {stats.credit_waits} credit waits)"
        )
    if not args.check and not args.trace:
        return 0
    report = facade_check(run.history)
    if args.trace:
        _write_trace(report, args.trace)
    return _render_report(report, explain=not report.ok, dot=args.dot)


def cmd_serve(args) -> int:
    """``repro serve``: run the checking daemon until interrupted, then
    drain every tenant and report the final verdicts (exit 1 when any
    tenant's stream violated its isolation level)."""
    import asyncio

    from .service import ReproService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        http_port=args.port,
        tcp_port=None if args.tcp_port < 0 else args.tcp_port,
        queue_depth=args.queue_depth,
        max_live_total=args.max_live_total,
        solve_every=args.solve_every,
        retain_events=args.retain_events,
        max_line_bytes=args.max_line_bytes,
        state_dir=args.state_dir,
        checkpoint_every=args.checkpoint_every,
    )
    service = ReproService(config)

    def banner(svc) -> None:
        endpoints = f"http://{args.host}:{svc.http_port}"
        if svc.tcp_port is not None:
            endpoints += f", tcp://{args.host}:{svc.tcp_port}"
        print(f"repro service listening on {endpoints}", flush=True)

    try:
        asyncio.run(service.serve_forever(on_ready=banner))
    except KeyboardInterrupt:
        # Signal handlers were unavailable (rare); drain was skipped.
        pass
    verdicts = service.final_verdicts or {}
    violated = 0
    for name in sorted(verdicts):
        payload = verdicts[name]
        verdict = payload.get("report", {}).get("verdict", "unknown")
        print(f"{name}: {verdict} after {payload.get('events', 0)} event(s)")
        if verdict != "satisfied":
            violated += 1
    return 1 if violated else 0


def cmd_generate(args) -> int:
    """``repro generate``: record a workload run to a history file."""
    spec = generate_workload(_params(args), seed=args.seed)
    faults = None
    if args.profile:
        faults = DATABASE_PROFILES[args.profile]["faults"]
    db = MVCCDatabase(isolation=args.isolation, faults=faults, seed=args.seed)
    run = run_workload(db, spec, seed=args.seed)
    dump_history(run.history, args.output, fmt=args.format)
    print(
        f"wrote {args.output}: {len(run.history)} txns "
        f"({run.committed} committed, {run.aborted} aborted)"
    )
    return 0


def _audit_history(seed: int, params: WorkloadParams, profile: str):
    """One audit iteration's recorded history (deterministic per seed)."""
    faults = DATABASE_PROFILES[profile]["faults"]
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(faults=faults, seed=seed)
    return run_workload(db, spec, seed=seed).history


def _audit_run_violates(seed: int, params: WorkloadParams,
                        profile: str) -> bool:
    """Pool worker: does the seed's run violate SI?  (Module-level so the
    process pool can pickle it by reference.)"""
    return not PolySIChecker().check(
        _audit_history(seed, params, profile)
    ).satisfies_si


def cmd_audit(args) -> int:
    """``repro audit``: run workloads against a fault profile until a
    violation appears, then explain it.

    With ``--parallel N`` the iterations run through a process pool;
    futures are *collected* in seed order, so the reported seed is the
    smallest violating one — identical to the serial scan.
    """
    params = _params(args)
    hit: Optional[int] = None
    result = None
    if args.parallel and args.parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            futures = [
                pool.submit(_audit_run_violates, seed, params, args.profile)
                for seed in range(args.runs)
            ]
            for seed, future in enumerate(futures):
                if future.result():
                    hit = seed
                    for rest in futures[seed + 1:]:
                        rest.cancel()
                    break
        if hit is not None:
            # Workers ship only a boolean; recheck the one hit locally
            # for the full evidence object.
            result = PolySIChecker().check(
                _audit_history(hit, params, args.profile)
            )
    else:
        checker = PolySIChecker()
        for seed in range(args.runs):
            candidate = checker.check(
                _audit_history(seed, params, args.profile)
            )
            if not candidate.satisfies_si:
                hit, result = seed, candidate
                break
    if hit is None:
        print(f"no violation in {args.runs} runs")
        return 0
    print(f"violation found after {hit + 1} run(s)")
    report = adapt_result(result, isolation="si", mode="batch",
                          engine="polysi")
    example = _explain_report(report, args.dot)
    if example is not None:
        print(example.describe())
    return 1


def cmd_corpus(args) -> int:
    """``repro corpus``: sweep the known-anomaly corpus."""
    missed = []
    checker = PolySIChecker()
    total = 0
    for name, history in known_anomaly_corpus(args.count, seed=args.seed):
        total += 1
        if checker.check(history).satisfies_si:
            missed.append((total - 1, name))
    print(f"detected {total - len(missed)}/{total} anomalous histories")
    for index, name in missed:
        print(f"  MISSED #{index}: {name}")
    return 1 if missed else 0


def cmd_profiles(_args) -> int:
    """``repro profiles``: list the simulated database profiles."""
    width = max(len(name) for name in DATABASE_PROFILES)
    for name, info in sorted(DATABASE_PROFILES.items()):
        print(
            f"{name:<{width}}  kind={info['kind']:<11} "
            f"expected={info['expected_anomaly']}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PolySI reproduction: black-box snapshot-isolation checking",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        dest="verbosity",
                        help="raise repro.* log verbosity (-v: INFO, "
                             "-vv: DEBUG)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        dest="quietness",
                        help="lower repro.* log verbosity (errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a history file")
    p.add_argument("history", help="path to a history file")
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.add_argument("--isolation", default="si",
                   choices=["si", "ser", "causal", "ra"],
                   help="isolation level to check (default: si)")
    p.add_argument("--mode", default="batch",
                   choices=["batch", "online"],
                   help="checking mode (default: batch)")
    p.add_argument("--engine", default=None, choices=engine_names(),
                   help="checking backend (default: per isolation level)")
    p.add_argument("--no-prune", action="store_true",
                   help="disable constraint pruning")
    p.add_argument("--solve-every", type=int, default=1,
                   help="online mode: solve the SAT residue every N txns")
    p.add_argument("--explain", action="store_true",
                   help="run the interpretation algorithm on violations")
    p.add_argument("--dot", help="write the counterexample DOT here")
    p.add_argument("--trace", metavar="OUT",
                   help="write the check's span trace as Chrome "
                        "trace_event JSON (open in Perfetto)")
    p.add_argument("--state-dir", metavar="DIR",
                   help="online mode: journal the history into this "
                        "segment store and checkpoint the checker there "
                        "(HISTORY may itself be a state directory: its "
                        "journaled log is then the history)")
    p.add_argument("--no-resume", action="store_true",
                   help="ignore existing checkpoints in --state-dir and "
                        "replay the whole journaled log")
    p.add_argument("--checkpoint-every", type=_nonneg_int, default=None,
                   metavar="N",
                   help="checkpoint every N journaled events "
                        "(0: only at finish; default 256)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "engines",
        help="list registered engines and their isolation/mode support",
    )
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also list each engine's option schema")
    p.add_argument("--json", action="store_true",
                   help="emit the registry as JSON (for tooling)")
    p.set_defaults(func=cmd_engines)

    p = sub.add_parser("watch", help="online-check a live workload stream")
    _add_workload_args(p)
    p.add_argument("--isolation", default="snapshot",
                   choices=["snapshot", "serializable", "read_committed"])
    p.add_argument("--profile", choices=sorted(DATABASE_PROFILES),
                   help="inject this database profile's faults")
    p.add_argument("--solve-every", type=int, default=1,
                   help="solve the SAT residue every N transactions")
    p.add_argument("--max-live", type=int, default=0,
                   help="bound live transactions (windowed eviction)")
    p.add_argument("--report-every", type=int, default=25,
                   help="print a status line every N transactions (0: off)")
    p.add_argument("--trace", metavar="OUT",
                   help="write the stream's span trace as Chrome "
                        "trace_event JSON (open in Perfetto)")
    p.add_argument("--stats-interval", type=float, default=0, metavar="S",
                   help="print a one-line metrics snapshot every S "
                        "seconds (0: off)")
    p.add_argument("--state-dir", metavar="DIR",
                   help="journal each event to this segment store before "
                        "checking it; re-running with the same workload "
                        "flags and --seed resumes from the newest "
                        "checkpoint")
    p.add_argument("--no-resume", action="store_true",
                   help="ignore existing checkpoints in --state-dir and "
                        "replay the whole journaled log")
    p.add_argument("--checkpoint-every", type=_nonneg_int, default=256,
                   metavar="N",
                   help="checkpoint every N journaled events "
                        "(0: only at finish; default 256)")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "collect",
        help="run a workload against a live database and record the history",
    )
    _add_workload_args(p)
    p.add_argument("--adapter", default="sqlite", choices=sorted(ADAPTERS),
                   help="database backend (default: sqlite)")
    p.add_argument("--db", help="sqlite: database file (default: a temp file)")
    p.add_argument("--driver",
                   help="dbapi: DB-API 2.0 module name (e.g. psycopg2)")
    p.add_argument("--dsn",
                   help="dbapi: connection string passed to driver.connect")
    p.add_argument("--table", help="key-value table name override")
    p.add_argument("--begin-sql",
                   help="dbapi: statement run at transaction begin "
                        "(e.g. SET TRANSACTION ISOLATION LEVEL "
                        "REPEATABLE READ)")
    p.add_argument("--inject", choices=sorted(INJECTION_PROFILES),
                   help="wrap the backend with this anomaly-injection "
                        "profile")
    p.add_argument("--retries", type=int, default=2,
                   help="re-attempts per aborted transaction")
    p.add_argument("--drop-aborted", action="store_true",
                   help="drop terminally aborted txns from the history")
    p.add_argument("-o", "--out", help="write the collected history here")
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.add_argument("--check", action="store_true",
                   help="check the collected history in the same shot")
    p.add_argument("--dot", help="write the counterexample DOT here")
    p.add_argument("--trace", metavar="OUT",
                   help="write the check's span trace as Chrome "
                        "trace_event JSON (implies --check)")
    p.add_argument("--sink", metavar="URL",
                   help="stream the collected events to a running "
                        "`repro serve` daemon (http://host:port or "
                        "tcp://host:port)")
    p.add_argument("--tenant", default="default",
                   help="tenant name at the --sink daemon")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser(
        "serve",
        help="run the checking-as-a-service daemon",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="interface both listeners bind")
    p.add_argument("--port", type=int, default=8790,
                   help="HTTP API port (0: pick an ephemeral port)")
    p.add_argument("--tcp-port", type=int, default=8791,
                   help="TCP ingestion port (0: ephemeral, -1: disable)")
    p.add_argument("--queue-depth", type=_positive_int, default=1024,
                   help="per-tenant ingestion queue bound (the "
                        "backpressure threshold)")
    p.add_argument("--max-live-total", type=int, default=4096,
                   help="global live-transaction budget divided across "
                        "windowed tenants")
    p.add_argument("--solve-every", type=_positive_int, default=8,
                   help="solve each tenant's SAT residue at the end of "
                        "a batch that crossed a multiple of N txns")
    p.add_argument("--retain-events", type=int, default=50_000,
                   help="events retained per tenant for drain-time "
                        "classification (0: disable)")
    p.add_argument("--max-line-bytes", type=_positive_int,
                   default=1_048_576,
                   help="longest accepted wire line (event / HTTP "
                        "header), in bytes")
    p.add_argument("--state-dir", metavar="DIR",
                   help="journal every accepted event per tenant under "
                        "DIR/tenants/<name> and checkpoint tenant "
                        "checkers there; on restart all tenants' "
                        "verdicts are recovered before the listeners "
                        "bind (docs/persistence.md)")
    p.add_argument("--checkpoint-every", type=_nonneg_int, default=256,
                   metavar="N",
                   help="checkpoint each tenant every N consumed events "
                        "(0: journal only; default 256)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("generate", help="generate and record a workload")
    _add_workload_args(p)
    p.add_argument("--isolation", default="snapshot",
                   choices=["snapshot", "serializable", "read_committed"])
    p.add_argument("--profile", choices=sorted(DATABASE_PROFILES),
                   help="inject this database profile's faults")
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("audit", help="hunt for violations in a faulty store")
    _add_workload_args(p)
    p.add_argument("--profile", required=True,
                   choices=sorted(DATABASE_PROFILES))
    p.add_argument("--runs", type=int, default=25)
    p.add_argument("--dot", help="write the counterexample DOT here")
    p.add_argument("--parallel", type=_positive_int, metavar="N",
                   help="run the audit iterations on N worker processes")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("corpus", help="sweep the known-anomaly corpus")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("profiles", help="list simulated database profiles")
    p.set_defaults(func=cmd_profiles)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2 contract:
    see the module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbosity - args.quietness)
    from .service import ServiceError

    try:
        return args.func(args)
    except (CLIError, CheckerError, OSError, ValueError,
            AdapterError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
