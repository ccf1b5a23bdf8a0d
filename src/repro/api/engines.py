"""Builtin engine registrations.

Each backend in the repository registers here: the paper's PolySI
pipeline (with its online and segmented drivers plus the
weak-isolation and list-append front ends) and the Section 5.4 baselines
(Cobra, CobraSI, dbcop, the naive oracles).  Adding a backend means
writing a runner with the ``(subject, isolation, mode, options)``
signature and calling :func:`~repro.api.registry.register_engine` — see
docs/api.md for the extension guide.
"""

from __future__ import annotations

from .options import CheckOptions
from .registry import CheckerError, EngineSpec, register_engine

__all__ = ["register_builtin_engines"]


_PIPELINE_OPTIONS = ("prune", "compact")


def _expect(subject, kind: str, *, engine: str, mode: str):
    """Validate the runner input against the registered input kind."""
    from ..core.history import History
    from ..extensions.segmented import SegmentedRun
    from ..listappend.model import ListHistory

    expected = {"history": History, "segmented_run": SegmentedRun,
                "list_history": ListHistory,
                "timestamped_history": History}[kind]
    if not isinstance(subject, expected):
        article = {"history": "a History", "segmented_run": "a SegmentedRun",
                   "list_history": "a ListHistory",
                   "timestamped_history": "a History with recorded "
                   "timestamps"}[kind]
        raise CheckerError(
            f"engine {engine!r} in mode {mode!r} checks {article}; got "
            f"{type(subject).__name__} (segmented checking consumes the "
            "snapshot-delimited runs produced by run_segmented_workload; "
            "list-append checking consumes ListHistory / Elle histories)"
        )
    return subject


# -- polysi -------------------------------------------------------------------------


def _run_polysi(subject, isolation: str, mode: str, options: CheckOptions):
    from ..core.checker import PolySIChecker
    from ..extensions.causal import _check_ra, _check_tcc
    from ..extensions.segmented import _check_segmented
    from ..listappend.checker import ListAppendChecker
    from ..online.checker import OnlineChecker
    from ..online.window import WindowPolicy

    if isolation == "causal":
        return _check_tcc(_expect(subject, "history", engine="polysi",
                                  mode=mode))
    if isolation == "ra":
        return _check_ra(_expect(subject, "history", engine="polysi",
                                 mode=mode))
    if isolation == "listappend":
        _expect(subject, "list_history", engine="polysi", mode=mode)
        return ListAppendChecker(prune=options.prune).check(subject)

    pipeline = options.subset(_PIPELINE_OPTIONS)
    if mode == "batch":
        _expect(subject, "history", engine="polysi", mode=mode)
        return PolySIChecker(initial_values=options.initial_values,
                             **pipeline).check(subject)
    if mode == "online":
        window = (WindowPolicy(max_live=options.max_live)
                  if options.max_live else None)
        if options.state_dir is not None:
            from ..histories.codec import history_to_events
            from ..store.resume import run_persistent_check

            # With a state dir the subject may be omitted entirely:
            # the store's own journaled log is the history, streamed
            # segment by segment (larger-than-memory checking).
            events = None
            if subject is not None:
                _expect(subject, "history", engine="polysi", mode=mode)
                events = history_to_events(subject)
            return run_persistent_check(
                options.state_dir, events,
                resume=options.resume,
                checkpoint_every=options.checkpoint_every,
                prune=options.prune,
                solve_every=options.solve_every,
                window=window,
                sessions=options.sessions,
                initial_values=options.initial_values,
            )
        _expect(subject, "history", engine="polysi", mode=mode)
        checker = OnlineChecker(
            prune=options.prune,
            solve_every=options.solve_every,
            window=window,
            sessions=options.sessions,
            initial_values=options.initial_values,
        )
        return checker.replay(subject)
    if mode == "parallel":
        # Kept only for benchmarks/e2e/child.py's traced replay, which
        # still asks for it; deleted with that replay.  It is batch
        # checking: ``workers`` is accepted and ignored.
        _expect(subject, "history", engine="polysi", mode=mode)
        return PolySIChecker(**pipeline).check(subject)
    # mode == "segmented"
    _expect(subject, "segmented_run", engine="polysi", mode=mode)
    return _check_segmented(
        subject,
        workers=options.workers or 1,
        oversubscribe=options.oversubscribe,
        **pipeline,
    )


# -- timestamp ----------------------------------------------------------------------


def _run_timestamp(subject, isolation: str, mode: str,
                   options: CheckOptions):
    from ..timestamp.engine import PIPELINE_OPTIONS, TimestampChecker

    _expect(subject, "timestamped_history", engine="timestamp", mode=mode)
    return TimestampChecker(**options.subset(PIPELINE_OPTIONS)).check(subject)


# -- baselines ----------------------------------------------------------------------


def _run_cobra(subject, isolation: str, mode: str, options: CheckOptions):
    from ..baselines.cobra import CobraChecker

    _expect(subject, "history", engine="cobra", mode=mode)
    return CobraChecker(gpu=options.gpu, prune=options.prune).check(subject)


def _run_cobrasi(subject, isolation: str, mode: str, options: CheckOptions):
    from ..baselines.cobrasi import CobraSIChecker

    _expect(subject, "history", engine="cobrasi", mode=mode)
    return CobraSIChecker(gpu=options.gpu,
                          prune=options.prune).check(subject)


def _run_dbcop(subject, isolation: str, mode: str, options: CheckOptions):
    from ..baselines.dbcop import DbcopChecker

    _expect(subject, "history", engine="dbcop", mode=mode)
    checker = DbcopChecker(max_states=options.max_states)
    if isolation == "si":
        return checker.check_si(subject)
    return checker.check_ser(subject)


def _run_naive(subject, isolation: str, mode: str, options: CheckOptions):
    from ..baselines.naive import naive_check_ser, naive_check_si

    _expect(subject, "history", engine="naive", mode=mode)
    if isolation == "si":
        return naive_check_si(subject, max_orders=options.max_orders)
    return naive_check_ser(subject, max_txns=options.max_txns)


# -- registration -------------------------------------------------------------------


def register_builtin_engines() -> None:
    """Register every backend shipped with the repository (idempotent)."""
    from .registry import _REGISTRY

    if "polysi" in _REGISTRY:
        return

    register_engine(EngineSpec(
        name="polysi",
        summary=("the paper's pipeline: axioms -> polygraph -> prune -> "
                 "encode -> MonoSAT-style solve; online and segmented "
                 "drivers; TCC/RA and list-append front ends"),
        combos=frozenset({
            ("si", "batch"), ("si", "online"), ("si", "parallel"),
            ("si", "segmented"),
            ("causal", "batch"), ("ra", "batch"),
            ("listappend", "batch"),
        }),
        options=frozenset({
            "prune", "compact", "initial_values",
            "workers", "oversubscribe",
            "solve_every", "max_live", "sessions", "state_dir", "resume",
            "checkpoint_every",
        }),
        runner=_run_polysi,
        inputs={("si", "segmented"): "segmented_run",
                ("listappend", "batch"): "list_history"},
        # What each combo actually forwards (mirrors _run_polysi): the
        # weak-isolation checkers take no options, the online driver
        # only prune of the pipeline switches, the segmented driver sets
        # initial values per segment itself, and the parallel alias
        # takes (and ignores) workers.
        options_for={
            ("si", "batch"): frozenset(_PIPELINE_OPTIONS
                                       + ("initial_values",)),
            ("si", "online"): frozenset({
                "prune", "solve_every", "max_live", "sessions",
                "initial_values", "state_dir",
                "resume", "checkpoint_every",
            }),
            ("si", "parallel"): frozenset(_PIPELINE_OPTIONS
                                          + ("workers",)),
            ("si", "segmented"): frozenset({
                "prune", "compact", "workers", "oversubscribe",
            }),
            ("causal", "batch"): frozenset(),
            ("ra", "batch"): frozenset(),
            ("listappend", "batch"): frozenset({"prune"}),
        },
    ))

    register_engine(EngineSpec(
        name="timestamp",
        summary=("near-linear SI validation from recorded start/commit "
                 "timestamps; timestamp-ambiguous residue clusters fall "
                 "back to the polysi pipeline"),
        combos=frozenset({("si", "batch")}),
        # The fallback pipeline's switches; initial_values is
        # deliberately not accepted (the fast path always reads plain
        # initial values), so setting it is a typed error, not a
        # silent no-op.
        options=frozenset({"prune", "compact"}),
        runner=_run_timestamp,
        inputs={("si", "batch"): "timestamped_history"},
    ))

    register_engine(EngineSpec(
        name="cobra",
        summary=("Cobra-style serializability checking: plain polygraph "
                 "acyclicity via MonoSAT (Section 5.4 baseline)"),
        combos=frozenset({("ser", "batch")}),
        options=frozenset({"gpu", "prune"}),
        runner=_run_cobra,
    ))

    register_engine(EngineSpec(
        name="cobrasi",
        summary=("SI via the Biswas-Enea split reduction on top of Cobra "
                 "(Section 5.4 baseline)"),
        combos=frozenset({("si", "batch")}),
        options=frozenset({"gpu", "prune"}),
        runner=_run_cobrasi,
    ))

    register_engine(EngineSpec(
        name="dbcop",
        summary=("dbcop-style frontier search, no constraint solver; "
                 "boolean verdict only (Section 5.4 baseline)"),
        combos=frozenset({("si", "batch"), ("ser", "batch")}),
        options=frozenset({"max_states"}),
        runner=_run_dbcop,
    ))

    register_engine(EngineSpec(
        name="naive",
        summary=("brute-force oracles: enumerate version orders (SI) or "
                 "serial orders (SER); small histories only"),
        combos=frozenset({("si", "batch"), ("ser", "batch")}),
        options=frozenset({"max_orders", "max_txns"}),
        runner=_run_naive,
        options_for={("si", "batch"): frozenset({"max_orders"}),
                     ("ser", "batch"): frozenset({"max_txns"})},
    ))
