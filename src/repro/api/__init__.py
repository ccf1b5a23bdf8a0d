"""The unified checking façade: one ``Checker``, one ``Report``.

Every checking scenario in the repository is one call::

    from repro import check

    report = check(history)                              # SI, batch, PolySI
    report = check(history, isolation="ser", engine="cobra")
    report = check(history, mode="online", solve_every=8)
    report = check(run, mode="segmented", workers=4)     # a SegmentedRun
    report = check(list_history, isolation="listappend")

or, keeping configuration around for many histories::

    checker = Checker(isolation="ser", engine="cobra")
    for history in histories:
        if not checker.check(history).ok:
            ...

Engines, isolation levels, and modes are registry entries
(:mod:`repro.api.registry`): ``repro engines`` lists them, unsupported
combinations raise :class:`UnsupportedComboError` naming the nearest
supported alternative, and a new backend registers an
:class:`EngineSpec` instead of growing a new top-level API.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..obs import (
    MetricsRegistry,
    Tracer,
    trace_span,
    use_metrics,
    use_tracer,
)
from .engines import register_builtin_engines
from .options import OPTION_DOCS, CheckOptions
from .registry import (
    ISOLATION_LEVELS,
    MODES,
    CheckerError,
    EngineSpec,
    MissingTimestampsError,
    UnknownEngineError,
    UnsupportedComboError,
    UnsupportedOptionError,
    default_engine,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    resolve,
    supported_combos,
)
from .report import ISOLATION_TITLES, Report, adapt_result

__all__ = [
    "Checker",
    "CheckOptions",
    "Report",
    "EngineSpec",
    "CheckerError",
    "UnknownEngineError",
    "UnsupportedComboError",
    "UnsupportedOptionError",
    "MissingTimestampsError",
    "ISOLATION_LEVELS",
    "MODES",
    "check",
    "adapt_result",
    "default_engine",
    "describe_engines",
    "engine_names",
    "get_engine",
    "list_engines",
    "register_engine",
    "supported_combos",
]

register_builtin_engines()


class Checker:
    """One configured checking scenario: isolation x mode x engine.

    Parameters
    ----------
    isolation:
        ``"si"`` (default), ``"ser"``, ``"causal"``, ``"ra"``, or
        ``"listappend"``.
    mode:
        ``"batch"`` (default), ``"online"``, or ``"segmented"``
        (``"parallel"`` is a compatibility alias of ``"batch"``).
    engine:
        A registered engine name; None picks the first engine supporting
        the combo (``"polysi"`` everywhere it applies, ``"cobra"`` for
        plain serializability).
    workers:
        Convenience shorthand for ``options.workers``.
    options:
        A prebuilt :class:`CheckOptions`; mutually exclusive with
        ``**kwargs``, which construct one.

    The (isolation, mode, engine) triple and every non-default option
    are validated against the engine registry at construction time, so
    misconfiguration fails before any history is read.
    """

    def __init__(
        self,
        isolation: str = "si",
        mode: str = "batch",
        engine: Optional[str] = None,
        *,
        workers: Optional[int] = None,
        options: Optional[CheckOptions] = None,
        **kwargs,
    ):
        if options is not None and kwargs:
            raise CheckerError(
                "pass either a prebuilt options=CheckOptions(...) or "
                "loose **options, not both"
            )
        if options is None:
            try:
                options = CheckOptions(**kwargs)
            except TypeError:
                unknown = sorted(set(kwargs) - CheckOptions.field_names())
                if not unknown:
                    raise
                raise UnsupportedOptionError(
                    f"unknown option(s): {', '.join(unknown)}; see "
                    "repro.api.CheckOptions for the full schema"
                ) from None
        if workers is not None:
            # replace() re-runs __post_init__ validation and leaves any
            # caller-supplied CheckOptions object untouched.
            options = dataclasses.replace(options, workers=workers)
        self.spec = resolve(isolation, mode, engine)
        self.isolation = isolation
        self.mode = mode
        self.engine = self.spec.name
        self.options = options
        self.spec.validate_options(options, isolation, mode)

    def check(self, subject) -> Report:
        """Check one history (or SegmentedRun / ListHistory, per mode and
        isolation) and return the unified :class:`Report`.

        Unless ``trace=False``, the whole run executes under a fresh
        :class:`~repro.obs.Tracer` and :class:`~repro.obs.MetricsRegistry`;
        the resulting ``repro-trace/1`` payload (span tree + metrics
        snapshot, see :func:`repro.obs.validate_trace`) is attached as
        ``Report.stats["trace"]``.
        """
        if not self.options.trace:
            native = self.spec.runner(subject, self.isolation, self.mode,
                                      self.options)
            return adapt_result(native, isolation=self.isolation,
                                mode=self.mode, engine=self.engine)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            with trace_span("check", isolation=self.isolation,
                            engine=self.engine):
                native = self.spec.runner(subject, self.isolation,
                                          self.mode, self.options)
        report = adapt_result(native, isolation=self.isolation,
                              mode=self.mode, engine=self.engine)
        report.stats["trace"] = tracer.payload(
            mode=self.mode, engine=self.engine,
            metrics=registry.snapshot(),
        )
        return report

    def __repr__(self) -> str:
        return (f"Checker(isolation={self.isolation!r}, mode={self.mode!r}, "
                f"engine={self.engine!r})")


def check(subject, isolation: str = "si", mode: str = "batch",
          engine: Optional[str] = None, *, workers: Optional[int] = None,
          **options) -> Report:
    """One-shot façade check: ``Checker(...).check(subject)``."""
    return Checker(isolation, mode, engine, workers=workers,
                   **options).check(subject)


def describe_engines(verbose: bool = False) -> str:
    """The ``repro engines`` listing: every registered engine with its
    supported isolation x mode combinations (and options when verbose)."""
    lines: List[str] = []
    for spec in list_engines():
        lines.append(f"{spec.name} — {spec.summary}")
        for isolation in spec.isolations():
            modes = ", ".join(spec.modes_for(isolation))
            lines.append(f"    {isolation}: {modes}")
        if verbose and spec.options:
            lines.append("    options:")
            for name in sorted(spec.options):
                doc = OPTION_DOCS.get(name, "")
                readers = spec.read_by(name)
                suffix = (f" [{', '.join(readers)} only]"
                          if len(readers) < len(spec.combos) else "")
                lines.append(f"        {name}: {doc}{suffix}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
