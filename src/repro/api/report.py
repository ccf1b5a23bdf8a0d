"""The one result type of the checking façade.

Every backend keeps its native result (:class:`CheckResult`,
:class:`OnlineResult`, :class:`SegmentedCheckResult`,
:class:`SerCheckResult`, :class:`CobraSIResult`, :class:`DbcopResult`,
:class:`WeakCheckResult`, or a bare oracle boolean) — :func:`adapt_result`
normalizes any of them into a :class:`Report`: one verdict flag, the
(isolation, mode, engine) triple that produced it, the deciding stage,
anomaly and witness-cycle evidence, and per-stage timings/stats under
stable names.  The native result stays attached for anything the
normalization flattens, and :meth:`Report.interpret` runs the Section 5.3
interpretation algorithm whenever the native evidence supports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional

from ..baselines.cobra import SerCheckResult
from ..baselines.cobrasi import CobraSIResult
from ..baselines.dbcop import DbcopResult
from ..core.checker import CheckResult
from ..extensions.causal import WeakCheckResult
from ..extensions.segmented import SegmentedCheckResult
from ..interpret import Counterexample, InterpretationError, interpret_violation
from ..online.checker import OnlineResult
from ..timestamp.engine import TimestampResult

__all__ = ["Report", "adapt_result", "ISOLATION_TITLES"]


#: Human-readable isolation-level names for verdict text.
ISOLATION_TITLES: Dict[str, str] = {
    "si": "snapshot isolation",
    "ser": "serializability",
    "causal": "transactional causal consistency",
    "ra": "read atomicity",
    "listappend": "snapshot isolation (list-append)",
}


@dataclass
class Report:
    """Unified verdict of one façade check.

    ``ok`` is the verdict; ``decided_by`` names the pipeline stage that
    produced it; ``anomalies`` / ``cycle`` carry the evidence (in the
    native result's vertex ids, rendered through ``names``); ``timings``
    and ``stats`` are the backend's counters under their native keys.
    """

    ok: bool
    isolation: str
    mode: str
    engine: str
    decided_by: str = "unknown"
    anomalies: List = field(default_factory=list)
    cycle: Optional[List] = None
    timings: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)
    #: The backend's native result object, for anything not normalized.
    native: object = field(default=None, repr=False)
    #: Vertex id -> display name for rendering ``cycle``.
    names: Optional[Callable[[int], str]] = field(default=None, repr=False)

    @property
    def verdict(self) -> str:
        return "satisfied" if self.ok else "violated"

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    # -- rendering -----------------------------------------------------------

    def _subject(self) -> str:
        return "stream" if self.mode == "online" else "history"

    def describe(self) -> str:
        """One-paragraph human-readable summary of the verdict."""
        title = ISOLATION_TITLES.get(self.isolation, self.isolation)
        if self.ok:
            return f"{self._subject()} satisfies {title}"
        lines = [f"{self._subject()} violates {title} ({self.decided_by}):"]
        if self.anomalies:
            lines += [f"  - {a!r}" for a in self.anomalies]
            return "\n".join(lines)
        if self.cycle:
            name = self.names or str
            parts = []
            for u, v, label, key in self.cycle:
                suffix = f"({key})" if key is not None else ""
                parts.append(f"{name(u)} -{label}{suffix}-> {name(v)}")
            return lines[0][:-1] + " cycle " + "; ".join(parts)
        return lines[0][:-1]

    def to_dict(self) -> dict:
        """The machine-readable verdict as a JSON-shaped dict.

        ``stats["trace"]`` is passed through by reference: the tracer
        already builds the ``repro-trace/1`` payload in JSON shape, so
        only the other ``stats`` entries go through :func:`_jsonable`.
        """
        name = self.names or str
        anomalies = []
        for a in self.anomalies:
            entry = {"axiom": getattr(a, "axiom", None),
                     "txn": getattr(getattr(a, "txn", None), "name", None),
                     "detail": getattr(a, "detail", repr(a))}
            key = getattr(a, "key", None)
            if key is not None:
                entry["key"] = repr(key)
            anomalies.append(entry)
        payload: dict = {
            "verdict": self.verdict,
            "isolation": self.isolation,
            "mode": self.mode,
            "engine": self.engine,
            "decided_by": self.decided_by,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "anomalies": anomalies,
        }
        if self.cycle:
            payload["cycle"] = [
                {"from": name(u), "to": name(v), "type": label,
                 "key": repr(key) if key is not None else None}
                for u, v, label, key in self.cycle
            ]
        stats = self.stats
        if stats and all(isinstance(k, str) for k in stats):
            payload["stats"] = {k: v if k == "trace" else _jsonable(v)
                                for k, v in stats.items()}
        elif stats:
            payload["stats"] = _jsonable(stats)
        return payload

    def to_json(self) -> str:
        """:meth:`to_dict` as one compact JSON line (for CI pipelines
        and tooling; pretty-print with ``python -m json.tool``)."""
        return _ENCODER.encode(self.to_dict())

    # -- interpretation ------------------------------------------------------

    def interpret(self) -> Counterexample:
        """Explain the violation (Section 5.3) from the native evidence.

        Raises :class:`InterpretationError` when the report is satisfied
        or the backend's evidence cannot support interpretation (online
        witnesses lose their polygraph; dbcop and the oracles produce no
        evidence at all).
        """
        if self.ok:
            raise InterpretationError(
                f"the {self._subject()} satisfies "
                f"{ISOLATION_TITLES.get(self.isolation, self.isolation)}; "
                "nothing to explain"
            )
        native = self.native
        if isinstance(native, CheckResult):
            return interpret_violation(native)
        if (isinstance(native, TimestampResult)
                and native.fallback_result is not None
                and not native.fallback_result.satisfies_si):
            # The fallback is a full PolySI run on the residue
            # subhistory; its evidence interprets like any batch result.
            return interpret_violation(native.fallback_result)
        if isinstance(native, SegmentedCheckResult):
            for segment_result in native.segment_results:
                if not segment_result.satisfies_si:
                    return interpret_violation(segment_result)
        if self.anomalies:
            # Anomaly-only evidence interprets without a polygraph.
            shim = CheckResult()
            shim.satisfies_si = False
            shim.decided_by = self.decided_by
            shim.anomalies = list(self.anomalies)
            return interpret_violation(shim)
        raise InterpretationError(
            f"engine {self.engine!r} ({self.mode} mode) does not carry "
            "interpretable evidence; re-check with engine='polysi', "
            "mode='batch' to get a counterexample"
        )

    @cached_property
    def counterexample(self) -> Optional[Counterexample]:
        """The interpreted violation, or None when not interpretable.

        Cached: the Section 5.3 interpretation pass runs once per
        report no matter how often this is read."""
        try:
            return self.interpret()
        except InterpretationError:
            return None


#: Compact, so the C encoder runs; ``repr`` for a stray non-JSON value
#: (a numpy integer in a span attribute).  No circular-reference check:
#: ``to_dict`` builds fresh containers around the tracer's tree.
_ENCODER = json.JSONEncoder(default=repr, check_circular=False)


def _jsonable(value):
    """Best-effort conversion of stats payloads to JSON-safe values.

    JSON objects only take string keys, so non-string dict keys (int
    segment ids, tuple combo keys, ...) are stringified — and because the
    source dict's insertion order then no longer means anything, mixed
    or non-string keys are emitted in sorted (stringified) order so the
    output is deterministic regardless of how the dict was built.
    All-string-keyed dicts keep their insertion order untouched.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _jsonable(v) for k, v in value.items()}
        items = [(str(k), _jsonable(v)) for k, v in value.items()]
        items.sort(key=lambda kv: kv[0])
        return dict(items)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


# -- adapters -----------------------------------------------------------------------


def adapt_result(native, *, isolation: str, mode: str, engine: str) -> Report:
    """Normalize any backend's native result into a :class:`Report`."""
    report = Report(ok=True, isolation=isolation, mode=mode, engine=engine,
                    native=native)
    if isinstance(native, CheckResult):
        _adapt_check(native, report)
    elif isinstance(native, OnlineResult):
        _adapt_online(native, report)
    elif isinstance(native, SegmentedCheckResult):
        _adapt_segmented(native, report)
    elif isinstance(native, TimestampResult):
        _adapt_timestamp(native, report)
    elif isinstance(native, CobraSIResult):
        _adapt_cobrasi(native, report)
    elif isinstance(native, SerCheckResult):
        _adapt_ser(native, report)
    elif isinstance(native, DbcopResult):
        _adapt_dbcop(native, report)
    elif isinstance(native, WeakCheckResult):
        _adapt_weak(native, report)
    elif isinstance(native, bool):
        report.ok = native
        report.decided_by = "oracle"
    else:
        raise TypeError(
            f"cannot adapt {type(native).__name__} into a Report"
        )
    return report


def _adapt_check(native: CheckResult, report: Report) -> None:
    report.ok = native.satisfies_si
    report.decided_by = native.decided_by
    report.anomalies = list(native.anomalies)
    report.cycle = native.cycle
    report.timings = dict(native.timings)
    report.stats = dict(native.stats)
    if native.solver_stats:
        report.stats["solver"] = dict(native.solver_stats)
    if native.prune_result is not None:
        report.stats["pruning"] = native.prune_result.as_dict()
    if native.polygraph is not None:
        report.names = native.polygraph.vertex_name


def _adapt_online(native: OnlineResult, report: Report) -> None:
    report.ok = native.satisfies_si
    report.decided_by = native.decided_by
    report.anomalies = list(native.anomalies)
    report.cycle = native.cycle
    report.timings = dict(native.timings)
    report.stats = dict(native.stats)
    report.stats["final"] = native.final
    names = native.names
    report.names = lambda v: names.get(v, str(v))


def _adapt_segmented(native: SegmentedCheckResult, report: Report) -> None:
    report.ok = native.satisfies_si
    report.timings = {"total": native.total_seconds}
    report.stats = {
        "segments": len(native.segment_results),
        "failing_segment": native.failing_segment,
    }
    # Every segment runs batch pruning's closure kernel; surface it
    # from the first segment that recorded one.
    for segment_result in native.segment_results:
        backend = segment_result.stats.get("closure_backend")
        if backend is not None:
            report.stats["closure_backend"] = backend
            break
    report.decided_by = "segments"
    for segment_result in native.segment_results:
        if not segment_result.satisfies_si:
            report.decided_by = segment_result.decided_by
            report.anomalies = list(segment_result.anomalies)
            report.cycle = segment_result.cycle
            if segment_result.polygraph is not None:
                report.names = segment_result.polygraph.vertex_name
            break


def _adapt_timestamp(native: TimestampResult, report: Report) -> None:
    report.ok = native.satisfies_si
    report.decided_by = native.decided_by
    report.anomalies = list(native.anomalies)
    report.cycle = native.cycle
    report.timings = dict(native.timings)
    report.stats = dict(native.stats)
    report.names = native.names


def _adapt_cobrasi(native: CobraSIResult, report: Report) -> None:
    report.ok = native.satisfies_si
    report.decided_by = native.decided_by
    report.anomalies = list(native.anomalies)
    report.timings = dict(native.timings)
    report.stats = {"reduction": "split"}
    ser = native.ser_result
    if ser is not None and ser.cycle is not None:
        report.cycle = ser.cycle
        if ser.polygraph is not None:
            report.names = ser.polygraph.vertex_name


def _adapt_ser(native: SerCheckResult, report: Report) -> None:
    report.ok = native.serializable
    report.decided_by = native.decided_by
    report.anomalies = list(native.anomalies)
    report.cycle = native.cycle
    report.timings = dict(native.timings)
    if native.polygraph is not None:
        report.names = native.polygraph.vertex_name


def _adapt_dbcop(native: DbcopResult, report: Report) -> None:
    report.ok = native.satisfies
    report.decided_by = "search"
    report.timings = dict(native.timings)
    report.stats = {"states_explored": native.states_explored}


#: Bad-pattern anomaly names of the weak-isolation checkers; anything
#: else in a WeakCheckResult is a plain axiom violation.
_WEAK_PATTERNS = frozenset(
    {"CyclicCO", "WriteCORead", "WriteCOInitRead", "FracturedRead"}
)


def _adapt_weak(native: WeakCheckResult, report: Report) -> None:
    report.ok = native.satisfies
    if native.anomalies and all(
        a.axiom not in _WEAK_PATTERNS for a in native.anomalies
    ):
        report.decided_by = "axioms"
    else:
        report.decided_by = "patterns"
    report.anomalies = list(native.anomalies)
    report.timings = {"total": native.seconds}
