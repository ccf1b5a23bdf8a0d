"""Shared infrastructure for the two benchmark runners.

``bench_paper.py`` regenerates the paper's tables and figures and
``bench_gates.py`` holds the gates that pin one stage each (see
DESIGN.md's per-experiment index); both take the names to run on the
command line (:func:`run_named`).  Sizes are scaled to pure-Python
runtime (the paper's checker is JVM + native MonoSAT); set
``REPRO_BENCH_SCALE`` to grow or shrink every workload proportionally.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 1) -> int:
    return max(minimum, int(round(n * SCALE)))


def run_named(table: dict, argv, kind: str) -> None:
    """Run the entries of ``table`` that ``argv`` (default: the command
    line) names, in ``argv`` order, or every entry when it names none;
    an unknown name exits 1, listing the names there are."""
    names = sys.argv[1:] if argv is None else list(argv)
    unknown = [name for name in names if name not in table]
    if unknown:
        raise SystemExit(f"unknown {kind}(s) {' '.join(unknown)}; "
                         f"choose from: {' '.join(table)}")
    for name in names or table:
        table[name]()


def record_sweep_verdicts(report, sweeps) -> None:
    """Fold the measured results of ``sweeps`` into ``report``'s verdict
    counters (si / violation / timeout), so a BENCH_*.json cannot look
    fast while silently checking wrongly."""
    for sweep in sweeps:
        for m in sweep.points.values():
            if m.timed_out:
                report.count_verdict("timeout")
                continue
            result = m.result
            ok = (
                result.satisfies_si
                if hasattr(result, "satisfies_si") else bool(result)
            )
            report.count_verdict("si" if ok else "violation")


def note_stage_seconds(report, subject, **check_kwargs) -> dict:
    """Run one traced façade check of ``subject`` and record its
    per-stage span totals as ``derived.stage_seconds``.

    The totals ride in the free-form ``derived`` block of the bench
    report, so the ``repro-bench/1`` *point* schema is unchanged — the
    perf trajectory stays comparable across PRs while each BENCH file
    gains a stage-level cost breakdown of one representative check."""
    from repro import check
    from repro.obs import stage_seconds

    result = check(subject, **check_kwargs)
    totals = {name: round(seconds, 6) for name, seconds
              in sorted(stage_seconds(result.stats["trace"]).items())}
    report.note("stage_seconds", totals)
    return totals

