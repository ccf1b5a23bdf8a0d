"""PolySI-List: the SI checker for list-append histories (Appendix F).

Runs PolySI's cycle-analysis stages
(:meth:`repro.core.checker.PolySIChecker.check_polygraph`: prune,
encode, solve) on the polygraph inferred by
:mod:`repro.listappend.infer`.  Because list reads pin the
version order of everything they observe, the polygraph arrives almost
fully resolved and checking is fast across all workload shapes
(Figure 15).
"""

from __future__ import annotations

import time

from ..core.checker import CheckResult, PolySIChecker
from .infer import build_list_polygraph
from .model import ListHistory

__all__ = ["ListAppendChecker"]


class ListAppendChecker:
    """PolySI over list-append histories."""

    def __init__(self, *, prune: bool = True):
        self.prune = prune

    def check(self, history: ListHistory) -> CheckResult:
        """Decide SI for a list-append history."""
        result = CheckResult()

        t0 = time.perf_counter()
        graph, violations, _register = build_list_polygraph(history)
        result.timings["construct"] = time.perf_counter() - t0
        result.polygraph = graph.copy()
        if violations:
            result.satisfies_si = False
            result.anomalies = violations
            result.decided_by = "axioms"
            return result

        return PolySIChecker(prune=self.prune).check_polygraph(graph, result)
