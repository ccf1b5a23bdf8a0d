"""CobraSI: SI checking via the split reduction plus Cobra (Section 5.4).

The paper builds this baseline by implementing the incremental SI -> SER
reduction of Biswas & Enea [7, Section 4.3] on top of Cobra [44].  Two
variants are evaluated: with and without GPU acceleration of Cobra's
reachability matrices; here "GPU" selects the SCC-condensed bitset
closure kernel (DESIGN.md, substitution 3).

The pipeline is: non-cyclic axioms on the original history (the reduction
only preserves cyclic anomalies), then :func:`split_history`, then the
Cobra serializability checker on the split history.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.axioms import check_axioms
from ..core.history import History
from .cobra import CobraChecker, SerCheckResult
from .reduction import split_history

__all__ = ["CobraSIChecker", "CobraSIResult"]


class CobraSIResult:
    """Verdict of a CobraSI check."""

    def __init__(self) -> None:
        self.satisfies_si: bool = True
        self.anomalies: list = []
        self.decided_by: str = "trivial"
        self.timings: dict = {}
        self.ser_result: Optional[SerCheckResult] = None

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    def __repr__(self) -> str:
        verdict = "SI" if self.satisfies_si else f"VIOLATION({self.decided_by})"
        return f"CobraSIResult({verdict})"


class CobraSIChecker:
    """SI checker: split reduction + Cobra SER checking."""

    def __init__(self, *, gpu: bool = False, prune: bool = True):
        self._cobra = CobraChecker(gpu=gpu, prune=prune)

    def check(self, history: History) -> CobraSIResult:
        """Decide SI for ``history`` via split reduction + Cobra."""
        result = CobraSIResult()

        t0 = time.perf_counter()
        anomalies = check_axioms(history)
        result.timings["axioms"] = time.perf_counter() - t0
        if anomalies:
            result.satisfies_si = False
            result.anomalies = anomalies
            result.decided_by = "axioms"
            return result

        t0 = time.perf_counter()
        split = split_history(history)
        result.timings["reduce"] = time.perf_counter() - t0

        ser = self._cobra.check(split)
        result.ser_result = ser
        for stage, seconds in ser.timings.items():
            result.timings[f"ser_{stage}"] = seconds
        result.satisfies_si = ser.serializable
        result.decided_by = ser.decided_by
        if not ser.serializable:
            result.anomalies = ser.anomalies
        return result
