"""Implemented extensions from the paper's Section 6 / Section 8 roadmap."""

from .segmented import (
    Segment,
    SegmentedCheckResult,
    SegmentedRun,
    run_segmented_workload,
)
from .causal import WeakCheckResult

__all__ = [
    "Segment",
    "SegmentedCheckResult",
    "SegmentedRun",
    "run_segmented_workload",
    "WeakCheckResult",
]
