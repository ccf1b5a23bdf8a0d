"""Online incremental snapshot-isolation checking.

Where :mod:`repro.core.checker` re-runs the whole pipeline on every
history, this subpackage checks a *stream*: transactions arrive one at a
time, the generalized polygraph and its known-graph closure are extended
in place, pruning and SAT solving touch only the delta, and an optional
window policy bounds memory on unbounded streams.

Entry points:

- :class:`OnlineChecker` — the incremental checker (``add`` /
  ``extend`` / ``replay`` / ``finish``);
- :class:`OnlineResult` — the streaming verdict object;
- :class:`WindowPolicy` — eviction/compaction knobs for bounded memory.
"""

from .checker import OnlineChecker, OnlineResult
from .window import WindowPolicy, WindowStats

__all__ = [
    "OnlineChecker",
    "OnlineResult",
    "WindowPolicy",
    "WindowStats",
]
