"""In-memory span log for the traced benchmark run.

One row per call into a layer: ``name`` (the layer metric's prefix),
``start``/``end`` (``time.perf_counter`` — CLOCK_MONOTONIC on Linux, so
rows recorded in a child process line up with the parent's), ``parent``
(row index of the enclosing span, or None), ``workload`` and ``rep``
(the history or tenant index the call worked on), plus the ``counts``
taken at the same boundary.  Rows stay in memory and are written out
once, when the benchmark ends.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class SpanLog:
    def __init__(self, workload: str):
        self.workload = workload
        self.rows: List[dict] = []
        # The fan-in push records from two threads; each nests on its own.
        self._open = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, rep: int = 0) -> Iterator[Dict[str, float]]:
        """Time one call; the yielded dict is the row's ``counts``."""
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        counts: Dict[str, float] = {}
        row = {"name": name, "workload": self.workload, "rep": rep,
               "parent": stack[-1] if stack else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        with self._lock:
            self.rows.append(row)
            stack.append(len(self.rows) - 1)
        try:
            yield counts
        finally:
            row["end"] = time.perf_counter()
            stack.pop()

    def extend(self, rows: List[dict]) -> None:
        """Adopt rows recorded by a child process."""
        offset = len(self.rows)
        for row in rows:
            if row["parent"] is not None:
                row["parent"] += offset
            self.rows.append(row)

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows
                   if r["name"] == name)

    def self_seconds(self, name: str) -> float:
        """Duration minus the part the span's direct children cover."""
        total = self.seconds(name)
        for row in self.rows:
            parent = row["parent"]
            if parent is not None and self.rows[parent]["name"] == name:
                total -= row["end"] - row["start"]
        return total

    def count(self, name: str, key: str) -> float:
        return sum(r["counts"].get(key, 0) for r in self.rows
                   if r["name"] == name)

    def peak(self, name: str, key: str) -> float:
        return max((r["counts"].get(key, 0) for r in self.rows
                    if r["name"] == name), default=0)
