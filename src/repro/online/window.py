"""Windowing and garbage collection for unbounded streams.

An online checker that never forgets grows linearly with the stream; a
production monitor needs bounded state.  Eviction here is *verdict
preserving*: a transaction ``w`` leaves the window only when no future
undesired cycle can pass through it, so dropping its vertex cannot hide
a violation (the full argument is in DESIGN.md, "Window soundness"):

1. **No unresolved constraint touches w** — every version-order choice
   involving ``w`` is already settled, so no future branch edge can be
   incident to it.
2. **w has no outstanding pending reads** — every Dep edge into ``w`` is
   already materialized; no future edge can point at it.
3. **w is not a session tail** — no future SO edge will leave it.
4. **Every key w wrote has a stable successor version**: a writer ``w'``
   with known ``WW w -> w'`` that Dep-reaches the current tail of every
   session.  Any *future* transaction is SO-after some tail, so a future
   read of ``w``'s version would close the cycle
   ``w' ~Dep~> reader -RW-> w'`` — a guaranteed violation.  Evicting
   ``w`` reports such reads as unjustified reads, which is the same
   verdict (violation) with a different witness.

Condition 4 requires Dep-only reachability (a cycle argument cannot end
a path with two adjacent anti-dependency hops), which is why the online
checker maintains a second, Dep-restricted incremental closure whenever
a window policy is installed.  It also requires the *session universe*
to be declared up front, and withholds eviction until every declared
session has committed at least once: SI places no freshness obligation
on a session's first transaction, so an unseen session could legally
read any version ever written — nothing is evictable while one may
still join.

An eviction pass does not test every live transaction: the checker keeps
*candidates* — a transaction becomes one when it arrives, when its
session moves past it (3), when a pending read of it is matched (2),
when its last unresolved constraint resolves (1), and when it gains a
WW successor (4) — and drops a candidate that fails a condition only
such an event can clear.  One that fails only (4) while each key it
wrote still has a live successor stays: stability moves with every new
tail and Dep edge (DESIGN.md, "What an event can change").

The policy also decides when to *compact*: physically renumbering the
surviving vertices, shrinking closure rows, and rebuilding the solver.
Compaction drops learned clauses (they reference retired variable ids),
so it runs only when enough slots have been logically evicted to pay for
itself; it makes every live transaction a candidate again.
"""

from __future__ import annotations

__all__ = ["WindowPolicy", "WindowStats"]


class WindowPolicy:
    """Eviction/compaction knobs for :class:`~repro.online.OnlineChecker`.

    Parameters
    ----------
    max_live:
        Soft bound on live (non-evicted) transactions; a GC pass runs
        whenever the live count exceeds it.
    gc_every:
        Also run a GC pass at the end of a batch that crossed a multiple
        of this many accepted transactions, even below ``max_live``
        (keeps eviction latency predictable).  0 disables the periodic
        trigger.
    compact_fraction:
        Compact once evicted slots exceed this fraction of all slots.
    """

    __slots__ = ("max_live", "gc_every", "compact_fraction")

    def __init__(self, max_live: int = 512, gc_every: int = 64,
                 compact_fraction: float = 0.25):
        if max_live < 2:
            raise ValueError("max_live must be at least 2")
        self.max_live = max_live
        self.gc_every = gc_every
        self.compact_fraction = compact_fraction

    def should_collect(self, live: int, before: int, after: int) -> bool:
        """Whether to run an eviction pass at the end of a batch that
        took the accepted count from ``before`` to ``after``."""
        if live > self.max_live:
            return True
        return (bool(self.gc_every)
                and before // self.gc_every != after // self.gc_every)

    def should_compact(self, live: int, total_slots: int) -> bool:
        """Whether enough slots are evicted to justify renumbering."""
        evicted = total_slots - live
        return evicted > 0 and evicted >= self.compact_fraction * total_slots

    def __repr__(self) -> str:
        return (
            f"WindowPolicy(max_live={self.max_live}, "
            f"gc_every={self.gc_every}, "
            f"compact_fraction={self.compact_fraction})"
        )


class WindowStats:
    """Counters describing window behaviour over the stream so far."""

    __slots__ = ("evicted", "gc_passes", "compactions", "peak_live")

    def __init__(self) -> None:
        self.evicted = 0
        self.gc_passes = 0
        self.compactions = 0
        self.peak_live = 0

    def as_dict(self) -> dict:
        """Plain-dict view for result payloads and benchmarks."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"WindowStats(evicted={self.evicted}, gc={self.gc_passes}, "
            f"compactions={self.compactions}, peak_live={self.peak_live})"
        )
