"""Service configuration: every knob of the checking daemon.

One frozen-ish dataclass so ``repro serve`` flags, tests, and the
benchmark harness construct daemons the same way.  The two
capacity-governing knobs are the heart of the backpressure and memory
story (see ``docs/service.md`` and DESIGN.md S13):

- ``queue_depth`` bounds each tenant's ingestion queue.  A full queue is
  *visible* backpressure — HTTP ingestion answers 429 with a rejected
  count, TCP ingestion stops granting credit and stalls the reader —
  never silent buffering and never a silent drop.
- ``max_live_total`` is the **global** live-transaction budget.  It is
  divided across the windowed tenants (re-divided whenever a tenant
  joins), and each tenant's :class:`~repro.online.WindowPolicy` evicts
  against its current share — so eviction pressure follows total memory,
  not per-checker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ServiceConfig"]


@dataclass
class ServiceConfig:
    """Knobs of one :class:`~repro.service.ReproService` instance."""

    #: Interface the HTTP and TCP listeners bind.
    host: str = "127.0.0.1"
    #: HTTP API port (0 picks an ephemeral port, reported on the handle).
    http_port: int = 8790
    #: TCP ingestion port (0 picks an ephemeral port; None disables TCP).
    tcp_port: Optional[int] = 8791
    #: Per-tenant ingestion queue bound (the backpressure threshold).
    queue_depth: int = 1024
    #: Global live-transaction budget divided across windowed tenants.
    max_live_total: int = 4096
    #: Floor of any single tenant's window share (a share too small
    #: thrashes the GC without bounding anything meaningful).
    min_live_share: int = 32
    #: Online checker: solve the SAT residue at the end of a batch that
    #: crossed a multiple of N accepted transactions.
    solve_every: int = 8
    #: Retain up to this many events per tenant so a final violation can
    #: be re-checked in batch for a classification at drain time; 0
    #: disables retention.  Retention is best-effort explanation state —
    #: the verdict never depends on it (DESIGN.md S13).
    retain_events: int = 50_000
    #: Run the batch re-check (classification) on violated tenants at
    #: drain, when their event log is still fully retained.
    explain_on_drain: bool = True
    #: TCP credit grant cap per reply (bounds per-connection burst).
    credit_cap: int = 256
    #: StreamReader buffer limit for both listeners — the longest single
    #: ``repro-events/1`` event line (or HTTP request/header line) the
    #: daemon accepts.  An over-limit line gets a protocol error reply
    #: instead of asyncio's bare LimitOverrunError connection drop.
    max_line_bytes: int = 1_048_576
    #: Extra per-tenant span-buffer bound (repro-trace/1 ``dropped``
    #: counts past it).
    max_spans: int = 100_000
    #: Per-tenant persistence root: tenant ``<name>`` journals every
    #: accepted event to a segment store at ``<state_dir>/tenants/
    #: <name>`` *before* acknowledging it, and the daemon recovers all
    #: tenants' verdicts from those stores at startup (None disables
    #: persistence; see docs/persistence.md and DESIGN.md S14).
    state_dir: Optional[str] = None
    #: Checkpoint each persistent tenant's checker every N consumed
    #: events (0: journal only — recovery then replays the whole log).
    checkpoint_every: int = 256

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_live_total < 2:
            raise ValueError("max_live_total must be >= 2")
        if self.min_live_share < 2:
            raise ValueError("min_live_share must be >= 2")
        if self.solve_every < 1:
            raise ValueError("solve_every must be >= 1")
        if self.credit_cap < 1:
            raise ValueError("credit_cap must be >= 1")
        if self.retain_events < 0:
            raise ValueError("retain_events must be >= 0")
        if self.max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
