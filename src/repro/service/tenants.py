"""Per-tenant online checkers and the session router.

Each tenant (an isolation domain: one application, one keyspace) owns

- a **bounded queue** of ingested events (``ServiceConfig.queue_depth``)
  — the backpressure boundary.  Ingestion *offers* events; a full queue
  is reported to the producer (HTTP 429 / withheld TCP credit), never
  absorbed into unbounded buffering;
- an :class:`~repro.online.OnlineChecker` the queue drains into — off
  the event loop, so a slow solve never stalls ingestion or the HTTP
  API — driven by a :class:`~repro.store.PersistentCheck`, which with
  ``ServiceConfig.state_dir`` also journals, checkpoints and recovers
  it (DESIGN.md S14);
- its own :class:`~repro.obs.Tracer` and
  :class:`~repro.obs.MetricsRegistry`, installed ambiently around each
  batch of its events: every event the checker processes becomes a root
  ``event`` span in the tenant's trace buffer, each batch adds its root
  ``prune`` / ``gc`` / ``solve`` spans, and the ``online.*`` /
  ``window.*`` gauges stay per-tenant instead of clobbering one another.

The :class:`SessionRouter` holds the tenant table, the **global memory
budget** — ``ServiceConfig.max_live_total`` live transactions are
divided across the windowed tenants, and every tenant's
:class:`~repro.online.WindowPolicy` is re-targeted in place whenever a
tenant joins, so eviction pressure follows the service-wide budget, not
a fixed per-checker count — and the service's **one checker thread**:
ready tenants take turns, one bounded batch of queued events each,
checked by one :meth:`~repro.online.OnlineChecker.extend` call
(DESIGN.md S13, "One checker thread").
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from ..api import adapt_result
from ..histories.codec import history_from_events
from ..obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from ..online import WindowPolicy
from ..store.resume import PersistentCheck, ingest_error
from .config import ServiceConfig

__all__ = ["TenantChecker", "SessionRouter", "TenantError",
           "tenant_store_path"]

_TENANT_NAME = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
_log = logging.getLogger(__name__)

#: Queued behind a tenant's last event by ``drain``.
_FINISH = object()


class TenantError(ValueError):
    """A tenant-level protocol error (bad name, undeclared session)."""


def tenant_store_path(state_dir: str, name: str) -> str:
    """The segment-store directory of tenant ``name`` under a service
    ``state_dir`` (``<state_dir>/tenants/<name>``)."""
    return os.path.join(state_dir, "tenants", name)


class TenantChecker:
    """One tenant's queue + online checker; ``schedule(tenant)`` puts
    it in line for the checker thread (:class:`SessionRouter`)."""

    def __init__(self, name: str, config: ServiceConfig,
                 schedule: Callable[["TenantChecker"], None], *,
                 sessions: Optional[Iterable[int]] = None,
                 window: Optional[WindowPolicy] = None):
        self.name = name
        self.config = config
        self.sessions = frozenset(sessions) if sessions is not None else None
        #: ``(event, offered_at)`` in offer order (``_FINISH`` for the
        #: event last): appended under the offer lock, popped by the
        #: checker thread.
        self._pending: deque = deque()
        #: In the checker thread's line or being run by it; flipped
        #: under the offer lock, so no hand-off is missed.
        self._scheduled = False
        self._schedule = schedule
        self.tracer = Tracer(max_spans=config.max_spans)
        self.registry = MetricsRegistry()
        self._journal_error: Optional[str] = None
        self._offer_lock = threading.Lock()
        self.final_payload: Optional[dict] = None
        self.events_rejected = 0
        #: The checked events, in check order, for the drain-time
        #: reclassification — dropped once they overflow
        #: ``retain_events``.
        self._retained: Optional[List[tuple]] = (
            [] if config.retain_events > 0 else None)
        #: The S14 driver (DESIGN.md S14): with ``config.state_dir``,
        #: every accepted event is journaled to the tenant's segment
        #: store before it is acknowledged, the checker is checkpointed
        #: every ``config.checkpoint_every`` checked events, and this
        #: constructor restores the newest checkpoint and replays the
        #: journal's tail — on the constructing thread, before anything
        #: can be offered, so a recovered verdict is queryable by the
        #: time the tenant is reachable.
        with use_tracer(self.tracer), use_metrics(self.registry):
            self.persistent = PersistentCheck(
                (tenant_store_path(config.state_dir, name)
                 if config.state_dir else None),
                checkpoint_every=config.checkpoint_every,
                store_kwargs={"meta": {
                    "tenant": name,
                    "sessions": (sorted(self.sessions)
                                 if self.sessions is not None else None),
                }},
                on_batch=self._retain,
                solve_every=config.solve_every,
                window=window,
                sessions=self.sessions if window is not None else None,
            )
        # Resuming past a checkpoint skips the log prefix, so retention
        # (best-effort explanation state) restarts truncated.
        if self.persistent.resumed_from:
            self._retained = None
        self.retention_truncated = self._retained is None
        # The router re-targets ``self.window`` in place when the global
        # budget is re-divided: it must be the policy the checker
        # consults, which a restored checker rebuilt.
        self.window = self.persistent.checker.window
        #: Latest verdict snapshot, replaced (never mutated) by the
        #: worker after each batch — HTTP readers take the reference
        #: without locking.
        self.latest = self.persistent.latest
        self.registry.gauge("tenant.events").set(self.events_seen)
        #: Called (from the checker thread) at the end of a batch if
        #: ``space_wanted`` — which the event loop sets before it parks
        #: a TCP producer on a full queue — so it can wake them.
        self.on_space: Optional[Callable[[], None]] = None
        self.space_wanted = False
        #: Set (before the finish marker is queued) once a drain has
        #: started: every later ``offer`` raises instead of slipping an
        #: event behind the marker, where it would be acknowledged but
        #: never checked.
        self.draining = False
        self._finish_queued = False
        #: Set last of all, after the store is closed (lock released).
        self._finished = threading.Event()

    @property
    def events_seen(self) -> int:
        """Events checked (recovered ones included)."""
        return self.persistent.events

    # -- ingestion side (event loop / HTTP handler threads) -----------------

    def offer(self, event: tuple) -> bool:
        """Try to enqueue one event; ``False`` means backpressure.

        A rejected event is *counted* and reported to the producer — it
        is the producer's to resend, so nothing is silently lost (see
        DESIGN.md S13).

        With a state directory, the event is journaled (appended +
        flushed — SIGKILL-durable) before the checker thread can see it
        and before this returns ``True``: no checkpoint describes an
        event the journal lacks, and the producer is never told
        "accepted" about an event a crash could lose.  The offer lock
        pins journal order to queue order, so recovery replays exactly
        the sequence that was checked (DESIGN.md S14).

        ``event`` must have come out of the codec
        (:func:`~repro.histories.codec.event_from_obj`, as both doors
        do): it is journaled without being decoded a second time.
        """
        with self._offer_lock:
            if self.draining or self._finished.is_set():
                raise TenantError(f"tenant {self.name!r} is drained")
            if self._journal_error is not None:
                raise TenantError(f"tenant {self.name!r} journal failed: "
                                  f"{self._journal_error}")
            if len(self._pending) >= self.config.queue_depth:
                self.events_rejected += 1
                self.registry.counter("tenant.rejected").inc()
                return False
            try:
                self.persistent.journal(event, decoded=True)
            except Exception as exc:  # noqa: BLE001 - poison, don't lie
                # Nothing was queued or acknowledged, and the driver has
                # latched the failure as the verdict; refuse what follows
                # instead of a resumable-looking journal missing its tail.
                self._journal_error = str(exc)
                raise TenantError(
                    f"tenant {self.name!r} journal failed: {exc}"
                )
            self._hand_off((event, time.monotonic()))
        return True

    def _hand_off(self, item) -> None:
        """Make ``item`` visible to the checker thread (offer lock held)."""
        self._pending.append(item)
        if not self._scheduled:
            self._scheduled = True
            self._schedule(self)

    def free_slots(self) -> int:
        """Approximate free queue capacity (the TCP credit source)."""
        return max(0, self.config.queue_depth - len(self._pending))

    # -- checker thread -----------------------------------------------------

    def run_batch(self) -> tuple:
        """Check one slice of queued events as one batch (checker thread
        only): up to :data:`~repro.store.resume.BATCH_EVENTS`, cut at the
        finish marker and at the next checkpoint position
        (:meth:`~repro.store.PersistentCheck.slice_limit`).  Returns
        ``(checked, more)``: ``more`` means events are still queued and
        the tenant keeps its place in line; otherwise the next hand-off
        schedules it again."""
        pending = self._pending
        checked = 0
        try:
            with use_tracer(self.tracer), use_metrics(self.registry):
                self.registry.histogram("tenant.queue_wait_s").observe(
                    time.monotonic() - pending[0][1])
                batch, finish = [], False
                limit = self.persistent.slice_limit()
                while pending and len(batch) < limit:
                    event = pending.popleft()[0]
                    if event is _FINISH:
                        finish = True
                        break
                    batch.append(event)
                checked = len(batch)
                if batch:
                    self.latest = self.persistent.check(batch)
                    self.registry.gauge("tenant.events").set(
                        self.events_seen)
                if finish:
                    self._finish()
        except Exception as exc:  # noqa: BLE001 - one tenant's failure
            # Nothing escapes to the thread every tenant shares: latch
            # an error verdict and mark the tenant finished, so offer()
            # rejects and drain() cannot block forever.
            _log.exception("tenant %r crashed; its verdict is latched",
                           self.name)
            self._crash(exc)
        if self.space_wanted and self.on_space is not None:
            self.space_wanted = False
            self.on_space()
        with self._offer_lock:
            self._scheduled = bool(pending)
            return checked, self._scheduled

    def _crash(self, exc: Exception) -> None:
        with self._offer_lock:  # no offer lands between clear and set
            self.latest = ingest_error(f"tenant checker crashed: {exc!r}")
            self.final_payload = self._fallback_payload()
            self._pending.clear()
            self._close()
            self._finished.set()

    def _retain(self, events: List[tuple]) -> None:
        """Keep a checked slice for the drain-time reclassification
        (the driver's ``on_batch``, so replayed slices count too)."""
        if self._retained is None:
            return
        if len(self._retained) + len(events) <= self.config.retain_events:
            self._retained.extend(events)
        else:
            self._retained = None
            self.retention_truncated = True

    def _close(self) -> None:
        try:
            self.persistent.close()
        except Exception:  # noqa: BLE001 - nothing left to protect
            pass

    def _finish(self) -> None:
        try:
            self.persistent.finish()
            result = self.latest = self.persistent.latest
            payload = self._payload_for(result, final=True)
            if (not result.satisfies_si and self.config.explain_on_drain
                    and self._retained is not None
                    and result.decided_by != "ingest-error"):
                payload.update(self._recheck_classification())
        except Exception as exc:  # noqa: BLE001 - drain must return
            self.latest = ingest_error(f"finish failed: {exc}")
            payload = self._fallback_payload()
        self.final_payload = payload
        self._close()
        self._finished.set()

    def _recheck_classification(self) -> dict:
        """Batch re-check of the retained event log, for an anomaly
        classification the online witness cannot always provide.  The
        *verdict* stays the online one; this only adds explanation."""
        from ..api import check as facade_check

        try:
            history = history_from_events(self._retained)
            report = facade_check(history, trace=False)
        except Exception as exc:  # noqa: BLE001 - explanation is optional
            return {"recheck_error": str(exc)}
        out: dict = {"recheck_verdict": report.verdict}
        example = report.counterexample
        if example is not None:
            out["classification"] = example.classification
        return out

    # -- drain --------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> dict:
        """Flush the queue, finish the checker, return the final verdict
        payload.  Blocking — never call it from the checker thread.

        ``draining`` flips *before* the finish marker is queued, so no
        producer can slip an event behind the marker (it would be
        acknowledged but never checked).  Returns once the tenant is
        *finished* — final payload latched (a crashed tenant's is its
        error verdict) and the store closed, its lock released — or
        raises :class:`TimeoutError` after ``timeout`` seconds.
        """
        self.draining = True
        with self._offer_lock:
            if not self._finish_queued and not self._finished.is_set():
                self._finish_queued = True
                self._hand_off((_FINISH, time.monotonic()))
        if not self._finished.wait(timeout):
            raise TimeoutError(f"tenant {self.name!r} still draining "
                               f"after {timeout} s")
        return self.final_payload

    @property
    def drained(self) -> bool:
        return self._finished.is_set()

    # -- verdict surface ----------------------------------------------------

    def _fallback_payload(self) -> dict:
        """A final payload that cannot itself raise (crash paths)."""
        try:
            return self._payload_for(self.latest, final=True)
        except Exception as exc:  # noqa: BLE001 - last resort
            return {
                "tenant": self.name,
                "final": True,
                "events": self.events_seen,
                "rejected": self.events_rejected,
                "error": f"verdict adaptation failed: {exc}",
            }

    def verdict_payload(self) -> dict:
        """The tenant's current verdict as a JSON-shaped dict (final if
        drained, provisional otherwise)."""
        if self.final_payload is not None:
            return self.final_payload
        return self._payload_for(self.latest, final=False)

    def _payload_for(self, result, *, final: bool) -> dict:
        report = adapt_result(result, isolation="si", mode="online",
                              engine="polysi")
        body = report.to_dict()
        persistent = self.persistent
        payload = {
            "tenant": self.name,
            "final": final,
            "events": self.events_seen,
            "rejected": self.events_rejected,
            "timestamped_fraction": (
                round(persistent.stamped_seen / persistent.committed_seen, 6)
                if persistent.committed_seen else 0.0
            ),
            "retention_truncated": self.retention_truncated,
            "report": body,
        }
        persistence = persistent.persistence()
        if persistence is not None:
            payload["persistence"] = persistence
        if not report.ok:
            example = report.counterexample
            if example is not None:
                payload["classification"] = example.classification
        return payload

    def snapshot(self) -> dict:
        """Live stats block for ``/stats`` (no verdict adaptation)."""
        stats = dict(self.latest.stats)
        out = {
            "tenant": self.name,
            "events": self.events_seen,
            "rejected": self.events_rejected,
            "queue_depth": len(self._pending),
            "drained": self.drained,
            "window_share": (self.window.max_live
                             if self.window is not None else None),
            "live": stats.get("live", 0),
            "window": stats.get("window", {}),
            "satisfies_si": self.latest.satisfies_si,
        }
        persistence = self.persistent.persistence()
        if persistence is not None:
            for key in ("journaled_events", "checkpoints_written",
                        "recovered_events"):
                out[key] = persistence[key]
        return out


class SessionRouter:
    """Tenant table + global live-transaction budget + the service's
    one checker thread.

    One thread, because checking is pure Python: under the interpreter
    lock a thread per tenant bought no parallelism and paid a lock
    hand-off per event (two checker threads measured slower than one).
    The trade is head-of-line: a slow solve in one tenant delays the
    other tenants' *verdicts* — never ingestion, acknowledgements,
    backpressure accounting or the HTTP API, which stay on the event
    loop.  ``metrics`` receives the ``service.batch_events`` histogram.
    """

    def __init__(self, config: ServiceConfig,
                 metrics: Optional[MetricsRegistry] = None):
        self.config = config
        self._tenants: Dict[str, TenantChecker] = {}
        self._lock = threading.Lock()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        #: Tenants with queued events, in the order they take their turn.
        self._ready: deque = deque()
        self._wake = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def _schedule(self, tenant: TenantChecker) -> None:
        """Put ``tenant`` at the end of the line (starting the checker
        thread if none is running)."""
        with self._wake:
            self._ready.append(tenant)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._check_ready, name="repro-checker",
                    daemon=True)
                self._thread.start()
            self._wake.notify()

    def _check_ready(self) -> None:
        """The checker thread: ready tenants round-robin, one bounded
        batch each; exits once :meth:`close` was called and no tenant
        is ready."""
        batch_events = self._metrics.histogram("service.batch_events")
        while True:
            with self._wake:
                while not self._ready:
                    if self._closed:
                        self._thread = None
                        return
                    self._wake.wait()
                tenant = self._ready.popleft()
            checked, more = tenant.run_batch()
            batch_events.observe(checked)
            if more:
                self._ready.append(tenant)

    def close(self) -> None:
        """Let the checker thread exit once nothing is ready.  Tenants
        scheduled later are still checked (by a thread started for
        them), so closing never strands an acknowledged event."""
        with self._wake:
            self._closed = True
            self._wake.notify()

    def get(self, name: str) -> Optional[TenantChecker]:
        with self._lock:
            return self._tenants.get(name)

    def get_or_create(self, name: str,
                      sessions: Optional[Iterable[int]] = None
                      ) -> TenantChecker:
        """Resolve (or register) tenant ``name``.

        Declaring ``sessions`` opts the tenant into windowed eviction;
        its window share comes out of the global budget, and every
        windowed tenant's share is re-targeted when the tenant count
        changes.  A tenant without a declared session universe runs
        unwindowed (eviction would be unsound — see
        :class:`~repro.online.OnlineChecker`).
        """
        if not _TENANT_NAME.match(name or "") or name in (".", ".."):
            raise TenantError(
                f"bad tenant name {name!r} (want [A-Za-z0-9._-]{{1,64}})"
            )
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                if sessions is not None:
                    if tenant.sessions is None:
                        raise TenantError(
                            f"tenant {name!r} already exists unwindowed "
                            "(created without a session universe); "
                            "declaring sessions now cannot retroactively "
                            "bound its memory — drain it first, or "
                            "declare sessions on first contact"
                        )
                    if not set(sessions) <= tenant.sessions:
                        raise TenantError(
                            f"tenant {name!r} already declared sessions "
                            f"{sorted(tenant.sessions)}; cannot widen "
                            "them mid-stream (eviction decisions assumed "
                            "the original universe)"
                        )
                return tenant
            window = None
            if sessions is not None:
                window = WindowPolicy(max_live=self.config.max_live_total)
            tenant = TenantChecker(name, self.config, self._schedule,
                                   sessions=sessions, window=window)
            self._tenants[name] = tenant
            self._rebalance_locked()
            return tenant

    def _rebalance_locked(self) -> None:
        """Re-divide ``max_live_total`` across windowed tenants (the
        policies are re-targeted in place; the checkers consult them on
        every add)."""
        windowed = [t for t in self._tenants.values()
                    if t.window is not None and not t.drained]
        if not windowed:
            return
        share = max(self.config.min_live_share,
                    self.config.max_live_total // len(windowed))
        for tenant in windowed:
            tenant.window.max_live = share

    def tenants(self) -> List[TenantChecker]:
        with self._lock:
            return list(self._tenants.values())

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def drain_all(self, timeout: Optional[float] = None) -> Dict[str, dict]:
        """Drain every tenant (flush queues, finish checkers, close
        stores); returns final verdict payloads by tenant.  Blocking."""
        tenants = self.tenants()
        # Flip every tenant's draining flag before flushing any of them,
        # so no producer can sneak an event into tenant B's queue while
        # tenant A is still flushing.
        for tenant in tenants:
            tenant.draining = True
        verdicts = {}
        for tenant in tenants:
            verdicts[tenant.name] = tenant.drain(timeout=timeout)
        with self._lock:
            self._rebalance_locked()
        self.close()
        return verdicts

    def totals(self) -> dict:
        """Aggregate live/eviction counters for ``/stats`` and gauges."""
        live = evicted = events = rejected = 0
        for tenant in self.tenants():
            stats = tenant.latest.stats
            live += stats.get("live", 0)
            evicted += stats.get("window", {}).get("evicted", 0)
            events += tenant.events_seen
            rejected += tenant.events_rejected
        return {"live": live, "evicted": evicted, "events": events,
                "rejected": rejected, "tenants": len(self.tenants())}
