"""The checking daemon: ingestion front door + verdict API.

:class:`ReproService` is one asyncio process serving two listeners:

- a **TCP ingestion port** speaking the ``repro-events/1`` line
  protocol with *credit-based* backpressure: a collector's hello names
  its tenant (and optionally its session universe), the server grants
  event credit proportional to the tenant's free queue slots, and a
  full queue withholds credit — the producer stalls instead of the
  server buffering without bound;
- an **HTTP port** serving both ingestion (``POST /ingest/<tenant>``,
  answering **429** with accepted/rejected counts when the tenant queue
  fills — the producer resends the rejected suffix) and the query API:
  per-tenant façade ``Report`` verdicts, live stats, a Prometheus-style
  ``/metrics`` endpoint, health/readiness, per-tenant Chrome-trace
  snapshots, and graceful drain.

Checking itself runs on the service's one checker thread
(:class:`~repro.service.tenants.SessionRouter`), which takes batches of
events off the tenants' bounded queues, so the event loop only parses,
routes, and applies backpressure.  See ``docs/service.md`` for the wire
contract and DESIGN.md S13 for why the reject/stall discipline never
weakens a verdict.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
from typing import Dict, Optional

from ..histories.codec import EVENTS_SCHEMA, event_from_obj
from ..obs import (
    MetricsRegistry,
    chrome_trace_events,
    prometheus_text,
    publish_collector_passes,
)
from .config import ServiceConfig
from .http import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    text_response,
    write_response,
)
from .tenants import SessionRouter, TenantError

__all__ = ["ReproService", "ServiceHandle"]


def _parse_sessions(raw) -> Optional[range]:
    """Normalize a hello/query session declaration: an int is a session
    count (``range(n)``), a list is the explicit universe."""
    if raw is None:
        return None
    if isinstance(raw, bool):
        raise TenantError(f"bad sessions declaration: {raw!r}")
    if isinstance(raw, int):
        if raw < 1:
            raise TenantError(f"bad session count: {raw}")
        return range(raw)
    if isinstance(raw, list) and all(
            isinstance(s, int) and not isinstance(s, bool) for s in raw):
        return raw
    raise TenantError(f"bad sessions declaration: {raw!r}")


class ReproService:
    """One checking-as-a-service daemon instance."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.router = SessionRouter(self.config, self.metrics)
        self.draining = False
        self.final_verdicts: Optional[Dict[str, dict]] = None
        self.http_port: Optional[int] = None
        self.tcp_port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._space_events: Dict[str, asyncio.Event] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners; ports land on ``http_port``/``tcp_port``.

        With ``config.state_dir`` set, every journaled tenant is
        recovered *first* — checkpoint restored, log tail replayed — so
        no listener accepts an event before all recovered verdicts are
        queryable again."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self.config.state_dir:
            self._recover_tenants()
        self._http_server = await asyncio.start_server(
            self._handle_http, self.config.host, self.config.http_port,
            limit=self.config.max_line_bytes,
        )
        self.http_port = self._http_server.sockets[0].getsockname()[1]
        if self.config.tcp_port is not None:
            self._tcp_server = await asyncio.start_server(
                self._handle_tcp, self.config.host, self.config.tcp_port,
                limit=self.config.max_line_bytes,
            )
            self.tcp_port = self._tcp_server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Close the listening servers, wait for them to finish, and
        let the checker thread go once it has nothing left to check."""
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self.router.close()

    async def serve_forever(self, on_ready=None) -> None:
        """Start, install signal handlers where possible, and serve
        until :meth:`request_shutdown` — then drain and close.
        ``on_ready(service)`` is called once the listeners are bound."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        with contextlib.suppress(NotImplementedError, RuntimeError,
                                 ValueError):
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(sig, self._shutdown.set)
        try:
            await self._shutdown.wait()
            await self.drain()
        finally:
            await self.aclose()

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (drain runs before close)."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    async def drain(self) -> Dict[str, dict]:
        """Graceful drain: refuse new events, flush every tenant queue,
        finish every checker, and latch the final verdicts (still
        queryable afterwards)."""
        self.draining = True
        self.metrics.gauge("service.draining").set(1)
        loop = asyncio.get_running_loop()
        verdicts = await loop.run_in_executor(None, self.router.drain_all)
        self.final_verdicts = verdicts
        return verdicts

    def drain_sync(self) -> Dict[str, dict]:
        """Blocking drain for callers outside the event loop (tests,
        the in-thread handle)."""
        self.draining = True
        self.metrics.gauge("service.draining").set(1)
        verdicts = self.router.drain_all()
        self.final_verdicts = verdicts
        return verdicts

    def start_in_thread(self, timeout: float = 10.0) -> "ServiceHandle":
        """Run the daemon on a background thread; returns once the
        listeners are bound.  The test/benchmark entry point."""
        ready = threading.Event()
        failure: list = []

        async def _main():
            try:
                await self.start()
            except Exception as exc:  # noqa: BLE001 - surfaced to caller
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                await self._shutdown.wait()
            finally:
                await self.aclose()

        thread = threading.Thread(
            target=lambda: asyncio.run(_main()),
            name="repro-service", daemon=True,
        )
        thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if failure:
            raise failure[0]
        return ServiceHandle(self, thread)

    # -- tenant plumbing -----------------------------------------------------

    def _recover_tenants(self) -> None:
        """Re-register every tenant journaled under ``state_dir``.

        Each one's :class:`~repro.service.tenants.TenantChecker`
        restores its newest checkpoint and replays the journal tail in
        its constructor, so a SIGKILLed daemon restarted on the same
        state directory answers ``/verdict/<tenant>`` for all of its
        former tenants without losing a single accepted event
        (DESIGN.md S14).  The declared session universe comes back from
        the store's manifest meta, so windowed tenants recover windowed.
        """
        from ..store.segments import is_store_dir, store_meta
        from .tenants import tenant_store_path

        root = os.path.join(self.config.state_dir, "tenants")
        try:
            names = sorted(os.listdir(root))
        except OSError:
            return
        recovered = 0
        for name in names:
            path = tenant_store_path(self.config.state_dir, name)
            if not is_store_dir(path):
                continue
            sessions = store_meta(path).get("sessions")
            if not (isinstance(sessions, list) and all(
                    isinstance(s, int) and not isinstance(s, bool)
                    for s in sessions)):
                sessions = None
            try:
                self.router.get_or_create(name, sessions)
            except TenantError:
                continue
            recovered += 1
        if recovered:
            self.metrics.counter("service.tenants_recovered").inc(recovered)

    def _resolve_tenant(self, name: str, sessions=None):
        tenant = self.router.get_or_create(name, sessions)
        if tenant.name not in self._space_events and self._loop is not None:
            event = asyncio.Event()
            self._space_events[tenant.name] = event
            loop = self._loop

            def wake(loop=loop, event=event):
                # A batch may end during/after daemon shutdown; a
                # closed loop just means nobody is left to wake.
                self.metrics.counter("service.loop_wakeups").inc()
                with contextlib.suppress(RuntimeError):
                    loop.call_soon_threadsafe(event.set)

            tenant.on_space = wake
        self.metrics.gauge("service.tenants").set(
            len(self.router.tenants()))
        return tenant

    async def _wait_for_space(self, tenant) -> None:
        """Park until a batch of the tenant's events has been checked
        (with a short timeout fallback covering the clear/set race)."""
        self.metrics.counter("service.backpressure_waits").inc()
        event = self._space_events.get(tenant.name)
        if event is None:
            await asyncio.sleep(0.01)
            return
        event.clear()
        # Ask before looking: a batch that ends after this line wakes
        # us, one that ended before it shows up in free_slots().
        tenant.space_wanted = True
        if tenant.free_slots() > 0:
            return
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(event.wait(), timeout=0.25)

    def _credit(self, tenant) -> int:
        return max(0, min(tenant.free_slots(), self.config.credit_cap))

    # -- TCP ingestion (credit protocol) -------------------------------------

    async def _handle_tcp(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            await self._tcp_connection(reader, writer)
        except asyncio.CancelledError:
            # Daemon shutdown while the connection was open.  End the
            # handler normally: 3.11's stream wrapper logs cancelled
            # handler tasks as callback errors.
            pass

    async def _tcp_connection(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        self.metrics.counter("service.connections").inc()

        def reply(payload: dict) -> None:
            writer.write(
                (json.dumps(payload, separators=(",", ":")) + "\n").encode()
            )

        async def read_line() -> Optional[bytes]:
            """One protocol line; ``None`` means an over-limit line was
            already answered with an error (caller closes)."""
            try:
                return await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                reply({"ok": False, "error":
                       f"line exceeds {self.config.max_line_bytes} bytes"})
                await writer.drain()
                return None

        accepted = 0
        rejected = 0
        try:
            hello_line = await read_line()
            if not hello_line:
                return
            try:
                hello = json.loads(hello_line)
                if not isinstance(hello, dict):
                    raise ValueError("hello must be a JSON object")
                if hello.get("hello") != EVENTS_SCHEMA:
                    raise ValueError(
                        f"unsupported protocol {hello.get('hello')!r}; "
                        f"this server speaks {EVENTS_SCHEMA}"
                    )
                tenant = self._resolve_tenant(
                    hello.get("tenant", "default"),
                    _parse_sessions(hello.get("sessions")),
                )
            except (ValueError, TenantError) as exc:
                reply({"ok": False, "error": str(exc)})
                await writer.drain()
                return
            reply({"ok": True, "tenant": tenant.name,
                   "credit": self._credit(tenant)})
            await writer.drain()
            while True:
                line = await read_line()
                if not line:
                    break
                text = line.strip()
                if not text:
                    continue
                try:
                    data = json.loads(text)
                    if not isinstance(data, dict):
                        raise ValueError("event line must be a JSON object")
                except ValueError as exc:
                    reply({"ok": False, "error": str(exc)})
                    await writer.drain()
                    return
                if "op" in data:
                    op = data["op"]
                    if op == "credit":
                        # Withhold the grant until at least one slot is
                        # free: this await IS the backpressure.
                        while (self._credit(tenant) == 0
                               and not self.draining):
                            await self._wait_for_space(tenant)
                        reply({"credit": self._credit(tenant)})
                    elif op == "end":
                        # Both counts are this connection's, not the
                        # tenant's — collectors sharing a tenant must
                        # not see each other's backpressure.
                        reply({"ok": True, "accepted": accepted,
                               "rejected": rejected})
                    else:
                        reply({"ok": False, "error": f"unknown op {op!r}"})
                    await writer.drain()
                    continue
                if self.draining:
                    reply({"ok": False, "error": "draining"})
                    await writer.drain()
                    return
                try:
                    event = event_from_obj(data)
                except ValueError as exc:
                    reply({"ok": False, "error": str(exc)})
                    await writer.drain()
                    return
                try:
                    while not tenant.offer(event):
                        rejected += 1
                        if self.draining:
                            reply({"ok": False, "error": "draining"})
                            await writer.drain()
                            return
                        await self._wait_for_space(tenant)
                except TenantError as exc:
                    reply({"ok": False, "error": str(exc)})
                    await writer.drain()
                    return
                accepted += 1
                self.metrics.counter("service.events_ingested").inc()
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    # -- HTTP API ------------------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            await self._http_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # see _handle_tcp

    async def _http_connection(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    json_response(writer, 400, {"error": str(exc)},
                                  keep_alive=False)
                    await writer.drain()
                    return
                if request is None:
                    return
                self.metrics.counter("service.http_requests").inc()
                try:
                    keep = await self._dispatch(request, writer)
                except (HttpError, TenantError, ValueError) as exc:
                    json_response(writer, 400, {"error": str(exc)},
                                  keep_alive=False)
                    keep = False
                await writer.drain()
                if not keep or not request.keep_alive:
                    return
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        if method == "GET":
            if path == "/healthz":
                json_response(writer, 200, {"status": "ok"})
                return True
            if path == "/readyz":
                ready = not self.draining
                json_response(writer, 200 if ready else 503,
                              {"ready": ready, "draining": self.draining})
                return True
            if path == "/metrics":
                text_response(writer, 200, self._metrics_text(),
                              content_type="text/plain; version=0.0.4; "
                                           "charset=utf-8")
                return True
            if path == "/stats":
                json_response(writer, 200, self._stats_payload())
                return True
            if path == "/tenants":
                json_response(writer, 200, {"tenants": self.router.names()})
                return True
            if path == "/verdicts":
                self.metrics.counter("service.verdicts_served").inc()
                json_response(writer, 200, {
                    tenant.name: tenant.verdict_payload()
                    for tenant in self.router.tenants()
                })
                return True
            if len(parts) == 2 and parts[0] == "verdict":
                tenant = self.router.get(parts[1])
                if tenant is None:
                    json_response(writer, 404,
                                  {"error": f"unknown tenant {parts[1]!r}"})
                    return True
                self.metrics.counter("service.verdicts_served").inc()
                json_response(writer, 200, tenant.verdict_payload())
                return True
            if len(parts) == 2 and parts[0] == "trace":
                tenant = self.router.get(parts[1])
                if tenant is None:
                    json_response(writer, 404,
                                  {"error": f"unknown tenant {parts[1]!r}"})
                    return True
                json_response(writer, 200, self._trace_document(tenant))
                return True
            json_response(writer, 404, {"error": f"no route {path!r}"})
            return True
        if method == "POST":
            if len(parts) == 2 and parts[0] == "ingest":
                return await self._http_ingest(request, writer, parts[1])
            if path == "/drain":
                verdicts = await self.drain()
                json_response(writer, 200, {"drained": True,
                                            "verdicts": verdicts})
                return True
            if path == "/shutdown":
                verdicts = (self.final_verdicts
                            if self.final_verdicts is not None
                            else await self.drain())
                json_response(writer, 200, {"shutting_down": True,
                                            "verdicts": verdicts},
                              keep_alive=False)
                await writer.drain()
                self._shutdown.set()
                return False
            json_response(writer, 404, {"error": f"no route {path!r}"})
            return True
        write_response(writer, 405, b'{"error": "method not allowed"}\n')
        return True

    async def _http_ingest(self, request: HttpRequest,
                           writer: asyncio.StreamWriter,
                           tenant_name: str) -> bool:
        """``POST /ingest/<tenant>``: a JSONL event batch.

        Events are accepted in order until the tenant queue fills; the
        first rejection stops the batch (accepting later events would
        reorder the stream on resend) and the reply is a **429** naming
        the accepted prefix — the client resends from there.
        """
        if self.draining:
            json_response(writer, 503, {"error": "draining"})
            return True
        raw_sessions = request.query.get("sessions")
        sessions = None
        if raw_sessions is not None:
            try:
                sessions = _parse_sessions(
                    int(raw_sessions) if "," not in raw_sessions
                    else [int(s) for s in raw_sessions.split(",") if s]
                )
            except ValueError:
                raise HttpError(f"bad sessions query {raw_sessions!r}")
        try:
            lines = request.body.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise HttpError(f"body is not UTF-8: {exc}")
        events = []
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError("event line must be a JSON object")
                events.append(event_from_obj(data))
            except ValueError as exc:
                raise HttpError(str(exc))
        # Resolve the tenant only after the batch parses — a malformed
        # request must not register (or window) anything.
        tenant = self._resolve_tenant(tenant_name, sessions)
        accepted = 0
        try:
            for event in events:
                if not tenant.offer(event):
                    break
                accepted += 1
                self.metrics.counter("service.events_ingested").inc()
        except TenantError as exc:
            # A drain started mid-batch: the accepted prefix is already
            # queued ahead of the finish sentinel (it WILL be checked);
            # the rest is the producer's to keep.
            json_response(writer, 503,
                          {"error": str(exc), "accepted": accepted})
            return True
        rejected = len(events) - accepted
        if rejected:
            self.metrics.counter("service.events_rejected").inc(rejected)
            json_response(writer, 429, {
                "accepted": accepted,
                "rejected": rejected,
                "queue_depth": self.config.queue_depth,
                "retry_after_ms": 50,
            })
        else:
            json_response(writer, 200,
                          {"accepted": accepted, "rejected": 0})
        return True

    # -- observability surfaces ----------------------------------------------

    def _metrics_text(self) -> str:
        totals = self.router.totals()
        self.metrics.gauge("service.tenants").set(totals["tenants"])
        self.metrics.gauge("service.live_total").set(totals["live"])
        self.metrics.gauge("service.evicted_total").set(totals["evicted"])
        publish_collector_passes(self.metrics)
        snapshots = [({}, self.metrics.snapshot())]
        for tenant in self.router.tenants():
            snapshots.append(
                ({"tenant": tenant.name}, tenant.registry.snapshot())
            )
        return prometheus_text(snapshots)

    def _stats_payload(self) -> dict:
        totals = self.router.totals()
        return {
            "draining": self.draining,
            "totals": totals,
            "tenants": [t.snapshot() for t in self.router.tenants()],
            "metrics": self.metrics.snapshot(),
        }

    def _trace_document(self, tenant) -> dict:
        """A live Chrome-trace snapshot of the tenant's span buffer —
        the same document shape :func:`repro.obs.write_chrome_trace`
        puts on disk, so ``load_chrome_trace`` round-trips it."""
        payload = tenant.tracer.payload(
            mode="online", engine="polysi",
            metrics=tenant.registry.snapshot(),
        )
        return {
            "traceEvents": chrome_trace_events(payload),
            "displayTimeUnit": "ms",
            "otherData": {"repro_trace": payload},
        }


class ServiceHandle:
    """A daemon running on a background thread (tests, benchmarks)."""

    def __init__(self, service: ReproService, thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def http_port(self) -> int:
        return self.service.http_port

    @property
    def tcp_port(self) -> Optional[int]:
        return self.service.tcp_port

    def drain(self) -> Dict[str, dict]:
        return self.service.drain_sync()

    def stop(self, timeout: float = 10.0) -> None:
        self.service.request_shutdown()
        self.thread.join(timeout)
