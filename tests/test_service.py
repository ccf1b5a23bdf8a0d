"""Checking-as-a-service daemon (repro.service).

End-to-end coverage of the ingestion daemon: both wire paths (HTTP 429
backpressure, TCP credit backpressure), the per-tenant verdict API, the
multi-tenant differential against the one-shot ``repro.check`` façade
(including under forced window eviction and injected anomalies), the
observability surfaces (Prometheus ``/metrics``, live ``/trace``), and
drain semantics.  Every daemon binds ephemeral ports, so the suite is
parallel-safe.
"""

import json
import threading

import pytest

import repro
from repro.api import adapt_result
from repro.collect import Collector, FaultyAdapter, SQLiteAdapter
from repro.core.history import HistoryBuilder, R, W
from repro.obs import validate_trace
from repro.service import (
    ReproService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    TenantError,
)
from repro.service.client import parse_sink
from repro.workloads.generator import WorkloadParams, generate_workload

from _helpers import report_payload_reference

SMALL = WorkloadParams(
    sessions=4,
    txns_per_session=6,
    ops_per_txn=4,
    keys=12,
    read_proportion=0.5,
    distribution="uniform",
)


def collect_run(seed=0, inject=None, params=SMALL):
    """One SQLite collection (optionally anomaly-injected)."""
    adapter = SQLiteAdapter()
    if inject:
        adapter = FaultyAdapter(adapter, profile=inject, seed=seed)
    spec = generate_workload(params, seed=seed)
    try:
        return Collector(adapter).run(spec)
    finally:
        adapter.close()


@pytest.fixture
def service():
    """Factory fixture: start daemons on ephemeral ports; stop them all
    at teardown."""
    handles = []

    def start(**kwargs):
        kwargs.setdefault("http_port", 0)
        kwargs.setdefault("tcp_port", 0)
        svc = ReproService(ServiceConfig(**kwargs))
        handle = svc.start_in_thread()
        handles.append(handle)
        client = ServiceClient("127.0.0.1", handle.http_port,
                               tcp_port=handle.tcp_port)
        return svc, handle, client

    yield start
    for handle in handles:
        handle.stop()


def _await_checked(client, tenant, events, timeout=5.0):
    """Poll until the tenant's worker has checked ``events`` events (the
    push is acknowledged at enqueue, before the worker runs)."""
    import time

    deadline = time.time() + timeout
    while time.time() < deadline:
        if client.verdict(tenant)["events"] == events:
            return
        time.sleep(0.02)


class TestEndpoints:
    def test_health_and_ready(self, service):
        _, _, client = service()
        assert client.healthz() is True
        ready = client.readyz()
        assert ready == {"ready": True, "draining": False}

    def test_unknown_tenant_is_404(self, service):
        _, _, client = service()
        with pytest.raises(ServiceError, match="404"):
            client.verdict("nope")

    def test_unknown_route_is_404(self, service):
        _, _, client = service()
        status, _ = client._request_json("GET", "/not-a-route")
        assert status == 404

    def test_bad_tenant_name_rejected(self, service):
        _, _, client = service()
        with pytest.raises(ServiceError, match="bad tenant name"):
            client.push_events("a" * 65, [(0, (W("x", 1),), "committed")])

    def test_malformed_event_line_rejected(self, service):
        _, _, client = service()
        status, data = client._request_json(
            "POST", "/ingest/t", b'{"session": 0, "bogus": 1}\n')
        assert status == 400
        assert "bogus" in data["error"]


class TestHttpIngestion:
    def test_clean_run_matches_offline_verdict(self, service):
        _, handle, client = service()
        run = collect_run(seed=1)
        stats = client.push_events("clean", run.iter_events(),
                                   sessions=SMALL.sessions)
        assert stats.sent == stats.accepted == len(run.history)
        verdicts = handle.drain()
        payload = verdicts["clean"]
        offline = repro.check(run.history)
        assert payload["final"] is True
        assert payload["events"] == len(run.history)
        assert payload["report"]["verdict"] == offline.verdict == "satisfied"
        assert 0.0 <= payload["timestamped_fraction"] <= 1.0

    def test_tenants_check_on_the_online_kernel(self, service):
        _, handle, client = service()
        run = collect_run(seed=2)
        client.push_events("k", run.iter_events(), sessions=SMALL.sessions)
        stats = handle.drain()["k"]["report"]["stats"]
        assert stats["closure_backend"] == "numpy"

    def test_backpressure_rejects_are_counted_not_dropped(self, service):
        """A tiny queue forces 429s; the client resends and the verdict
        still matches the offline check — zero loss under backpressure."""
        _, handle, client = service(queue_depth=2)
        run = collect_run(seed=2)
        stats = client.push_events("bp", run.iter_events(),
                                   sessions=SMALL.sessions, batch=16)
        assert stats.rejected_retries > 0
        assert stats.accepted == stats.sent == len(run.history)
        verdicts = handle.drain()
        assert verdicts["bp"]["events"] == len(run.history)
        assert verdicts["bp"]["rejected"] > 0
        assert (verdicts["bp"]["report"]["verdict"]
                == repro.check(run.history).verdict)

    def test_draining_daemon_refuses_ingest(self, service):
        _, handle, client = service()
        client.push_events("t", collect_run(seed=1).iter_events(),
                           sessions=SMALL.sessions)
        handle.drain()
        assert client.readyz() == {"ready": False, "draining": True}
        with pytest.raises(ServiceError, match="503|draining"):
            client.push_events("t2", [(0, (W("x", 1),), "committed")])


class TestVerdictBodies:
    def test_bodies_equal_the_report_json_round_trip(self, service):
        """``/verdict`` and ``/drain`` bodies decode to what they were
        when the daemon round-tripped ``Report.to_json`` through
        ``json.loads``: the reference rule applied to the same result."""
        svc, _, client = service()
        runs = {"clean": collect_run(seed=1),
                "faulty": collect_run(seed=3, inject="lost-update")}
        for name, run in runs.items():
            client.push_events(name, run.iter_events(),
                               sessions=SMALL.sessions)
            _await_checked(client, name, len(run.history))

        def reference(name):
            tenant = svc.router.get(name)
            body = dict(tenant.verdict_payload())
            report = adapt_result(tenant.latest, isolation="si",
                                  mode="online", engine="polysi")
            body["report"] = json.loads(report_payload_reference(report))
            return json.loads(json.dumps(body))

        for name in runs:
            assert client.verdict(name) == reference(name), name
        verdicts = client.drain()
        for name in runs:
            assert verdicts[name]["final"] is True
            assert verdicts[name] == reference(name), name
        assert verdicts["faulty"]["report"]["verdict"] == "violated"


class TestTcpIngestion:
    def test_tcp_matches_offline_verdict(self, service):
        _, handle, client = service()
        run = collect_run(seed=3, inject="stale-reads")
        stats = client.push_events_tcp("tcp", run.iter_events(),
                                       sessions=SMALL.sessions)
        assert stats.accepted == stats.sent == len(run.history)
        verdicts = handle.drain()
        offline = repro.check(run.history)
        assert verdicts["tcp"]["report"]["verdict"] == offline.verdict
        assert offline.verdict == "violated"

    def test_credit_protocol_stalls_instead_of_dropping(self, service):
        _, handle, client = service(queue_depth=2, credit_cap=2)
        run = collect_run(seed=1)
        stats = client.push_events_tcp("credit", run.iter_events(),
                                       sessions=SMALL.sessions)
        assert stats.credit_waits > 0
        assert stats.accepted == stats.sent == len(run.history)
        verdicts = handle.drain()
        assert verdicts["credit"]["report"]["verdict"] == "satisfied"

    def test_bad_hello_is_refused(self, service):
        svc, _, client = service()
        import socket

        with socket.create_connection(("127.0.0.1", svc.tcp_port),
                                      timeout=10) as sock:
            sock.sendall(b'{"hello": "repro-events/999", "tenant": "x"}\n')
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False
        assert "repro-events/1" in reply["error"]


class TestMultiTenantDifferential:
    def test_interleaved_tenants_match_offline_check(self, service):
        """The acceptance differential: concurrent tenants — two clean,
        one anomaly-injected — ingested from interleaved threads reach
        exactly the verdict and classification of the one-shot façade
        check on each tenant's history."""
        _, handle, client = service(queue_depth=8)
        runs = {
            "clean-1": collect_run(seed=1),
            "clean-2": collect_run(seed=2),
            "faulty": collect_run(seed=3, inject="lost-update"),
        }
        errors = []

        def push(name, run):
            try:
                pusher = (client.push_events if name != "clean-2"
                          else client.push_events_tcp)
                stats = pusher(name, run.iter_events(),
                               sessions=SMALL.sessions)
                assert stats.accepted == len(run.history)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        threads = [threading.Thread(target=push, args=item)
                   for item in runs.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        verdicts = handle.drain()
        for name, run in runs.items():
            offline = repro.check(run.history)
            assert verdicts[name]["report"]["verdict"] == offline.verdict, name
            if not offline.ok:
                assert (verdicts[name]["classification"]
                        == offline.counterexample.classification), name

    def test_forced_eviction_same_verdicts(self, service):
        """A tiny global budget forces window eviction; verdicts still
        match the offline check for clean and injected tenants alike."""
        _, handle, client = service(max_live_total=8, min_live_share=4)
        runs = {
            "clean": collect_run(seed=4),
            "faulty": collect_run(seed=4, inject="stale-reads"),
        }
        for name, run in runs.items():
            client.push_events(name, run.iter_events(),
                               sessions=SMALL.sessions)
        verdicts = handle.drain()
        evicted = sum(
            v["report"]["stats"].get("window", {}).get("evicted", 0)
            for v in verdicts.values()
        )
        assert evicted > 0, "budget was meant to force eviction"
        for name, run in runs.items():
            assert (verdicts[name]["report"]["verdict"]
                    == repro.check(run.history).verdict), name

    def test_global_budget_rebalances_across_tenants(self, service):
        svc, _, client = service(max_live_total=64, min_live_share=4)
        for name in ("a", "b", "c", "d"):
            client.push_events(name, [(0, (W(f"{name}-x", 1),), "committed")],
                               sessions=2)
        tenants = svc.router.tenants()
        assert len(tenants) == 4
        assert all(t.window.max_live == 64 // 4 for t in tenants)

    def test_undeclared_session_latches_error_verdict(self, service):
        """Under a declared universe, an off-universe session is an
        ingest error: the verdict latches violated/ingest-error instead
        of unsoundly checking a partial stream."""
        import time

        _, handle, client = service()
        client.push_events("t", [(7, (W("x", 1),), "committed")], sessions=2)
        deadline = time.time() + 5
        while time.time() < deadline:
            payload = client.verdict("t")
            if payload["report"]["decided_by"] == "ingest-error":
                break
            time.sleep(0.02)
        assert payload["report"]["decided_by"] == "ingest-error"
        assert payload["report"]["verdict"] == "violated"

    def test_session_universe_cannot_widen(self, service):
        svc, _, _ = service()
        svc.router.get_or_create("t", range(2))
        with pytest.raises(TenantError, match="cannot widen"):
            svc.router.get_or_create("t", range(4))


class TestObservability:
    def test_metrics_endpoint_is_prometheus_text(self, service):
        _, _, client = service()
        run = collect_run(seed=1)
        client.push_events("alpha", run.iter_events(),
                           sessions=SMALL.sessions)
        # Per-tenant series appear once the tenant worker has run.
        _await_checked(client, "alpha", len(run.history))
        text = client.metrics_text()
        assert "# TYPE repro_service_http_requests counter" in text
        assert "repro_service_events_ingested" in text
        # Per-tenant series carry a tenant label.
        assert 'tenant="alpha"' in text

    def test_metrics_publish_collector_passes_that_only_grow(self, service):
        import gc

        def passes(text):
            found = {}
            for line in text.splitlines():
                if line.startswith("repro_gc_passes_gen"):
                    name, value = line.split()
                    found[name] = int(value)
            return found

        _, _, client = service()
        text = client.metrics_text()
        for generation in range(3):
            assert (f"# TYPE repro_gc_passes_gen{generation} gauge"
                    in text)
        before = passes(text)
        assert sorted(before) == [f"repro_gc_passes_gen{g}"
                                  for g in range(3)]
        client.push_events("grow", [(0, (W("x", 1),), "committed")],
                           sessions=2)
        for generation in range(3):
            gc.collect(generation)
        after = passes(client.metrics_text())
        assert set(after) == set(before)
        assert all(after[name] > before[name] for name in before)
        again = passes(client.metrics_text())
        assert all(again[name] >= after[name] for name in after)

    def test_trace_endpoint_serves_live_chrome_trace(self, service):
        _, _, client = service()
        run = collect_run(seed=1)
        client.push_events("traced", run.iter_events(),
                           sessions=SMALL.sessions)
        _await_checked(client, "traced", len(run.history))
        document = client.trace("traced")
        assert document["traceEvents"], "expected live spans"
        payload = document["otherData"]["repro_trace"]
        validate_trace(payload)
        names = {span["name"] for span in payload["spans"]}
        assert "event" in names

    def test_stats_endpoint(self, service):
        _, _, client = service()
        client.push_events("s", [(0, (W("x", 1),), "committed")], sessions=2)
        stats = client.stats()
        assert stats["draining"] is False
        assert stats["totals"]["tenants"] == 1
        assert [t["tenant"] for t in stats["tenants"]] == ["s"]
        assert client.tenants() == ["s"]


class TestDrain:
    def test_drain_is_idempotent(self, service):
        _, handle, client = service()
        client.push_events("t", collect_run(seed=1).iter_events(),
                           sessions=SMALL.sessions)
        first = handle.drain()
        second = client.drain()
        assert first["t"]["events"] == second["t"]["events"]
        assert second["t"]["final"] is True

    def test_verdicts_remain_queryable_after_drain(self, service):
        _, handle, client = service()
        client.push_events("t", collect_run(seed=1).iter_events(),
                           sessions=SMALL.sessions)
        handle.drain()
        payload = client.verdict("t")
        assert payload["final"] is True
        assert client.verdicts()["t"]["final"] is True


class TestSinkUrls:
    def test_parse_sink(self):
        assert parse_sink("http://localhost:8790") == \
            ("http", "localhost", 8790)
        assert parse_sink("tcp://10.0.0.1:9000") == ("tcp", "10.0.0.1", 9000)

    @pytest.mark.parametrize("url", [
        "ftp://x:1", "http://nope", "localhost:8790", "tcp://:x",
    ])
    def test_bad_sink_urls(self, url):
        with pytest.raises(ServiceError, match="bad sink URL"):
            parse_sink(url)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"queue_depth": 0},
        {"max_live_total": 1},
        {"min_live_share": 1},
        {"solve_every": 0},
        {"credit_cap": 0},
        {"retain_events": -1},
        {"max_line_bytes": 100},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestHardening:
    """Regressions for the malformed-input / drain-race review findings:
    nothing a client sends may kill a tenant worker, wedge drain, or
    slip an acknowledged-but-unchecked event behind a drain."""

    def test_unhashable_op_key_is_a_protocol_error_not_a_wedge(self, service):
        """A JSON-array op key used to raise TypeError inside the worker
        (killing it, deadlocking drain); now the codec rejects the line
        and the daemon keeps serving."""
        _, handle, client = service()
        status, data = client._request_json(
            "POST", "/ingest/t",
            b'{"session": 0, "status": "committed", '
            b'"ops": [["w", ["k"], 1]]}\n')
        assert status == 400
        assert "JSON scalar" in data["error"]
        client.push_events("t", [(0, (W("x", 1),), "committed")], sessions=2)
        verdicts = handle.drain()  # must not hang
        assert verdicts["t"]["final"] is True
        assert verdicts["t"]["events"] == 1

    def test_worker_crash_latches_error_instead_of_hanging_drain(self,
                                                                 service):
        """If the checker ever raises something other than ValueError,
        the worker latches an error verdict and drain still returns."""
        import time

        svc, handle, client = service()
        client.push_events("t", [(0, (W("x", 1),), "committed")], sessions=2)
        tenant = svc.router.get("t")

        def boom(*args, **kwargs):
            raise TypeError("unhashable type: 'list'")

        tenant.persistent.checker.extend = boom
        client.push_events("t", [(1, (W("y", 1),), "committed")])
        deadline = time.time() + 5
        while time.time() < deadline:
            if client.verdict("t")["report"]["decided_by"] == "ingest-error":
                break
            time.sleep(0.02)
        assert client.verdict("t")["report"]["decided_by"] == "ingest-error"
        verdicts = handle.drain()  # must not hang on the poisoned tenant
        assert verdicts["t"]["report"]["verdict"] == "violated"

    def test_ingest_error_stays_the_verdict_before_drain(self, service):
        """A duplicate value poisons the stream: a clean event checked
        after it must not turn the provisional verdict back into
        ``satisfied``."""
        _, handle, client = service()
        client.push_events("t", [(0, (W("x", 1),), "committed"),
                                 (1, (W("x", 1),), "committed")], sessions=2)
        _await_checked(client, "t", 2)
        assert client.verdict("t")["report"]["decided_by"] == "ingest-error"
        client.push_events("t", [(0, (W("y", 1),), "committed")])
        _await_checked(client, "t", 3)
        verdict = client.verdict("t")
        assert verdict["events"] == 3
        assert verdict["final"] is False
        assert verdict["report"]["decided_by"] == "ingest-error"
        assert verdict["report"]["verdict"] == "violated"
        assert handle.drain()["t"]["report"]["decided_by"] == "ingest-error"

    def test_offer_after_drain_flag_raises(self, service):
        """The drain flag flips before the finish sentinel is enqueued,
        so no event can be acknowledged and then skipped (S13)."""
        svc, _, _ = service()
        tenant = svc.router.get_or_create("t", range(2))
        tenant.draining = True
        with pytest.raises(TenantError, match="drained"):
            tenant.offer((0, (W("x", 1),), "committed"))

    def test_oversized_http_line_is_a_400(self, service):
        _, _, client = service(max_line_bytes=2048)
        status, data = client._request_json(
            "GET", "/healthz?pad=" + "x" * 8192)
        assert status == 400
        assert "too long" in data["error"]

    def test_oversized_tcp_line_is_a_protocol_error(self, service):
        import socket

        svc, _, _ = service(max_line_bytes=2048)
        with socket.create_connection(("127.0.0.1", svc.tcp_port),
                                      timeout=10) as sock:
            sock.sendall(b"x" * 8192 + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False
        assert "exceeds" in reply["error"]

    def test_tcp_end_reply_rejected_is_per_connection(self, service):
        """A collector's end reply must not leak other producers'
        backpressure: tenant-wide rejects stay out of it."""
        import socket

        svc, _, client = service(queue_depth=2)
        run = collect_run(seed=2)
        stats = client.push_events("shared", run.iter_events(),
                                   sessions=SMALL.sessions, batch=16)
        assert stats.rejected_retries > 0  # tenant-wide counter is hot
        with socket.create_connection(("127.0.0.1", svc.tcp_port),
                                      timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b'{"hello": "repro-events/1", '
                         b'"tenant": "shared"}\n')
            assert json.loads(rfile.readline())["ok"] is True
            sock.sendall(b'{"op": "end"}\n')
            reply = json.loads(rfile.readline())
        assert reply == {"ok": True, "accepted": 0, "rejected": 0}

    def test_sessions_for_existing_unwindowed_tenant_is_an_error(self,
                                                                 service):
        """Windowing cannot be bolted on after events were absorbed
        unwindowed — the declaration must error, not silently no-op."""
        svc, _, client = service()
        client.push_events("t", [(0, (W("x", 1),), "committed")])
        with pytest.raises(TenantError, match="unwindowed"):
            svc.router.get_or_create("t", range(2))
        status, data = client._request_json(
            "POST", "/ingest/t?sessions=2",
            b'{"session": 0, "status": "committed", '
            b'"ops": [["w", "x", 2]]}\n')
        assert status == 400
        assert "unwindowed" in data["error"]


def test_retention_truncation_is_flagged(service):
    """When the retained event log overflows, the payload says so
    honestly instead of silently re-checking a partial history."""
    _, handle, client = service(retain_events=4)
    run = collect_run(seed=1)
    client.push_events("t", run.iter_events(), sessions=SMALL.sessions)
    verdicts = handle.drain()
    assert verdicts["t"]["retention_truncated"] is True


def test_handmade_anomaly_over_the_wire(service):
    """A hand-built lost-update history pushed over the wire violates,
    with the same classification as the offline facade check."""
    b = HistoryBuilder()
    b.txn(0, [W("x", 1)])
    b.txn(1, [R("x", 1), W("x", 2)])
    b.txn(2, [R("x", 1), W("x", 3)])
    history = b.build()
    from repro.histories.codec import history_to_events

    _, handle, client = service()
    client.push_events("hand", history_to_events(history))
    verdicts = handle.drain()
    offline = repro.check(history)
    assert verdicts["hand"]["report"]["verdict"] == offline.verdict
    assert offline.verdict == "violated"
    assert (verdicts["hand"]["classification"]
            == offline.counterexample.classification)
