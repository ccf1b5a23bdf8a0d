"""Service-layer persistence: per-tenant journals, checkpoints, and
daemon recovery (``repro serve --state-dir``).

The contract under test: an event is acknowledged only after it is in
the tenant's journal, so a daemon killed with SIGKILL loses no accepted
event — a restart on the same state directory recovers every tenant's
verdict (restoring the newest checkpoint and replaying the log tail)
without any client resending anything it was acked for.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core.history import R, W
from repro.online import WindowPolicy
from repro.service import ReproService, ServiceClient, ServiceConfig
from repro.service.tenants import SessionRouter
from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.store import PersistentCheck, SegmentStore, StoreLocked
from repro.workloads.generator import WorkloadParams, generate_workload


def clean_events(n, *, start=0, sessions=3):
    """``n`` committed write-only events on unique keys — trivially SI."""
    return [(i % sessions, (W(f"k{i}", i + 1),), "committed")
            for i in range(start, start + n)]


def violating_events():
    """Session 0 overwrites ``x`` then claims to read the initial
    value: an immediate own-session visibility violation."""
    return [(0, (W("x", 1),), "committed"),
            (0, (R("x", None),), "committed")]


@pytest.fixture
def service(tmp_path):
    """Factory fixture like test_service's, defaulting to a state dir."""
    handles = []
    state_dir = str(tmp_path / "state")

    def start(**kwargs):
        kwargs.setdefault("http_port", 0)
        kwargs.setdefault("tcp_port", None)
        kwargs.setdefault("state_dir", state_dir)
        svc = ReproService(ServiceConfig(**kwargs))
        handle = svc.start_in_thread()
        handles.append(handle)
        client = ServiceClient("127.0.0.1", handle.http_port)
        return svc, handle, client

    start.state_dir = state_dir
    yield start
    for handle in handles:
        if handle.thread.is_alive():
            handle.stop()


class TestTenantPersistence:
    def test_verdict_carries_the_persistence_block(self, service):
        _, handle, client = service(checkpoint_every=5)
        client.push_events("alpha", clean_events(12), sessions=3)
        verdicts = handle.drain()
        alpha = verdicts["alpha"]
        assert alpha["report"]["verdict"] == "satisfied"
        persistence = alpha["persistence"]
        assert persistence["journaled_events"] == 12
        assert persistence["resumed_from"] == 0
        # Periodic checkpoints at 5 and 10, plus the final one at drain.
        assert persistence["checkpoints_written"] == 3
        assert os.path.isdir(os.path.join(service.state_dir, "tenants",
                                          "alpha"))

    def test_store_metrics_carry_the_tenant_label(self, service):
        _, first, client = service(checkpoint_every=5)
        client.push_events("alpha", clean_events(12), sessions=3)
        first.drain()
        text = client.metrics_text()
        assert re.search(r'^repro_store_checkpoints\{tenant="alpha"\} 3\b',
                         text, re.M), text
        assert re.search(r'^repro_store_resumes\{tenant="alpha"\} 1\b',
                         text, re.M), text
        assert "repro_tenant_checkpoints" not in text

    def test_clean_restart_recovers_every_tenant(self, service):
        _, first, client = service(checkpoint_every=5)
        client.push_events("alpha", clean_events(12), sessions=3)
        client.push_events("beta", violating_events())
        verdicts = first.drain()
        assert verdicts["alpha"]["report"]["verdict"] == "satisfied"
        assert verdicts["beta"]["report"]["verdict"] != "satisfied"
        first.stop()

        _, second, client = service(checkpoint_every=5)
        verdicts = client.verdicts()
        assert set(verdicts) == {"alpha", "beta"}
        alpha, beta = verdicts["alpha"], verdicts["beta"]
        assert alpha["report"]["verdict"] == "satisfied"
        assert alpha["events"] == 12
        # The clean drain checkpointed at 12: recovery restores it and
        # replays nothing.
        assert alpha["persistence"]["resumed_from"] == 12
        assert alpha["persistence"]["recovered_events"] == 12
        assert beta["report"]["verdict"] != "satisfied"

        # Recovered tenants keep accepting events.
        client.push_events("alpha", clean_events(6, start=12), sessions=3)
        verdicts = second.drain()
        assert verdicts["alpha"]["events"] == 18
        assert verdicts["alpha"]["report"]["verdict"] == "satisfied"
        assert verdicts["alpha"]["persistence"]["journaled_events"] == 18

    def test_recovered_violation_latches_and_still_rejects_resume_lies(
            self, service):
        _, first, client = service()
        client.push_events("beta", violating_events())
        first.drain()
        first.stop()
        _, _, client = service()
        beta = client.verdict("beta")
        assert beta["report"]["verdict"] != "satisfied"
        assert beta["persistence"]["resumed_from"] == 0  # never checkpointed
        assert beta["persistence"]["recovered_events"] == 2

    def test_live_state_dir_is_locked_against_a_second_daemon(self, service):
        _, _, client = service()
        client.push_events("alpha", clean_events(3), sessions=3)
        with pytest.raises(StoreLocked):
            ReproService(ServiceConfig(
                http_port=0, tcp_port=None,
                state_dir=service.state_dir)).start_in_thread()

    def test_offline_facade_agrees_with_the_recovered_daemon(self, service):
        _, first, client = service()
        client.push_events("alpha", clean_events(10), sessions=3)
        client.push_events("beta", violating_events())
        first.drain()
        first.stop()
        alpha = repro.check(None, mode="online", state_dir=os.path.join(
            service.state_dir, "tenants", "alpha"))
        beta = repro.check(None, mode="online", state_dir=os.path.join(
            service.state_dir, "tenants", "beta"))
        assert alpha.ok
        assert not beta.ok


class TestCrashRecovery:
    """SIGKILL the real subprocess daemon mid-stream; restart; nothing
    acknowledged is lost."""

    @staticmethod
    def _spawn(state_dir):
        repo_src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--tcp-port", "-1", "--state-dir", state_dir,
             "--checkpoint-every", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        line = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if not match:
            proc.kill()
            pytest.fail(f"no port banner: {line!r} {proc.stdout.read()!r}")
        return proc, int(match.group(1))

    @staticmethod
    def _wait_for_quiesce(client, tenant, events, deadline=10.0):
        """Poll /stats until the tenant's worker has checked ``events``."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            stats = {t["tenant"]: t for t in client.stats()["tenants"]}
            if stats.get(tenant, {}).get("events") == events:
                return stats[tenant]
            time.sleep(0.05)
        pytest.fail(f"{tenant} never reached {events} events")

    def test_sigkill_then_restart_loses_no_acked_event(self, tmp_path):
        state_dir = str(tmp_path / "state")
        proc, port = self._spawn(state_dir)
        try:
            client = ServiceClient("127.0.0.1", port)
            client.push_events("alpha", clean_events(25), sessions=3)
            client.push_events("beta", violating_events())
            alpha = self._wait_for_quiesce(client, "alpha", 25)
            self._wait_for_quiesce(client, "beta", 2)
            assert alpha["checkpoints_written"] == 2  # at 10 and 20
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

        proc, port = self._spawn(state_dir)
        try:
            client = ServiceClient("127.0.0.1", port)
            verdicts = client.verdicts()
            assert set(verdicts) == {"alpha", "beta"}
            alpha, beta = verdicts["alpha"], verdicts["beta"]
            assert alpha["report"]["verdict"] == "satisfied"
            assert alpha["events"] == 25
            assert alpha["persistence"]["resumed_from"] == 20
            assert alpha["persistence"]["recovered_events"] == 25
            assert beta["report"]["verdict"] != "satisfied"

            # Keep streaming into the recovered tenant, then drain.
            client.push_events("alpha", clean_events(5, start=25),
                               sessions=3)
            final = client.shutdown()
            assert final["alpha"]["events"] == 30
            assert final["alpha"]["report"]["verdict"] == "satisfied"
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        # Offline cross-check straight off the journals.
        report = repro.check(None, mode="online", state_dir=os.path.join(
            state_dir, "tenants", "alpha"))
        assert report.ok
        assert report.stats["persistence"]["journaled_events"] == 30


# -- one driver ----------------------------------------------------------------


def stamped_stream(count=30, seed=3):
    """``count`` commit-order events of an SI simulator run, every other
    one carrying (start, commit) timestamps."""
    params = WorkloadParams(sessions=3, txns_per_session=count // 3 + 4,
                            ops_per_txn=4, keys=10, read_proportion=0.5,
                            distribution="uniform")
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(isolation="snapshot", seed=seed)
    events = []
    for i, (session, ops, status) in enumerate(
            stream_workload(db, spec, seed=seed)):
        events.append((session, ops, status,
                       (10 * i, 10 * i + 5) if i % 2 else None))
        if len(events) == count:
            return events
    raise AssertionError("simulator ran out of events")


def driver_config(state_dir):
    """A daemon whose one windowed tenant gets a window of exactly 8."""
    return ServiceConfig(http_port=0, tcp_port=None, state_dir=state_dir,
                         checkpoint_every=4, max_live_total=8,
                         min_live_share=4)


def watch_driver(path, config, windowed):
    """What ``repro watch --state-dir`` builds, with the daemon's rules."""
    return PersistentCheck(
        path, checkpoint_every=config.checkpoint_every,
        solve_every=config.solve_every,
        window=WindowPolicy(max_live=8) if windowed else None,
        sessions=range(3) if windowed else None)


def run_tenant(config, events, *, name="t", sessions=None):
    """Offer ``events`` to one daemon tenant (recovering whatever its
    store holds), drain it, return the final payload."""
    router = SessionRouter(config)
    try:
        tenant = router.get_or_create(name, sessions)
        for event in events:
            assert tenant.offer(event)
        return tenant.drain(timeout=60)
    finally:
        router.close()


@pytest.fixture
def checkpoint_log(monkeypatch):
    """``{store directory name: [checkpoint positions]}``, as written."""
    log = {}
    save = SegmentStore.save_checkpoint

    def spying_save(self, events, state, extra=None):
        log.setdefault(os.path.basename(self.path), []).append(events)
        return save(self, events, state, extra=extra)

    monkeypatch.setattr(SegmentStore, "save_checkpoint", spying_save)
    return log


@pytest.mark.parametrize("windowed", [False, True],
                         ids=["unwindowed", "windowed"])
class TestOneDriver:
    """A daemon tenant and ``PersistentCheck.feed`` are one protocol:
    the same checkpoints, the same verdict, and each one's store resumes
    under the other."""

    def test_tenant_and_feed_checkpoint_alike(self, tmp_path, windowed,
                                              checkpoint_log):
        events = stamped_stream()
        config = driver_config(str(tmp_path / "daemon"))
        payload = run_tenant(config, events,
                             sessions=range(3) if windowed else None)
        with watch_driver(str(tmp_path / "w"), config, windowed) as check:
            check.feed_events(events)
            fed = check.finish()
            extra = check.store.latest_checkpoint_payload()["extra"]
        positions = [*range(4, len(events) + 1, 4), len(events)]
        assert checkpoint_log == {"t": positions, "w": positions}
        assert payload["report"]["verdict"] == "satisfied" and fed.satisfies_si
        assert payload["events"] == len(events)
        assert (payload["persistence"]["checkpoints_written"]
                == fed.stats["persistence"]["checkpoints_written"])
        store = os.path.join(config.state_dir, "tenants", "t")
        with SegmentStore.open(store, readonly=True) as journal:
            assert journal.latest_checkpoint_payload()["extra"] == extra
        assert payload["timestamped_fraction"] == round(
            extra["stamped_seen"] / extra["committed_seen"], 6)

    def test_a_tenant_resumes_a_watch_directory(self, tmp_path, windowed):
        events = stamped_stream()
        config = driver_config(str(tmp_path / "daemon"))
        split = 18
        # A watch run "crashes" after 18 events: checkpoint at 16.
        with watch_driver(str(tmp_path / "w"), config, windowed) as check:
            check.feed_events(events[:split])
        shutil.copytree(str(tmp_path / "w"),
                        os.path.join(config.state_dir, "tenants", "w"),
                        ignore=shutil.ignore_patterns("LOCK"))
        resumed = run_tenant(config, events[split:], name="w")
        uninterrupted = run_tenant(driver_config(str(tmp_path / "fresh")),
                                   events,
                                   sessions=range(3) if windowed else None)
        assert resumed["persistence"]["resumed_from"] == 16
        assert resumed["persistence"]["recovered_events"] == split
        for key in ("events", "timestamped_fraction"):
            assert resumed[key] == uninterrupted[key]
        assert (resumed["report"]["verdict"]
                == uninterrupted["report"]["verdict"] == "satisfied")

    def test_repro_check_audits_a_tenant_directory(self, tmp_path, windowed,
                                                   capsys):
        from repro.cli import main

        events = stamped_stream()
        config = driver_config(str(tmp_path / "daemon"))
        payload = run_tenant(config, events,
                             sessions=range(3) if windowed else None)
        store = os.path.join(config.state_dir, "tenants", "t")
        assert main(["check", store]) == 0
        assert f"state dir {store}: {len(events)} event(s)" in (
            capsys.readouterr().out)
        assert payload["report"]["verdict"] == "satisfied"


def test_a_tenant_directory_of_an_earlier_daemon_recovers(tmp_path):
    """``tests/data/tenant_42f23ad`` is a windowed tenant's store as the
    daemon of ``42f23ad`` — the last build with a second copy of the
    recovery protocol — left it mid-stream: checkpoints at 24 and 32
    carrying ``extra`` counts, and a six-event tail.  Its recovery must
    report what that daemon reported."""
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    with open(os.path.join(data, "tenant_42f23ad.json"),
              encoding="utf-8") as handle:
        expect = json.load(handle)
    state_dir = str(tmp_path / "state")
    shutil.copytree(os.path.join(data, "tenant_42f23ad"),
                    os.path.join(state_dir, "tenants", "t"))
    config = ServiceConfig(http_port=0, tcp_port=None, state_dir=state_dir,
                           checkpoint_every=8, max_live_total=16,
                           min_live_share=8, solve_every=2)
    svc = ReproService(config)
    handle = svc.start_in_thread()
    try:
        recovered = svc.router.get("t").verdict_payload()
        assert recovered["persistence"]["resumed_from"] == 32
        assert recovered["persistence"]["recovered_events"] == 38
        final = handle.drain()["t"]
    finally:
        handle.stop()
    for payload in (recovered, final):
        assert payload["events"] == expect["events"]
        assert payload["timestamped_fraction"] == (
            expect["timestamped_fraction"])
        assert payload["report"]["verdict"] == expect["verdict"]
    assert recovered["report"]["decided_by"] == expect["decided_by"]
    assert (recovered["report"]["stats"]["window"]["evicted"]
            == expect["evicted"])
