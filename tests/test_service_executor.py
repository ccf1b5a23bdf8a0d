"""The seams between the ingestion doors, the tenant queues and the
checker thread (``repro.service.tenants``).

DESIGN.md S13/S14 state what the hand-off between the event loop and
the checking side must preserve; this suite holds each statement by
test instead of by argument:

- the daemon's thread count does not depend on its tenant count, and
  every thread it started is gone after ``stop()``;
- per tenant, send order == journal order == check order;
- one tenant's slow or crashing checker delays (never blocks, never
  poisons) the others, and never touches ingestion or the HTTP API;
- a full queue is visible to the producer: the 429 names the exact
  accepted prefix, TCP credit is withheld until slots free up, and the
  ledger sent == accepted == consumed closes;
- an event is journaled before it is visible to the checker (no
  checkpoint from the journal's future) and before it is acknowledged
  (SIGKILL mid-push loses nothing a credit reply covered);
- ``drain`` returns only after every store lock is released.

Everything goes through public surfaces (wire, HTTP API, the journal on
disk) plus the tenant's retained-event log, so the suite does not know
how the hand-off is built.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.history import W
from repro.histories.codec import event_to_json, history_from_events
from repro.service import ReproService, ServiceClient, ServiceConfig
from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.store import SegmentStore
from repro.workloads.generator import WorkloadParams, generate_workload

HOST = "127.0.0.1"


def unique_writes(n, *, sessions=(0, 1), tag="k"):
    """``n`` committed writes on distinct keys — trivially SI, and every
    event line is distinct, so order is checkable line by line."""
    return [(sessions[i % len(sessions)], (W(f"{tag}{i}", i + 1),),
             "committed") for i in range(n)]


def simulated_events(count, seed=5, sessions=4):
    """``count`` commit-order events of an SI simulator run."""
    params = WorkloadParams(sessions=sessions,
                            txns_per_session=count // sessions + 8,
                            ops_per_txn=4, keys=40, read_proportion=0.5,
                            distribution="uniform")
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(isolation="snapshot", seed=seed + 1)
    events = []
    for event in stream_workload(db, spec, seed=seed + 2):
        events.append(event)
        if len(events) == count:
            return events
    raise AssertionError("simulator ran out of events")


def lines_of(events):
    return [event_to_json(event) for event in events]


def journal_lines(state_dir, tenant):
    """The tenant's journal as canonical event lines (the store must be
    closed: a read-only open takes a shared lock)."""
    path = os.path.join(state_dir, "tenants", tenant)
    with SegmentStore.open(path, readonly=True) as store:
        return [event_to_json(event) for _, event in store.iter_events()]


def wait_until(predicate, timeout=10.0, step=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


def settled_thread_count():
    """``threading.active_count()`` once it stops moving (threads of an
    earlier test's daemon may still be on their way out)."""
    last = threading.active_count()
    for _ in range(100):
        time.sleep(0.05)
        now = threading.active_count()
        if now == last:
            return now
        last = now
    return last


@pytest.fixture
def service(tmp_path):
    """Factory fixture: daemons on ephemeral ports, stopped at teardown."""
    handles = []

    def start(**kwargs):
        kwargs.setdefault("http_port", 0)
        kwargs.setdefault("tcp_port", 0)
        svc = ReproService(ServiceConfig(**kwargs))
        handle = svc.start_in_thread()
        handles.append(handle)
        client = ServiceClient(HOST, handle.http_port,
                               tcp_port=handle.tcp_port)
        return svc, handle, client

    start.state_dir = str(tmp_path / "state")
    yield start
    for handle in handles:
        if handle.thread.is_alive():
            handle.stop()


def stats_of(client, tenant):
    return {t["tenant"]: t for t in client.stats()["tenants"]}[tenant]


class Gate:
    """Stand-in for ``OnlineChecker.extend`` — the one call the checker
    thread makes per batch — that holds the checking side still until
    opened, then defers to the real ``extend``."""

    def __init__(self, tenant):
        self.open = threading.Event()
        self.entered = threading.Event()
        self._extend = tenant.persistent.checker.extend
        tenant.persistent.checker.extend = self

    def __call__(self, *args, **kwargs):
        self.entered.set()
        assert self.open.wait(30), "gate never opened"
        return self._extend(*args, **kwargs)


class TestOneCheckerThread:
    def test_thread_count_is_independent_of_tenant_count(self, service):
        before = settled_thread_count()
        _, handle, client = service()

        def push(name):
            client.push_events_tcp(name, unique_writes(6), sessions=2)
            assert wait_until(
                lambda: client.verdict(name)["events"] == 6)

        push("tenant-0")
        with_one = threading.active_count()
        for index in range(1, 32):
            push(f"tenant-{index}")
        assert threading.active_count() == with_one
        assert len(client.tenants()) == 32

        handle.stop()
        assert wait_until(lambda: threading.active_count() == before), (
            [t.name for t in threading.enumerate()])

    def test_two_services_do_not_share_a_checker_thread(self, service):
        """Stopping one in-process daemon leaves the other checking."""
        _, first, first_client = service()
        _, second, second_client = service()
        first_client.push_events("a", unique_writes(4), sessions=2)
        second_client.push_events("b", unique_writes(4), sessions=2)
        first.stop()
        second_client.push_events("b", unique_writes(4, tag="later"),
                                  sessions=2)
        assert second.drain()["b"]["events"] == 8


class TestOrder:
    def test_send_order_is_journal_order_is_check_order(self, service):
        """Two producers (disjoint sessions, one per door) interleave
        three tenants through small queues."""
        svc, handle, client = service(state_dir=service.state_dir,
                                      queue_depth=8, credit_cap=4)
        names = ["a", "b", "c"]
        rounds, chunk = 6, 9
        sent = {
            (p, name): unique_writes(rounds * chunk,
                                     sessions=(2 * p, 2 * p + 1),
                                     tag=f"{name}-{p}-")
            for p in range(2) for name in names
        }
        errors = []

        def produce(p):
            push = client.push_events if p == 0 else client.push_events_tcp
            extra = {"batch": 4} if p == 0 else {}
            try:
                for r in range(rounds):
                    for name in names:
                        events = sent[p, name][r * chunk:(r + 1) * chunk]
                        stats = push(name, events, sessions=4, **extra)
                        assert stats.accepted == stats.sent == chunk
                        # Acknowledged means journaled (S14).
                        tenant = svc.router.get(name)
                        assert (tenant.persistent.store.total_events
                                >= (r + 1) * chunk)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=produce, args=(p,))
                   for p in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert errors == []
        verdicts = handle.drain()
        for name in names:
            checked = lines_of(svc.router.get(name)._retained)
            journal = journal_lines(service.state_dir, name)
            assert journal == checked, name
            assert len(journal) == 2 * rounds * chunk
            assert verdicts[name]["events"] == len(journal)
            for p in range(2):
                mine = set(lines_of(sent[p, name]))
                assert ([line for line in journal if line in mine]
                        == lines_of(sent[p, name])), (name, p)


class TestFairness:
    #: Several times what one tenant may check before the checker
    #: thread moves on to the next ready tenant (64 events).
    SLOW_EVENTS = 5 * 64

    def test_slow_tenant_delays_but_does_not_starve_the_others(
            self, service):
        svc, _, client = service()
        client.push_events("slow", unique_writes(1), sessions=2)
        slow = svc.router.get("slow")
        assert wait_until(lambda: slow.events_seen == 1)
        real_extend = slow.persistent.checker.extend

        def slow_extend(events):
            time.sleep(0.005 * len(events))   # 5 ms per event
            return real_extend(events)

        slow.persistent.checker.extend = slow_extend
        stats = client.push_events_tcp(
            "slow", unique_writes(self.SLOW_EVENTS, tag="s"))
        assert stats.accepted == self.SLOW_EVENTS

        # The other tenant's TCP `end` ack, its checking, its verdict
        # and the health probe all complete while `slow` is backlogged.
        stats = client.push_events_tcp("quick", unique_writes(10),
                                       sessions=2)
        assert stats.accepted == 10
        assert wait_until(lambda: client.verdict("quick")["events"] == 10,
                          timeout=5)
        assert client.healthz() is True
        assert stats_of(client, "slow")["queue_depth"] > 0
        assert slow.events_seen < 1 + self.SLOW_EVENTS


class TestCrashIsolation:
    @pytest.mark.parametrize("escapes", [False, True],
                             ids=["extend-raises", "escapes-the-batch"])
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_one_tenants_crash_does_not_stop_the_others(self, service,
                                                        escapes):
        svc, handle, client = service()
        client.push_events("a", unique_writes(1), sessions=2)
        client.push_events("b", unique_writes(3), sessions=2)
        a = svc.router.get("a")

        def boom(*args, **kwargs):
            raise TypeError("unhashable type: 'list'")

        if escapes:
            # Outside the per-batch guard: whatever runs the tenant's
            # batches has to contain this one itself.
            a.persistent._maybe_checkpoint = boom
        else:
            a.persistent.checker.extend = boom
        client.push_events("a", unique_writes(1, tag="poison"))
        assert wait_until(lambda: client.verdict("a")["report"]
                          ["decided_by"] == "ingest-error")

        client.push_events("b", unique_writes(5, tag="after"))
        assert wait_until(lambda: client.verdict("b")["events"] == 8)
        verdicts = handle.drain()
        assert verdicts["a"]["final"] is True
        assert verdicts["a"]["report"]["verdict"] == "violated"
        assert verdicts["a"]["report"]["decided_by"] == "ingest-error"
        assert verdicts["b"]["events"] == 8
        assert verdicts["b"]["report"]["verdict"] == "satisfied"


class TestBackpressure:
    DEPTH = 4

    def _gated(self, service):
        svc, handle, client = service(queue_depth=self.DEPTH,
                                      credit_cap=self.DEPTH)
        client.push_events("t", unique_writes(1, tag="first"), sessions=2)
        tenant = svc.router.get("t")
        assert wait_until(lambda: tenant.events_seen == 1)
        return svc, handle, client, tenant, Gate(tenant)

    def test_http_429_names_the_exact_accepted_prefix(self, service):
        svc, handle, client, tenant, gate = self._gated(service)
        events = unique_writes(12)
        body = ("\n".join(lines_of(events)) + "\n").encode()
        status, reply = client._request_json("POST", "/ingest/t", body)
        assert status == 429
        accepted = reply["accepted"]
        # The checking side may have taken one event in hand already.
        assert accepted in (self.DEPTH, self.DEPTH + 1)
        assert reply["rejected"] == len(events) - accepted

        gate.open.set()
        assert wait_until(lambda: tenant.events_seen == 1 + accepted)
        assert (lines_of(tenant._retained[1:])
                == lines_of(events[:accepted]))
        # The producer resends from the named position: nothing lost,
        # nothing duplicated.
        stats = client.push_events("t", events[accepted:])
        assert stats.accepted == len(events) - accepted
        payload = handle.drain()["t"]
        assert payload["events"] == 1 + len(events)
        assert payload["rejected"] >= 1
        assert lines_of(tenant._retained[1:]) == lines_of(events)

    def test_tcp_credit_is_withheld_until_slots_free_up(self, service):
        svc, handle, client, tenant, gate = self._gated(service)
        events = unique_writes(20)
        sent = 0
        with socket.create_connection((HOST, handle.tcp_port),
                                      timeout=10) as sock:
            rfile = sock.makefile("rb")

            def send(line):
                sock.sendall((line + "\n").encode())

            send('{"hello": "repro-events/1", "tenant": "t"}')
            credit = json.loads(rfile.readline())["credit"]
            assert credit == self.DEPTH
            # Fill the queue: spend every grant until one is withheld.
            while True:
                for _ in range(credit):
                    send(event_to_json(events[sent]))
                    sent += 1
                send('{"op": "credit"}')
                sock.settimeout(0.5)
                try:
                    credit = json.loads(rfile.readline())["credit"]
                except (socket.timeout, TimeoutError):
                    break
                finally:
                    sock.settimeout(10)
                assert 0 < credit <= self.DEPTH
            assert gate.entered.is_set()
            assert sent <= self.DEPTH + 1 + self.DEPTH
            assert stats_of(client, "t")["queue_depth"] == self.DEPTH
            assert client.healthz() is True  # only the producer stalls

            gate.open.set()
            rfile = sock.makefile("rb")
            credit = json.loads(rfile.readline())["credit"]
            assert 0 < credit <= self.DEPTH
            for event in events[sent:]:
                if credit == 0:
                    send('{"op": "credit"}')
                    credit = json.loads(rfile.readline())["credit"]
                send(event_to_json(event))
                credit -= 1
                sent += 1
            send('{"op": "end"}')
            end = json.loads(rfile.readline())
        assert end["ok"] is True and end["accepted"] == sent == len(events)
        payload = handle.drain()["t"]
        assert payload["events"] == 1 + len(events)
        assert lines_of(tenant._retained[1:]) == lines_of(events)


class TestJournalBeforeHandoff:
    def test_no_checkpoint_from_the_journals_future(self, service):
        """S14: with a checkpoint after every event and a slow journal
        append, no checkpoint may claim an event the journal does not
        hold yet."""
        svc, handle, _ = service(state_dir=service.state_dir,
                                 checkpoint_every=1, queue_depth=4)
        tenant = svc.router.get_or_create("t", range(2))
        store = tenant.persistent.store
        append, save = store.append_event, store.save_checkpoint
        seen = []

        def slow_append(event):
            time.sleep(0.001)
            return append(event)

        def spying_save(events, state, extra=None):
            seen.append((events, store.total_events))
            return save(events, state, extra=extra)

        store.append_event = store.append_decoded = slow_append
        store.save_checkpoint = spying_save
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for event in unique_writes(200):
                while not tenant.offer(event):
                    time.sleep(0.0005)
        finally:
            sys.setswitchinterval(interval)
        payload = handle.drain()["t"]
        assert payload["events"] == 200
        assert len(seen) >= 200
        ahead = [(events, total) for events, total in seen if events > total]
        assert ahead == []

    def test_journal_failure_leaves_nothing_queued(self, service):
        """A failed append is not acknowledged and not checked either,
        and the final verdict is the journal failure even when every
        journaled event was checked before the append broke (drain then
        checks no batch)."""
        from repro.service import TenantError

        svc, handle, _ = service(state_dir=service.state_dir)
        tenant = svc.router.get_or_create("t", range(2))
        good = unique_writes(3)
        for event in good:
            assert tenant.offer(event)
        assert wait_until(lambda: tenant.events_seen == len(good))

        def broken(event):
            raise OSError("disk full")

        store = tenant.persistent.store
        store.append_event = store.append_decoded = broken
        with pytest.raises(TenantError, match="journal failed"):
            tenant.offer(unique_writes(1, tag="lost")[0])
        with pytest.raises(TenantError, match="journal failed"):
            tenant.offer(unique_writes(1, tag="later")[0])
        payload = handle.drain()["t"]
        assert payload["events"] == len(good)
        assert payload["report"]["decided_by"] == "ingest-error"
        assert "journal failed" in payload["report"]["stats"]["error"]
        assert journal_lines(service.state_dir, "t") == lines_of(good)


class TestDrainReleasesTheStores:
    def test_restart_right_after_drain_finds_no_lock(self, service,
                                                     monkeypatch):
        close = SegmentStore.close

        def slow_close(self):
            time.sleep(0.1)
            close(self)

        monkeypatch.setattr(SegmentStore, "close", slow_close)
        _, first, client = service(state_dir=service.state_dir,
                                   tcp_port=None)
        for name in ("a", "b", "c"):
            client.push_events(name, unique_writes(5), sessions=2)
        first.drain()
        # No stop(), no sleep: drain alone must have released the locks.
        _, second, _ = service(state_dir=service.state_dir, tcp_port=None)
        verdicts = second.drain()
        assert {name: v["events"] for name, v in verdicts.items()} == {
            "a": 5, "b": 5, "c": 5}

    def test_drain_honours_its_timeout(self, service):
        svc, _, client = service()
        client.push_events("t", unique_writes(1), sessions=2)
        tenant = svc.router.get("t")
        assert wait_until(lambda: tenant.events_seen == 1)
        gate = Gate(tenant)
        client.push_events("t", unique_writes(1, tag="held"))
        assert gate.entered.wait(5)
        start = time.monotonic()
        with pytest.raises(Exception) as caught:
            tenant.drain(timeout=0.2)
        assert time.monotonic() - start < 5
        assert not isinstance(caught.value, AssertionError)
        gate.open.set()
        assert tenant.drain(timeout=10)["events"] == 2


class TestExecutorMetrics:
    def test_batch_metrics_are_on_the_metrics_endpoint(self, service):
        svc, _, client = service(queue_depth=4, credit_cap=4)
        tenant = svc.router.get_or_create("t", range(2))
        gate = Gate(tenant)
        pusher = threading.Thread(
            target=client.push_events_tcp, args=("t", unique_writes(30)),
            kwargs={"sessions": 2})
        pusher.start()
        # Hold the checker until the producer is parked on a full queue.
        assert wait_until(lambda: "repro_service_backpressure_waits"
                          in client.metrics_text())
        gate.open.set()
        pusher.join(30)
        assert not pusher.is_alive()
        # A batch is recorded when it ends, its events as they go.
        assert wait_until(lambda: re.search(
            r"^repro_service_batch_events_sum 30\b", client.metrics_text(),
            re.M))
        text = client.metrics_text()
        batches = int(re.search(
            r"^repro_service_batch_events_count (\d+)", text, re.M)[1])
        assert 1 <= batches <= 30
        assert re.search(
            r'^repro_tenant_queue_wait_s_count\{tenant="t"\} (\d+)',
            text, re.M), text
        # The parked producer was woken — at most once per batch, not
        # once per event.
        wakeups = re.search(r"^repro_service_loop_wakeups (\d+)", text, re.M)
        assert wakeups and 1 <= int(wakeups[1]) <= batches, text


class TestKillMidPush:
    """SIGKILL the real daemon in the middle of a TCP push: everything a
    credit reply acknowledged is in the journal, in send order."""

    EVENTS = 600

    @staticmethod
    def _spawn(state_dir):
        repo_src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--tcp-port", "0", "--state-dir", state_dir,
             "--checkpoint-every", "50"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        banner = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+), tcp://[\d.]+:(\d+)", banner)
        if not match:
            proc.kill()
            pytest.fail(f"no banner: {banner!r} {proc.stdout.read()!r}")
        return proc, int(match[1]), int(match[2])

    def test_nothing_a_credit_reply_covered_is_lost(self, tmp_path):
        state_dir = str(tmp_path / "state")
        events = simulated_events(self.EVENTS)
        lines = lines_of(events)
        proc, _, tcp_port = self._spawn(state_dir)
        sent = replies = covered = 0
        try:
            with socket.create_connection((HOST, tcp_port),
                                          timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b'{"hello": "repro-events/1", '
                             b'"tenant": "t", "sessions": 4}\n')
                credit = json.loads(rfile.readline())["credit"]
                while replies < 2:
                    assert credit > 0 and sent + credit < self.EVENTS
                    sock.sendall("".join(
                        line + "\n" for line in lines[sent:sent + credit]
                    ).encode())
                    sent += credit
                    sock.sendall(b'{"op": "credit"}\n')
                    credit = json.loads(rfile.readline())["credit"]
                    replies += 1
                # The door handles a connection's lines in order, so the
                # reply covers every event sent before the request.
                covered = sent
                burst = lines[sent:sent + credit]
                sock.sendall("".join(l + "\n" for l in burst).encode())
                sent += len(burst)
                os.kill(proc.pid, signal.SIGKILL)
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()
        assert covered >= 2

        proc, http_port, _ = self._spawn(state_dir)
        try:
            client = ServiceClient(HOST, http_port)
            recovered = client.verdict("t")
            journaled = recovered["persistence"]["journaled_events"]
            assert covered <= journaled <= sent
            assert recovered["events"] == journaled
            assert recovered["persistence"]["recovered_events"] == journaled
            final = client.shutdown()["t"]
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        journal = journal_lines(state_dir, "t")
        assert journal == lines[:journaled]
        offline = repro.check(history_from_events(events[:journaled]))
        assert (recovered["report"]["verdict"] == final["report"]["verdict"]
                == offline.verdict)
