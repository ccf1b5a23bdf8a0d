"""The collector pause (repro.utils.gcpause) and its call sites.

``PolySIChecker.check`` and ``history_from_json`` run with the cyclic
collector disabled, and so does each call of the online checker that one
input bounds — ``OnlineChecker.extend`` (and ``add``), ``finish``,
``replay``, ``snapshot``, ``restore`` — and each checkpoint
(``PersistentCheck._checkpoint``: the snapshot and the write).  The
contract: whoever found it enabled gets it back enabled — on return and
on an exception, nested, and from two threads — whoever had disabled it
keeps it disabled, nothing cyclic outlives the next ordinary
collection, the collector runs between two slices of a stream, and no
other function — no loop over a stream — is paused.
"""

import ast
import gc
import json
import os
import sys
import threading
import weakref
from contextlib import ExitStack

import pytest

import repro
from repro.core import checker as checker_module
from repro.core.checker import PolySIChecker
from repro.core.history import DuplicateValueError, R, W
from repro.histories.codec import history_from_json, history_to_json
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.online import OnlineChecker, WindowPolicy
from repro.store import PersistentCheck
from repro.utils.gcpause import collector_paused

from _helpers import build, long_fork_history, serializable_history, simulated


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts from, and must end in, an enabled collector."""
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "a call left the collector disabled"


def duplicate_value_history():
    return build([W("x", 1)], [W("x", 1)])


class TestStateIsRestored:
    def test_paused_inside_and_enabled_after(self):
        seen = []

        @collector_paused
        def probe(value, *, keyword):
            seen.append(gc.isenabled())
            return value, keyword

        assert probe(1, keyword=2) == (1, 2)
        assert seen == [False] and gc.isenabled()

    def test_check_and_decode_on_return(self):
        history = serializable_history()
        assert PolySIChecker().check(history).satisfies_si
        assert gc.isenabled()
        assert not PolySIChecker().check(long_fork_history()).satisfies_si
        assert gc.isenabled()
        assert len(history_from_json(history_to_json(history))) == len(history)
        assert gc.isenabled()

    def test_on_an_exception(self):
        with pytest.raises(json.JSONDecodeError):
            history_from_json("{not json")
        assert gc.isenabled()
        with pytest.raises(KeyError):
            history_from_json("{}")
        assert gc.isenabled()
        with pytest.raises(DuplicateValueError):
            PolySIChecker().check(duplicate_value_history())
        assert gc.isenabled()

    def test_nested(self):
        @collector_paused
        def outer():
            result = PolySIChecker().check(serializable_history())
            # The inner call found the collector disabled: not its to
            # re-enable while the outer call is still running.
            return result.satisfies_si, gc.isenabled()

        assert outer() == (True, False)
        assert gc.isenabled()

    def test_a_caller_who_disabled_it_keeps_it_disabled(self):
        gc.disable()
        try:
            PolySIChecker().check(serializable_history())
            assert not gc.isenabled()
            history_from_json(history_to_json(serializable_history()))
            assert not gc.isenabled()
            with pytest.raises(json.JSONDecodeError):
                history_from_json("{not json")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_two_threads(self):
        text = history_to_json(serializable_history())
        start = threading.Barrier(2, timeout=30)
        failures = []

        def worker():
            try:
                start.wait()
                for _ in range(40):
                    report = repro.check(history_from_json(text))
                    assert report.ok
            except Exception as exc:  # reported below, in the main thread
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two inside a check
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert gc.isenabled()


class _Node:
    """Weakref-able, and half of a reference cycle."""


def test_a_cycle_made_inside_a_check_goes_with_the_next_collection(
        monkeypatch):
    made = []
    index_history = checker_module.index_history

    def leaky_index_history(history, initial_values=None):
        a, b = _Node(), _Node()
        a.other, b.other = b, a
        made.append(weakref.ref(a))
        return index_history(history, initial_values)

    monkeypatch.setattr(checker_module, "index_history", leaky_index_history)
    assert PolySIChecker().check(serializable_history()).satisfies_si
    (ref,) = made
    # Only a collection frees a cycle, and none ran inside the check ...
    assert ref() is not None
    # ... nor was one forced at its boundary; the first one after it does.
    gc.collect()
    assert ref() is None


#: Both stream shapes of the end-to-end benchmark, shortened: long
#: contended tenants and short read-heavy ones.
STREAM_SHAPES = {
    "long": (256, dict(sessions=8, ops_per_txn=8, read_proportion=0.7,
                       keys=2_000, distribution="uniform")),
    "fanin": (128, dict(sessions=4, ops_per_txn=4, read_proportion=0.9,
                        keys=10_000, distribution="uniform")),
}
SLICE = 64


def stream_events(shape, seed=3):
    count, params = STREAM_SHAPES[shape]
    return simulated(seed, count, **params), params["sessions"]


def slices_of(events):
    return [events[at:at + SLICE] for at in range(0, len(events), SLICE)]


def windowed_checker(sessions):
    """Configured the way the service daemon configures a tenant's."""
    return OnlineChecker(solve_every=8, window=WindowPolicy(max_live=48),
                         sessions=range(sessions))


class TestStreamCallsRestoreTheState:
    def test_on_return(self, tmp_path):
        events, sessions = stream_events("fanin")
        checker = windowed_checker(sessions)
        session, ops, status = events[0][:3]
        assert checker.add(session, ops, status=status).satisfies_si
        assert gc.isenabled()
        for batch in slices_of(events[1:]):
            assert checker.extend(batch).satisfies_si
            assert gc.isenabled()
        state = checker.snapshot()
        assert gc.isenabled()
        again = OnlineChecker.restore(state)
        assert gc.isenabled()
        assert again.finish().satisfies_si and gc.isenabled()
        replayed = OnlineChecker().replay(long_fork_history())
        assert not replayed.satisfies_si and gc.isenabled()
        with PersistentCheck(str(tmp_path / "s"), checkpoint_every=SLICE,
                             solve_every=8) as check:
            for batch in slices_of(events):
                check.check(batch)
                assert gc.isenabled()
            assert check.checkpoints_written == len(slices_of(events))
            assert check.finish().satisfies_si and gc.isenabled()

    def test_on_an_undeclared_session_under_a_window(self):
        checker = OnlineChecker(window=WindowPolicy(max_live=8),
                                sessions=[0])
        with pytest.raises(ValueError, match="not in the declared"):
            checker.extend([(0, [W("x", 1)]), (7, [R("x", 1)])])
        assert gc.isenabled()

    def test_on_a_duplicate_value(self):
        with pytest.raises(DuplicateValueError):
            OnlineChecker().extend([(0, [W("x", 1)]), (1, [W("x", 1)])])
        assert gc.isenabled()

    def test_nested(self, tmp_path, monkeypatch):
        """``PersistentCheck.check`` under an outer pause reaches
        ``extend`` paused; ``_checkpoint`` reaches ``snapshot`` paused,
        and the write after it still runs paused."""
        events, _sessions = stream_events("fanin")
        seen = {}

        def probe(name, call):
            def probed(*args, **kwargs):
                seen.setdefault(name, []).append(gc.isenabled())
                return call(*args, **kwargs)
            return probed

        with PersistentCheck(str(tmp_path / "s"), checkpoint_every=SLICE,
                             solve_every=8) as check:
            checker = check.checker
            monkeypatch.setattr(checker, "_feed",
                                probe("feed", checker._feed))
            monkeypatch.setattr(checker, "_snapshot_state",
                                probe("snapshot", checker._snapshot_state))
            monkeypatch.setattr(check.store, "save_checkpoint",
                                probe("write", check.store.save_checkpoint))

            @collector_paused
            def outer(batch):
                check.check(batch)
                return gc.isenabled()

            assert outer(events[:SLICE]) is False
            assert gc.isenabled()
            check.check(events[SLICE:2 * SLICE])
            assert gc.isenabled()
        assert seen == {"feed": [False, False], "snapshot": [False, False],
                        "write": [False, False]}

    def test_a_caller_who_disabled_it_keeps_it_disabled(self, tmp_path):
        events, _sessions = stream_events("fanin")
        gc.disable()
        try:
            with PersistentCheck(str(tmp_path / "s"),
                                 checkpoint_every=SLICE) as check:
                check.check(events[:SLICE])
                assert check.checkpoints_written == 1
                assert not gc.isenabled()
            checker = OnlineChecker.restore(check.checker.snapshot())
            assert not gc.isenabled()
            checker.extend(events[SLICE:])
            checker.finish()
            assert not gc.isenabled()
            with pytest.raises(DuplicateValueError):
                checker.add(0, [W("y", 1), W("z", 1)])
                checker.add(1, [W("y", 1)])
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_two_threads_extending_two_checkers(self):
        streams = [stream_events("fanin", seed) for seed in (3, 4)]
        start = threading.Barrier(2, timeout=30)
        failures = []

        def worker(events, sessions):
            try:
                start.wait()
                for _ in range(3):
                    checker = windowed_checker(sessions)
                    for batch in slices_of(events):
                        assert checker.extend(batch).satisfies_si
                    assert checker.finish().satisfies_si
            except Exception as exc:  # reported below, in the main thread
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=stream)
                   for stream in streams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two inside a slice
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert gc.isenabled()


def test_a_cycle_made_inside_extend_goes_with_the_next_collection(
        monkeypatch):
    made = []
    checker = OnlineChecker()
    settle = checker._settle

    def leaky_settle(before):
        a, b = _Node(), _Node()
        a.other, b.other = b, a
        made.append(weakref.ref(a))
        return settle(before)

    monkeypatch.setattr(checker, "_settle", leaky_settle)
    assert checker.add(0, [W("x", 1)]).satisfies_si
    (ref,) = made
    assert ref() is not None
    gc.collect()
    assert ref() is None


def test_the_collector_runs_between_two_slices(tmp_path):
    """The loops that feed a stream are not paused: the collector is on
    whenever a slice is handed over, and the one ``on_batch`` sees."""
    events, _sessions = stream_events("fanin")
    seen = []
    with PersistentCheck(str(tmp_path / "s"), checkpoint_every=SLICE,
                         on_batch=lambda _batch: seen.append(
                             gc.isenabled())) as check:
        check.feed_events(events[:3])
        for batch in slices_of(events[3:]):
            check.check(batch)
    assert seen and all(seen)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
def test_a_slice_leaves_nothing_cyclic(shape, traced, tmp_path):
    """A full pass after every 64-event slice — checkpoint included —
    finds no unreachable object: pausing a slice defers no garbage."""
    events, sessions = stream_events(shape)
    observed = ExitStack()
    if traced:
        observed.enter_context(use_tracer(Tracer()))
        observed.enter_context(use_metrics(MetricsRegistry()))
    with observed:
        with PersistentCheck(str(tmp_path / "s"), checkpoint_every=128,
                             solve_every=8, window=WindowPolicy(48),
                             sessions=range(sessions)) as check:
            gc.collect()
            found = []
            for batch in slices_of(events):
                for event in batch:
                    check.journal(event)
                assert check.check(batch).satisfies_si
                found.append(gc.collect())
            assert check.finish().satisfies_si
            found.append(gc.collect())
    assert check.checkpoints_written >= 2
    assert found == [0] * len(found)


#: Every function under ``src/repro`` that ``collector_paused`` wraps.
PAUSED = {
    ("core/checker.py", "PolySIChecker.check"),
    ("core/checker.py", "PolySIChecker.check_polygraph"),
    ("histories/codec.py", "history_from_json"),
    ("online/checker.py", "OnlineChecker.extend"),
    ("online/checker.py", "OnlineChecker.replay"),
    ("online/checker.py", "OnlineChecker.finish"),
    ("online/checker.py", "OnlineChecker.snapshot"),
    ("online/checker.py", "OnlineChecker.restore"),
    ("store/resume.py", "PersistentCheck._checkpoint"),
    ("store/segments.py", "SegmentStore.latest_checkpoint_payload"),
}


def _sources():
    root = os.path.dirname(repro.__file__)
    for folder, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    yield (os.path.relpath(path, root).replace(os.sep, "/"),
                           ast.parse(handle.read(), filename=path))


def _paused_functions(rel, tree, prefix=""):
    for node in tree.body if isinstance(tree, ast.Module) else tree:
        if isinstance(node, ast.ClassDef):
            yield from _paused_functions(rel, node.body,
                                         f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = {getattr(d, "id", getattr(d, "attr", None))
                     for d in node.decorator_list}
            if "collector_paused" in names:
                yield rel, prefix + node.name
            yield from _paused_functions(rel, node.body,
                                         f"{prefix}{node.name}.")


def _names_gc(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if "gc" in names:
            return True
    return False


def test_exactly_the_bounded_calls_are_paused():
    paused, direct = set(), []
    for rel, tree in _sources():
        paused.update(_paused_functions(rel, tree))
        if rel.split("/")[0] in ("service", "online", "store") \
                and _names_gc(tree):
            direct.append(rel)
    assert paused == PAUSED
    assert direct == []
