"""The collector pause (repro.utils.gcpause) and its two call sites.

``PolySIChecker.check`` and ``history_from_json`` run with the cyclic
collector disabled.  The contract: whoever found it enabled gets it back
enabled — on return and on an exception, nested, and from two threads —
whoever had disabled it keeps it disabled, nothing cyclic outlives the
next ordinary collection, and no streaming or storage layer, whose
loops are not bounded by one input, takes part.
"""

import ast
import gc
import json
import os
import sys
import threading
import weakref

import pytest

import repro
from repro.core import checker as checker_module
from repro.core.checker import PolySIChecker
from repro.core.history import DuplicateValueError, W
from repro.histories.codec import history_from_json, history_to_json
from repro.utils.gcpause import collector_paused

from _helpers import build, long_fork_history, serializable_history


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


def _uses_the_collector(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any(name.split(".")[-1] in ("gc", "gcpause", "collector_paused")
               for name in names):
            return True
    return False


def test_unbounded_layers_do_not_touch_the_collector():
    root = os.path.dirname(repro.__file__)
    assert _uses_the_collector(os.path.join(root, "core", "checker.py"))
    assert _uses_the_collector(os.path.join(root, "histories", "codec.py"))
    offenders = []
    for package in ("service", "online", "store"):
        for folder, _dirs, files in os.walk(os.path.join(root, package)):
            offenders += [os.path.join(folder, name) for name in files
                          if name.endswith(".py")
                          and _uses_the_collector(os.path.join(folder, name))]
    assert offenders == []
