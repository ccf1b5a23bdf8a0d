"""``Report.to_json`` / ``Report.to_dict`` carry exactly the payload of
the reference rule in ``_helpers.report_payload_reference``: every stats
entry through ``_jsonable``, then the pure-Python ``indent=2`` encoder.

The shipped path skips both for ``stats["trace"]`` (already JSON-shaped)
and encodes with the C encoder; these tests pin that the decoded payload
is unchanged on every registered engine x mode, on satisfied and violated
inputs, and that ``_jsonable`` never walks the trace.
"""

import json

import numpy as np
import pytest

import repro.api.report as report_module
from repro.api import adapt_result, check, get_engine, supported_combos
from repro.core.checker import PolySIChecker
from repro.extensions.segmented import run_segmented_workload
from repro.listappend import A, L, ListHistoryBuilder
from repro.storage.database import MVCCDatabase
from repro.storage.faults import FaultConfig
from repro.timestamp import stamp_serial
from repro.workloads.corpus import make_anomaly
from repro.workloads.generator import WorkloadParams, generate_workload

from _helpers import (
    causality_history,
    long_fork_history,
    report_payload_reference,
    serializable_history,
)


def assert_same_payload(report, *, json_shaped=True):
    """Decoded ``to_json`` == decoded reference == ``to_dict``, all on
    the same report object; returns the payload.  ``json_shaped=False``
    is for a trace carrying non-JSON values, which ``to_dict`` passes
    through as they are: there only its encoding must match."""
    payload = json.loads(report.to_json())
    assert payload == json.loads(report_payload_reference(report))
    as_dict = report.to_dict()
    if not json_shaped:
        as_dict = json.loads(json.dumps(as_dict, default=repr))
    assert payload == as_dict
    return payload


def _segmented_run(faults=None):
    spec = generate_workload(
        WorkloadParams(sessions=3, txns_per_session=6, ops_per_txn=4,
                       keys=4, read_proportion=0.5),
        seed=1,
    )
    return run_segmented_workload(MVCCDatabase(faults=faults, seed=1), spec,
                                  snapshot_every=6, seed=1)


def _list_history(violated):
    b = ListHistoryBuilder()
    b.txn(0, [A("x", 1)])
    b.txn(1, [A("x", 2)])
    b.txn(2, [L("x", (1, 2))])
    if violated:
        b.txn(3, [L("x", (2, 1))])
    return b.build()


def _history(isolation, violated):
    if not violated:
        return serializable_history()
    if isolation == "ra":
        return make_anomaly("read-skew", seed=1)
    if isolation == "causal":
        return causality_history()
    return long_fork_history()


def _subject(kind, isolation, violated):
    if kind == "history":
        return _history(isolation, violated)
    if kind == "timestamped_history":
        return stamp_serial(_history(isolation, violated))
    if kind == "list_history":
        return _list_history(violated)
    if kind == "segmented_run":
        return _segmented_run(
            FaultConfig(no_first_committer_wins=True) if violated else None)
    raise AssertionError(kind)


@pytest.mark.parametrize("violated", [False, True],
                         ids=["satisfied", "violated"])
@pytest.mark.parametrize("isolation,mode,engine", supported_combos())
def test_every_combo_carries_the_reference_payload(isolation, mode, engine,
                                                   violated):
    kind = get_engine(engine).input_kind(isolation, mode)
    options = {"workers": 2} if mode in ("parallel", "segmented") else {}
    report = check(_subject(kind, isolation, violated), isolation, mode,
                   engine, **options)
    assert report.ok is not violated, (isolation, mode, engine)
    payload = assert_same_payload(report)
    assert payload["stats"]["trace"]["schema"] == "repro-trace/1"


def test_stats_with_non_string_keys():
    report = check(long_fork_history())
    report.stats["per_shard"] = {3: {"txns": 5}, (1, 2): {"txns": 7},
                                 "0": [(1, 2)]}
    payload = assert_same_payload(report)
    assert list(payload["stats"]["per_shard"]) == ["(1, 2)", "0", "3"]


@pytest.mark.parametrize("make", [serializable_history, long_fork_history])
def test_online_final_report(make):
    report = check(make(), mode="online", solve_every=4)
    assert report.stats["final"] is True
    assert_same_payload(report)


def test_timestamp_engine_report():
    report = check(stamp_serial(long_fork_history()), engine="timestamp")
    assert not report.ok
    assert_same_payload(report)


def test_tuple_and_numpy_span_attributes():
    """A stray non-scalar attribute: a tuple encodes as a list, a numpy
    integer as its repr, in both the shipped and the reference path."""
    report = check(serializable_history())
    span = report.stats["trace"]["spans"][0]
    span["attrs"]["pair"] = (1, "a")
    span["attrs"]["count"] = np.int64(7)
    payload = assert_same_payload(report, json_shaped=False)
    attrs = payload["stats"]["trace"]["spans"][0]["attrs"]
    assert attrs["pair"] == [1, "a"]
    assert attrs["count"] == repr(np.int64(7))


def test_to_json_is_one_compact_line():
    text = check(long_fork_history()).to_json()
    assert "\n" not in text


def test_anomaly_key_matches_the_check_result():
    """Both JSON forms carry the anomaly's key."""
    history = make_anomaly("aborted-read", seed=1)
    native = PolySIChecker().check(history)
    assert native.anomalies
    report = adapt_result(native, isolation="si", mode="batch",
                          engine="polysi")
    native_keys = [a["key"] for a in json.loads(native.to_json())["anomalies"]]
    report_keys = [a["key"] for a in assert_same_payload(report)["anomalies"]]
    assert report_keys == native_keys


def test_jsonable_never_walks_the_trace(monkeypatch):
    report = check(long_fork_history())
    trace = report.stats["trace"]
    seen = []
    real = report_module._jsonable

    def recorder(value):
        seen.append(value)
        return real(value)

    monkeypatch.setattr(report_module, "_jsonable", recorder)
    payload = report.to_dict()
    assert payload["stats"]["trace"] is trace
    assert seen, "the other stats entries still go through _jsonable"

    def contains_trace(value):
        if value is trace:
            return True
        if isinstance(value, dict):
            return any(contains_trace(v) for v in value.values())
        if isinstance(value, (list, tuple)):
            return any(contains_trace(v) for v in value)
        return False

    assert not any(contains_trace(value) for value in seen)
