"""Trace soundness across the whole registry: every registered
engine x isolation x mode combination must attach a well-formed
``repro-trace/1`` payload to its ``Report``, with the combo's mandatory
stages present and exactly one root span.

The combos under test are *derived from the registry* (the same drift
guard as ``test_api_differential.py``): registering a new engine or
mode automatically enrolls it here, and a stage span renamed or dropped
in the polysi pipeline fails the mandatory-stage assertion instead of
silently shrinking the trace.
"""

import pytest

from repro.api import check, get_engine, list_engines
from repro.core.history import HistoryBuilder, R, W
from repro.extensions.segmented import run_segmented_workload
from repro.listappend import A, L, ListHistoryBuilder
from repro.obs import span_tree, validate_trace
from repro.storage.database import MVCCDatabase
from repro.workloads.generator import (
    WorkloadParams,
    generate_history,
    generate_workload,
)

from _helpers import serializable_history


def all_combos():
    """Every registered (engine, isolation, mode), sorted for stable
    parametrize ids."""
    combos = []
    for spec in list_engines():
        for isolation, mode in spec.combos:
            combos.append((spec.name, isolation, mode))
    return sorted(combos)


#: Stage names that must appear in the trace of each polysi SI mode.
#: Other combos (oracle-style engines, the non-SI levels) guarantee
#: only the façade's root "check" span.
MANDATORY_STAGES = {
    ("polysi", "si", "batch"): {"axioms", "construct", "prune"},
    ("timestamp", "si", "batch"): {"axioms", "validate"},
    ("polysi", "si", "online"): {"event"},
    ("polysi", "si", "parallel"): {"pool", "shard", "prune", "encode",
                                   "solve"},
    ("polysi", "si", "segmented"): {"segment"},
}


def two_component_history():
    """Two transactions-disjoint key groups, each with a pair of
    unordered writers (a real constraint), so the parallel engine plans
    two *constrained* component shards and dispatches them through the
    pool — pure components would be checked statically in the parent."""
    b = HistoryBuilder()
    for group, key in enumerate(("a", "b")):
        base = group * 3
        b.txn(base, [W(key, f"{key}1")])
        b.txn(base + 1, [W(key, f"{key}2")])
        b.txn(base + 2, [R(key, f"{key}1")])
    return b.build()


def _segmented_run():
    spec = generate_workload(
        WorkloadParams(sessions=3, txns_per_session=6, ops_per_txn=4,
                       keys=8),
        seed=1,
    )
    return run_segmented_workload(MVCCDatabase(seed=1), spec,
                                  snapshot_every=6, seed=1)


def _list_history():
    b = ListHistoryBuilder()
    b.txn(0, [A("x", 1)])
    b.txn(1, [A("x", 2), L("x", [1, 2])])
    return b.build()


def subject_for(engine, isolation, mode):
    kind = get_engine(engine).input_kind(isolation, mode)
    if kind == "segmented_run":
        return _segmented_run()
    if kind == "list_history":
        return _list_history()
    if kind == "timestamped_history":
        from repro.timestamp import stamp_serial
        return stamp_serial(serializable_history())
    if mode == "parallel":
        return two_component_history()
    return serializable_history()


def options_for(mode):
    # oversubscribe forces the real process pool even on 1-CPU runners,
    # so the parallel trace exercises worker-span adoption.
    if mode == "parallel":
        return {"workers": 2, "oversubscribe": True}
    if mode == "segmented":
        return {}
    return {}


@pytest.mark.parametrize("engine,isolation,mode", all_combos())
def test_every_registered_combo_emits_a_sound_trace(engine, isolation, mode):
    report = check(subject_for(engine, isolation, mode), isolation, mode,
                   engine, **options_for(mode))
    assert report.ok, (engine, isolation, mode)

    payload = report.stats["trace"]
    validate_trace(payload)  # raises on any malformation (incl. orphans)
    assert payload["mode"] == mode
    assert payload["engine"] == engine
    assert payload["dropped"] == 0

    roots = span_tree(payload).get(None, [])
    assert [r["name"] for r in roots] == ["check"], (
        "every span must descend from the façade's single check span"
    )

    names = {span["name"] for span in payload["spans"]}
    mandatory = MANDATORY_STAGES.get((engine, isolation, mode), set())
    assert mandatory <= names, (
        f"{engine}/{isolation}/{mode}: missing stages "
        f"{sorted(mandatory - names)} in {sorted(names)}"
    )

    for key in ("counters", "gauges", "histograms"):
        assert isinstance(payload["metrics"].get(key), dict)


def test_parallel_trace_attributes_worker_spans():
    """Pooled shards re-parent their spans under the pool span with a
    worker id on every adopted span."""
    report = check(two_component_history(), "si", "parallel", "polysi",
                   workers=2, oversubscribe=True)
    payload = validate_trace(report.stats["trace"])
    by_id = {s["id"]: s for s in payload["spans"]}
    pool = [s for s in payload["spans"] if s["name"] == "pool"]
    shards = [s for s in payload["spans"] if s["name"] == "shard"]
    assert len(pool) == 1
    assert len(shards) >= 2
    for shard in shards:
        assert shard["parent"] == pool[0]["id"]
        assert shard["worker"] is not None
    # shard children (the per-shard pipeline) carry the same attribution
    adopted_children = [s for s in payload["spans"]
                        if s["parent"] in {sh["id"] for sh in shards}]
    assert adopted_children, "per-shard stage spans must ride along"
    for child in adopted_children:
        assert child["worker"] == by_id[child["parent"]]["worker"]


def test_pooled_segmented_trace_attributes_segment_spans():
    report = check(_segmented_run(), "si", "segmented", "polysi",
                   workers=2, oversubscribe=True)
    payload = validate_trace(report.stats["trace"])
    segments = [s for s in payload["spans"] if s["name"] == "segment"]
    assert segments, "segmented checking must emit per-segment spans"
    assert all(s["worker"] is not None for s in segments)


def test_batch_trace_reports_closure_counters():
    """The per-backend closure counters surface in the payload metrics
    under the resolved backend's name."""
    report = check(serializable_history())
    payload = report.stats["trace"]
    backend = report.stats["closure_backend"]
    counters = payload["metrics"]["counters"]
    prefixed = {name for name in counters
                if name.startswith(f"closure.{backend}.")}
    assert prefixed, sorted(counters)


def test_batch_trace_reports_every_closure_seed():
    """One ``closure-seed`` span per kernel run — the first seed and
    each reseed, which no stage timing separates — and a ``seeds``
    counter that agrees with them."""
    history = generate_history(
        WorkloadParams(sessions=8, txns_per_session=24, ops_per_txn=8,
                       read_proportion=0.5, keys=300,
                       distribution="zipfian"), seed=1).history
    report = check(history)
    payload = validate_trace(report.stats["trace"])
    seeds = [s for s in payload["spans"] if s["name"] == "closure-seed"]
    assert [s["attrs"]["reseed"] for s in seeds][:2] == [False, True]
    for span in seeds:
        assert span["attrs"]["vertices"] == len(history) + 1
        assert span["attrs"]["dep"] > 0 and span["attrs"]["antidep"] >= 0
    backend = report.stats["closure_backend"]
    counters = payload["metrics"]["counters"]
    assert counters[f"closure.{backend}.seeds"] == len(seeds)


def test_trace_false_omits_the_payload():
    report = check(serializable_history(), trace=False)
    assert report.ok
    assert "trace" not in report.stats
