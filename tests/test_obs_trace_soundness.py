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
    ("polysi", "si", "parallel"): {"axioms", "construct", "prune"},
    ("polysi", "si", "segmented"): {"segment"},
}


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
    return serializable_history()


def options_for(mode):
    # The parallel alias still takes the worker count its one caller
    # passes (and ignores it).
    return {"workers": 2} if mode == "parallel" else {}


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


def test_batch_trace_reports_closure_counters():
    """The closure counters surface in the payload metrics under the
    name of batch pruning's kernel."""
    report = check(serializable_history())
    payload = report.stats["trace"]
    backend = report.stats["closure_backend"]
    assert backend == "python"
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
