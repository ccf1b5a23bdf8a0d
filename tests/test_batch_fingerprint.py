"""What the batch checker answers, pinned to a parent commit's answers.

``tests/data/batch_fingerprint_9aaf820.json`` was written by commit
``9aaf820`` running this file as a script (before constraints stayed
compact through pruning).  For each unit — small seeded histories shaped
like the ``general_rh`` and ``general_rw`` benchmark workloads, plus
every corpus template with padding — and each closure kernel (``unit@python``,
``unit@numpy``), it holds the verdict, ``decided_by``, the witness
cycle, the classification, the pruning counters, the
``closure.<kernel>.*`` counters, the encoding and solver stats, and a
digest of the pruned graph's known edges *in order*.  The test holds the
current build to the answers and the pruning work byte for byte —
verdict, ``decided_by``, witness, classification, finalized digest,
pruning counters, known-edge digest and every ``closure.<kernel>.*``
counter but ``inserts_known`` and ``queries`` — and ``queries`` and
every encoding size (``vars``, ``clauses``, ``induced_edges``,
``static_induced_edges``, ``aux_vars``) to at most the parent's.
Since pruning's first iteration decides each key's writer pairs from
one row per writer (DESIGN.md S9), it asks fewer closure lookups.
Since promotion installs each key's version order as a chain
(DESIGN.md S9), the closure flushes insert fewer already-known pairs
and the encoder sees a smaller known graph, so ``inserts_known``,
``solver`` and ``solver_vertices`` are recorded, not held.  The
``@python`` rows run as batch pruning
ships, the ``@numpy`` rows with the numpy kernel swapped into the
fixpoint (``_helpers.batch_on_kernel``), so the numpy kernel answers the
batch fixpoint's own insert and reseed sequence as the parent's did.  A
second test holds the ``polygraph.branch_edges`` work counter to what
each polygraph form builds: the branches asked for, in either form.  A
third pins the ``compact=False`` ablation polygraph, edge for edge, to
the construction that wrote explicit edge lists
(``_helpers.explicit_constraints_reference``), on every unit, on
random histories and on the Fig. 10 ablation workloads.

Regenerate (only ever from the commit the file name records)::

    PYTHONPATH=src python tests/test_batch_fingerprint.py OUT.json
"""

import hashlib
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.axioms import check_axioms
from repro.core.checker import CheckResult, PolySIChecker
from repro.core.polygraph import build_polygraph
from repro.interpret import interpret_violation
from repro.obs import MetricsRegistry, use_metrics
from repro.storage.client import run_workload
from repro.storage.database import MVCCDatabase
from repro.workloads.benchmarks import (
    ctwitter_workload,
    rubis_workload,
    tpcc_workload,
)
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.random_histories import random_history

from _helpers import (
    KERNELS,
    batch_on_kernel,
    explicit_constraints_reference,
    polygraph_reference,
)

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "batch_fingerprint_9aaf820.json")
KERNEL_NAMES = tuple(KERNELS)

#: The benchmark's batch shapes, scaled down to a fraction of a second.
GENERAL = {
    "general_rh": dict(sessions=8, txns_per_session=40, ops_per_txn=8,
                       read_proportion=0.95, keys=1_000,
                       distribution="zipfian"),
    "general_rw": dict(sessions=8, txns_per_session=30, ops_per_txn=8,
                       read_proportion=0.5, keys=300, distribution="zipfian"),
}
GENERAL_SEEDS = (1, 3, 4242)
CORPUS = dict(seed=7, padding_txns=40)


def unit_history(unit):
    kind, name = unit.split("/", 1)
    if kind == "corpus":
        return make_anomaly(name, **CORPUS)
    return generate_history(WorkloadParams(**GENERAL[kind]), seed=int(name),
                            isolation="snapshot").history


def units():
    return ([f"{kind}/{seed}" for kind in sorted(GENERAL)
             for seed in GENERAL_SEEDS]
            + [f"corpus/{name}" for name in sorted(ANOMALY_TEMPLATES)])


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def fingerprint(unit, kernel):
    """One unit checked through the checker's own two stages, so the
    pruned polygraph stays reachable for the known-edge digest."""
    checker = PolySIChecker()
    result = CheckResult()
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch, use_metrics(registry):
        batch_on_kernel(patch, kernel)
        graph = checker.construct(unit_history(unit), result)
        if graph is not None:
            checker.check_polygraph(graph, result)
    counters = registry.snapshot()["counters"]
    out = {
        "satisfies_si": result.satisfies_si,
        "decided_by": result.decided_by,
        "cycle": [[u, v, label, repr(key)]
                  for u, v, label, key in result.cycle or ()],
        "pruning": (result.prune_result.as_dict()
                    if result.prune_result is not None else None),
        "closure": {name: value for name, value in counters.items()
                    if name.startswith("closure.")},
        "encoding": (result.encoding.stats()
                     if result.encoding is not None else None),
        "solver": result.solver_stats,
        "solver_vertices": result.stats.get("solver_vertices"),
        "known_edges": (None if graph is None else
                        [len(graph.known_edges), digest(graph.known_edges)]),
        "classification": None,
        "finalized": None,
    }
    if not result.satisfies_si:
        example = interpret_violation(result)
        out["classification"] = example.classification
        out["finalized"] = digest(example.finalized)
    return out


def all_fingerprints():
    return {f"{unit}@{kernel}": fingerprint(unit, kernel)
            for unit in units() for kernel in KERNEL_NAMES}


if os.path.exists(DATA):
    with open(DATA, encoding="utf-8") as _handle:
        PARENT = json.load(_handle)
else:  # pragma: no cover - only while writing the file
    PARENT = {}


#: Fields held byte-identical to the parent's.
IDENTICAL = ("satisfies_si", "decided_by", "cycle", "pruning", "known_edges",
             "classification", "finalized")
#: Encoding sizes held at or below the parent's: promotion installs
#: only the pairs the rest of an iteration does not imply, so the
#: solver's substrate and the terms derived against it can only shrink.
AT_MOST = ("vars", "clauses", "induced_edges", "static_induced_edges",
           "aux_vars")
#: Closure counters that count pairs inserted, so depend on how many
#: pairs promotion installs: recorded, not held.
UNHELD_CLOSURE = ("inserts_known",)
#: Closure counters held at or below the parent's: the first iteration
#: fetches each key's writers' rows once and decides the pairs they
#: order without asking them one by one.
AT_MOST_CLOSURE = ("queries",)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("unit", units())
def test_answers_written_by_the_parent_commit(unit, kernel):
    """Same answers, same pruning and closure work, no larger encoding.
    ``solver`` and ``solver_vertices`` follow the encoding and are
    recorded, not held."""
    want = PARENT[f"{unit}@{kernel}"]
    got = json.loads(json.dumps(fingerprint(unit, kernel)))
    assert set(got) == set(want)
    for field in IDENTICAL:
        assert got[field] == want[field], (unit, kernel, field)

    def held(counters):
        """(counters held identical, counters held at most)."""
        same, most = {}, {}
        for name, value in counters.items():
            kind = name.rsplit(".", 1)[1]
            if kind in AT_MOST_CLOSURE:
                most[name] = value
            elif kind not in UNHELD_CLOSURE:
                same[name] = value
        return same, most

    (got_same, got_most), (want_same, want_most) = (
        held(got["closure"]), held(want["closure"]))
    assert got_same == want_same, (unit, kernel)
    assert set(got_most) <= set(want_most), (unit, kernel)
    for name, value in want_most.items():
        assert got_most.get(name, 0) <= value, (unit, kernel, name)
    if want["encoding"] is None:
        assert got["encoding"] is None, (unit, kernel)
    else:
        assert set(got["encoding"]) == set(want["encoding"]) == set(AT_MOST)
        for name in AT_MOST:
            assert got["encoding"][name] <= want["encoding"][name], (
                unit, kernel, name)


def test_the_units_exercise_what_they_pin():
    """Both batch shapes satisfy SI and keep a solver's worth of
    constraints somewhere; the corpus violates in pruning and solving."""
    assert set(PARENT) == {f"{unit}@{kernel}" for unit in units()
                           for kernel in KERNEL_NAMES}
    general = [fp for name, fp in PARENT.items()
               if name.startswith("general")]
    assert all(fp["satisfies_si"] for fp in general)
    assert any(fp["decided_by"] == "solving" for fp in general)
    corpus = [fp for name, fp in PARENT.items() if name.startswith("corpus")]
    assert not any(fp["satisfies_si"] for fp in corpus)
    assert {"pruning", "solving"} <= {fp["decided_by"] for fp in corpus}


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("unit", ["general_rh/3", "general_rw/1",
                                  "corpus/read-skew"])
def test_branch_edges_counts_what_was_built(unit, compact):
    """``polygraph.branch_edges`` on the ``prune`` and ``encode`` spans
    and in the metrics: either polygraph form builds the branches of the
    constraints that reach the encoder (or of a pruning witness), and
    no others."""
    report = repro.check(unit_history(unit), compact=compact)
    pruning = report.native.prune_result
    spans = {span["name"]: span["attrs"].get("branch_edges")
             for span in report.stats["trace"]["spans"]
             if span["name"] in ("prune", "encode")}
    counted = report.stats["trace"]["metrics"]["counters"].get(
        "polygraph.branch_edges", 0)
    assert counted == sum(spans.values())
    if report.ok:
        assert spans["prune"] == 0
        assert spans.get("encode", 0) == pruning.unknown_deps_after
    else:
        witness = pruning.violation_constraint
        assert 0 < witness.num_unknown_deps <= spans["prune"]
        assert spans["prune"] < pruning.unknown_deps_before


def assert_ablation_pinned(history):
    """``build_polygraph(compact=False)`` emits, in order, the explicit
    Definition 8 constraints of the compact polygraph's — and of the
    Definition 9 transcription's, where the axioms let it apply — with
    the counts the decomposition implies: ``U - C`` constraints and
    ``3U - 4C`` unknown dependencies for ``C``, ``U`` of the compact
    polygraph."""
    compact, _ = build_polygraph(history)
    explicit, _ = build_polygraph(history, compact=False)
    got = [(c.key, c.either, c.orelse) for c in explicit.constraints]
    assert got == explicit_constraints_reference(
        [(c.key, c.either, c.orelse) for c in compact.constraints])
    if not check_axioms(history):
        _known, _readers, definition_9 = polygraph_reference(history)
        assert got == explicit_constraints_reference(
            [(key, either, orelse)
             for key, _pair, either, orelse in definition_9])
    c, u = compact.num_constraints, compact.num_unknown_deps
    assert explicit.num_constraints == u - c
    assert explicit.num_unknown_deps == 3 * u - 4 * c


@pytest.mark.parametrize("unit", units())
def test_ablation_polygraph_is_the_explicit_construction(unit):
    assert_ablation_pinned(unit_history(unit))


def fig10_history(name):
    """A Fig. 10 ablation workload at a size the suite affords: the three
    application workloads run on the MVCC store, and the write-heavy
    general shape the units lack."""
    if name == "GeneralWH":
        return generate_history(WorkloadParams(
            sessions=4, txns_per_session=10, ops_per_txn=8,
            read_proportion=0.3, keys=60, distribution="zipfian"),
            seed=1).history
    workload = {"RUBiS": rubis_workload, "TPC-C": tpcc_workload,
                "C-Twitter": ctwitter_workload}[name]
    spec = workload(sessions=4, total_txns=80, seed=1)
    return run_workload(MVCCDatabase(seed=1), spec, seed=1).history


@pytest.mark.parametrize("name", ["RUBiS", "TPC-C", "C-Twitter", "GeneralWH"])
def test_ablation_polygraph_on_fig10_workloads(name):
    assert_ablation_pinned(fig10_history(name))


@given(seed=st.integers(0, 10_000_000), sessions=st.integers(1, 4),
       txns=st.integers(1, 4), keys=st.integers(1, 3),
       abort=st.sampled_from([0.0, 0.15]))
@settings(max_examples=150, deadline=None)
def test_ablation_polygraph_on_random_histories(seed, sessions, txns, keys,
                                                abort):
    assert_ablation_pinned(random_history(
        random.Random(seed), sessions=sessions, txns_per_session=txns,
        max_ops=4, keys=keys, abort_prob=abort))


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(all_fingerprints(), handle, indent=1, sort_keys=True)
        handle.write("\n")
