"""Differential sweep: every registered SI-capable (engine, mode) combo
must agree with the serial PolySI pipeline on the known-anomaly corpus
(and on satisfying histories).

The combos under test are *derived from the registry*, so registering a
new SI backend automatically enrolls it here.  One documented exception:
dbcop is faithfully incomplete for non-cyclic anomalies (Section 7 of
the paper; see tests/test_baselines.py) — the aborted-read and
intermediate-read classes are asserted as its known blind spots instead
of skipped, so a fixed dbcop would show up as a failure to *tighten*.
"""

import pytest

from repro.api import check, get_engine, list_engines
from repro.core.checker import PolySIChecker
from repro.workloads.corpus import (
    ANOMALY_TEMPLATES,
    known_anomaly_corpus,
    make_anomaly,
)

from _helpers import serializable_history, write_skew_history


def si_history_combos():
    """Every registered (engine, mode) claiming SI support over plain
    histories."""
    combos = []
    for spec in list_engines():
        for isolation, mode in sorted(spec.combos):
            if isolation == "si" and spec.input_kind("si", mode) == "history":
                combos.append((spec.name, mode))
    return combos


#: Anomaly classes an engine documents as undetectable (faithful
#: incompleteness, not a bug).
KNOWN_BLIND_SPOTS = {
    "dbcop": {"aborted-read", "intermediate-read"},
}


def _options(engine, mode):
    return {"workers": 2} if mode == "parallel" else {}


def test_registry_enrolls_the_expected_si_combos():
    combos = si_history_combos()
    assert ("polysi", "batch") in combos
    assert ("polysi", "online") in combos
    assert ("polysi", "parallel") in combos
    assert ("cobrasi", "batch") in combos
    assert ("dbcop", "batch") in combos
    assert ("naive", "batch") in combos


@pytest.mark.parametrize("engine,mode", si_history_combos())
def test_anomaly_templates_flagged_by_every_si_combo(engine, mode):
    """Every unpadded anomaly template violates SI under every combo
    (modulo documented blind spots, which must stay blind)."""
    blind = KNOWN_BLIND_SPOTS.get(engine, set())
    reference = PolySIChecker()
    for name in sorted(ANOMALY_TEMPLATES):
        history = make_anomaly(name, seed=7)
        assert not reference.check(history).satisfies_si, name
        report = check(history, "si", mode, engine, **_options(engine, mode))
        if name in blind:
            assert report.ok, (
                f"{engine} detected {name!r}: its documented blind spot "
                "closed — update KNOWN_BLIND_SPOTS"
            )
        else:
            assert not report.ok, (engine, mode, name)


@pytest.mark.parametrize("engine,mode", si_history_combos())
def test_satisfying_histories_pass_every_si_combo(engine, mode):
    for history in (serializable_history(), write_skew_history()):
        report = check(history, "si", mode, engine,
                       **_options(engine, mode))
        assert report.ok, (engine, mode)


@pytest.mark.parametrize("engine,mode", si_history_combos())
def test_padded_corpus_slice_agrees_with_serial_polysi(engine, mode):
    """One padded corpus history per anomaly class, swept through every
    SI combo: verdicts must match the serial PolySI pipeline."""
    blind = KNOWN_BLIND_SPOTS.get(engine, set())
    reference = PolySIChecker()
    for name, history in known_anomaly_corpus(len(ANOMALY_TEMPLATES),
                                              seed=3):
        if name in blind:
            continue
        expected = reference.check(history).satisfies_si
        report = check(history, "si", mode, engine,
                       **_options(engine, mode))
        assert report.ok == expected, (engine, mode, name)


@pytest.mark.parametrize("name", sorted(ANOMALY_TEMPLATES))
def test_parallel_mode_is_batch(name):
    """``mode="parallel"`` is kept only as a compatibility alias of
    ``mode="batch"``: everything it reports but the trace is batch's."""
    history = make_anomaly(name, seed=7)
    batch = check(history, "si", "batch")
    alias = check(history, "si", "parallel", workers=2)
    assert (alias.ok, alias.decided_by, alias.cycle) == (
        batch.ok, batch.decided_by, batch.cycle)
    assert [repr(a) for a in alias.anomalies] == [
        repr(a) for a in batch.anomalies]
    assert ({k: v for k, v in alias.stats.items() if k != "trace"}
            == {k: v for k, v in batch.stats.items() if k != "trace"})
