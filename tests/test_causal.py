"""Tests for the TCC and Read Atomicity checkers (repro.extensions.causal).

The load-bearing property is Figure 1's hierarchy: SER > SI > TCC > RA.
Every SI-consistent history must satisfy TCC and RA; the classic
anomalies separate the levels exactly as the literature says.

Both levels read the history through PolySI's front half
(``repro.core.polygraph``), so whenever ``check(h)`` decides by its
anomaly list, TCC and RA report that same list.
``tests/data/weak_verdicts_c41c682.json`` holds the verdict and deciding
stage of both levels on every corpus template and 300 random histories
as commit ``c41c682`` wrote them; every one must be the same today.

Regenerate the pin (only from the build the file is named after)::

    PYTHONPATH=src python tests/test_causal.py OUT.json
"""

import json
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import check
from repro.core.checker import PolySIChecker
from repro.core.history import (
    ABORTED,
    DuplicateValueError,
    HistoryBuilder,
    R,
    W,
)
from repro.storage.faults import FaultConfig
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.random_histories import random_history

from _helpers import (
    build,
    causality_history,
    long_fork_history,
    lost_update_history,
    serializable_history,
    write_skew_history,
)


def check_tcc(history):
    """The native TCC verdict (:class:`~repro.extensions.WeakCheckResult`)."""
    return check(history, isolation="causal", trace=False).native


def check_ra(history):
    """The native Read Atomicity verdict."""
    return check(history, isolation="ra", trace=False).native


class TestLevelSeparations:
    """The classic anomalies land exactly between the levels."""

    def test_long_fork_separates_si_from_tcc(self):
        h = long_fork_history()
        assert not PolySIChecker().check(h).satisfies_si
        assert check_tcc(h).satisfies

    def test_lost_update_separates_si_from_tcc(self):
        h = lost_update_history()
        assert not PolySIChecker().check(h).satisfies_si
        assert check_tcc(h).satisfies

    def test_causality_violation_separates_tcc_from_ra(self):
        h = causality_history()
        assert not check_tcc(h).satisfies
        assert check_ra(h).satisfies

    def test_fractured_read_violates_ra(self):
        h = make_anomaly("read-skew", seed=1)
        result = check_ra(h)
        assert not result.satisfies
        assert any(a.axiom == "FracturedRead" for a in result.anomalies)

    def test_valid_histories_pass_everything(self):
        for h in (serializable_history(), write_skew_history()):
            assert check_tcc(h).satisfies
            assert check_ra(h).satisfies


class TestTccBadPatterns:
    def test_write_co_read(self):
        # w -CO-> w' -CO-> r, r reads from w: causally overwritten.
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])                  # w
        b.txn(1, [R("x", 1), W("x", 2), W("m", 1)])  # w' observed w
        b.txn(2, [R("m", 1)])                  # r causally after w'
        b.txn(2, [R("x", 1)])                  # ...but reads w's version
        result = check_tcc(b.build())
        assert not result.satisfies
        assert any(a.axiom == "WriteCORead" for a in result.anomalies)

    def test_write_co_init_read(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1), W("m", 1)])
        b.txn(1, [R("m", 1)])        # causally after the writer
        b.txn(1, [R("x", None)])     # yet reads the initial state
        result = check_tcc(b.build())
        assert not result.satisfies
        assert any(a.axiom == "WriteCOInitRead" for a in result.anomalies)

    def test_cyclic_information_flow_fails_tcc(self):
        h = build([R("y", 2), W("x", 1)], [R("x", 1), W("y", 2)])
        result = check_tcc(h)
        assert not result.satisfies
        assert any(a.axiom == "CyclicCO" for a in result.anomalies)

    def test_axioms_checked_first(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)], status=ABORTED)
        b.txn(1, [R("x", 1)])
        result = check_tcc(b.build())
        assert not result.satisfies
        assert result.anomalies[0].axiom == "AbortedReads"

    def test_describe(self):
        result = check_tcc(causality_history())
        assert "violates TCC" in result.describe()


class TestRaDetails:
    def test_mixed_initial_and_written_cells(self):
        # Reader sees w's x but the initial y although w wrote both.
        b = HistoryBuilder()
        b.txn(0, [W("x", 1), W("y", 1)])
        b.txn(1, [R("x", 1), R("y", None)])
        result = check_ra(b.build())
        assert not result.satisfies

    def test_reading_newer_other_key_allowed(self):
        # Seeing a *newer* version of the second key is not fractured.
        b = HistoryBuilder()
        b.txn(0, [W("x", 1), W("y", 1)])
        b.txn(1, [R("y", 1), W("y", 2)])
        b.txn(2, [R("x", 1), R("y", 2)])
        assert check_ra(b.build()).satisfies

    def test_single_key_reads_never_fractured(self):
        h = causality_history()
        assert check_ra(h).satisfies


class TestHierarchyProperties:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, deadline=None)
    def test_si_implies_tcc_implies_ra(self, seed):
        rng = random.Random(seed)
        h = random_history(rng, sessions=3, txns_per_session=2,
                           max_ops=4, keys=3, abort_prob=0.1)
        si = PolySIChecker().check(h).satisfies_si
        tcc = check_tcc(h).satisfies
        ra = check_ra(h).satisfies
        if si:
            assert tcc, "SI history failed TCC"
        if tcc:
            assert ra, "TCC history failed RA"

    @pytest.mark.parametrize("seed", range(4))
    def test_si_store_histories_pass_weak_levels(self, seed):
        params = WorkloadParams(sessions=5, txns_per_session=8,
                                ops_per_txn=5, keys=10,
                                distribution="uniform")
        run = generate_history(params, seed=seed)
        assert check_tcc(run.history).satisfies
        assert check_ra(run.history).satisfies

    def test_no_fcw_store_is_still_causal(self):
        """Dropping first-committer-wins yields lost updates (SI broken)
        but keeps causal consistency — snapshots stay causally closed."""
        params = WorkloadParams(sessions=5, txns_per_session=10,
                                ops_per_txn=5, keys=5,
                                distribution="uniform")
        si_broken = tcc_broken = 0
        for seed in range(10):
            run = generate_history(
                params, seed=seed,
                faults=FaultConfig(no_first_committer_wins=True),
            )
            if not PolySIChecker().check(run.history).satisfies_si:
                si_broken += 1
            if not check_tcc(run.history).satisfies:
                tcc_broken += 1
        assert si_broken > 0
        assert tcc_broken == 0

    def test_stale_snapshot_store_breaks_tcc(self):
        params = WorkloadParams(sessions=5, txns_per_session=10,
                                ops_per_txn=5, keys=6,
                                distribution="uniform")
        found = False
        for seed in range(15):
            run = generate_history(
                params, seed=seed,
                faults=FaultConfig(stale_snapshot_prob=0.5,
                                   stale_snapshot_depth=10),
            )
            if not check_tcc(run.history).satisfies:
                found = True
                break
        assert found


# -- one front half -------------------------------------------------------------

PIN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "weak_verdicts_c41c682.json")
WEAK_LEVELS = ("causal", "ra")


def pinned_histories():
    """(name, history): every corpus template at seeds 0-2 with six
    padding transactions, then 300 seeded random histories (aborts on
    odd seeds)."""
    for name in sorted(ANOMALY_TEMPLATES):
        for seed in range(3):
            yield f"{name}/{seed}", make_anomaly(name, seed=seed,
                                                 padding_txns=6)
    for seed in range(300):
        yield f"random/{seed}", random_history(
            random.Random(seed), sessions=3, txns_per_session=3,
            max_ops=4, keys=3, abort_prob=0.2 if seed % 2 else 0.0)


def weak_verdicts():
    """Per pinned history and weak level: ``ok`` and ``decided_by``."""
    out = {}
    for name, history in pinned_histories():
        for level in WEAK_LEVELS:
            report = check(history, isolation=level, trace=False)
            out[f"{name}/{level}"] = {"ok": report.ok,
                                      "decided_by": report.decided_by}
    return out


def test_weak_verdicts_match_the_build_that_pinned_them():
    with open(PIN_FILE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert len(pinned) == (9 * 3 + 300) * len(WEAK_LEVELS)
    assert weak_verdicts() == pinned


def _reported(subject, **level):
    """The anomaly list of ``check(subject, **level)`` in full, or the
    UniqueValue violation it raised."""
    try:
        report = check(subject, trace=False, **level)
    except DuplicateValueError:
        return "DuplicateValueError", None
    return report.decided_by, [
        (a.axiom, a.txn.name, a.key, a.value, a.detail)
        for a in report.anomalies]


def _rewritten(history, rng):
    """``history`` with one write's value replaced by another write's
    value on the same key, from another transaction (it may break
    UniqueValue, or only make an aborted write repeat a committed
    one)."""
    writes = [(t.tid, i, op) for t in history.transactions
              for i, op in enumerate(t.ops) if op.is_write]
    tid, at, op = rng.choice(writes)
    donors = [o.value for t, _i, o in writes if t != tid and o.key == op.key]
    builder = HistoryBuilder()
    for session in history.sessions:
        for txn in session:
            ops = list(txn.ops)
            if txn.tid == tid and donors:
                ops[at] = W(op.key, rng.choice(donors))
            builder.txn(txn.session, ops, status=txn.status)
    return builder.build()


@given(st.integers(min_value=0, max_value=10_000_000),
       st.sampled_from([0.0, 0.2, 0.4]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_weak_levels_report_polysis_anomalies(seed, abort_prob, rewrite):
    """Whenever PolySI decides by its anomaly list, TCC and RA return
    that list; a UniqueValue violation is raised by all three or by
    none."""
    rng = random.Random(seed)
    history = random_history(rng, sessions=3, txns_per_session=3,
                             max_ops=4, keys=3, abort_prob=abort_prob)
    if rewrite:
        history = _rewritten(history, rng)
    si = _reported(history)
    for level in WEAK_LEVELS:
        weak = _reported(history, isolation=level)
        if "DuplicateValueError" in (si[0], weak[0]):
            assert weak[0] == si[0], level
        elif si[0] == "axioms":
            assert weak == si, level


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(weak_verdicts(), out, indent=1, sort_keys=True)
        out.write("\n")
