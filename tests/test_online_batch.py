"""A batch settles where its events, one by one, would have.

``OnlineChecker.extend`` runs the front half and the known-edge inserts
per arrival, and prunes, evicts and solves once at the batch end
(DESIGN.md S6, "Settling at a batch boundary"); ``add`` is a batch of
one.  On hypothesis-drawn streams — aborts, reads of the initial state,
delayed writers, small windows — the batched
checker is held to the per-event one:

- on a clean stream, every batch boundary shows the same verdict and
  accepted count, and — without a window — the same unresolved-
  constraint count;
- on a violating stream, the batched checker latches no later than the
  batch holding the per-event checker's first violating event;
- either way, snapshotting and restoring both checkers at every
  boundary keeps all of the above.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history import ABORTED, COMMITTED, R, W
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.online import OnlineChecker, WindowPolicy

from _helpers import delayed, simulated


@st.composite
def streams(draw):
    sessions = draw(st.integers(2, 4))
    events = simulated(
        draw(st.integers(0, 10_000)), draw(st.integers(8, 30)),
        isolation=draw(st.sampled_from(["snapshot", "snapshot",
                                        "read_committed"])),
        sessions=sessions, ops_per_txn=draw(st.integers(2, 5)),
        read_proportion=draw(st.sampled_from([0.3, 0.5, 0.8])),
        keys=draw(st.integers(3, 8)), distribution="uniform")
    for _ in range(draw(st.integers(0, 3))):
        events = delayed(events, draw(st.integers(0, 100)),
                         draw(st.integers(1, 6)))
    # Aborted writes nobody reads, some of them closing a batch.
    for tag in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(events)))
        key = f"k{draw(st.integers(0, 2))}"
        events.insert(at, (at % sessions, (W(key, f"aborted{tag}"),),
                           ABORTED))
    if draw(st.booleans()):
        # One more session, first seen late, reading the initial state.
        at = draw(st.integers(0, len(events)))
        events.insert(at, (sessions, (R("k0", None), W("k0", "late")),
                           COMMITTED))
        sessions += 1
    cuts = draw(st.sets(st.integers(1, len(events) - 1)))
    return {
        "events": events,
        "sessions": sessions,
        "batches": sorted(cuts) + [len(events)],
        "window": draw(st.one_of(st.none(), st.tuples(
            st.integers(2, 10), st.sampled_from([0, 2, 5])))),
        "solve_every": draw(st.sampled_from([1, 4])),
    }


def new_checker(stream):
    window = stream["window"]
    return OnlineChecker(
        solve_every=stream["solve_every"],
        window=WindowPolicy(*window) if window else None,
        sessions=range(stream["sessions"]) if window else None)


def observed(checker, result):
    return (result.satisfies_si, result.stats.get("accepted"),
            checker.unresolved_constraints)


def restored(checker):
    return OnlineChecker.restore(json.loads(json.dumps(checker.snapshot())))


def per_event(stream, *, restore):
    """What the per-event checker shows after each event, and its final
    verdict.  With ``restore``, it is snapshotted and restored where the
    batched checker is: a restore alone can move a latch — a known edge
    that conflicts with what the solver learned at the root is caught
    at the next solve instead (DESIGN.md S14)."""
    checker, rows = new_checker(stream), []
    for seen, (session, ops, status) in enumerate(stream["events"], 1):
        result = checker.add(session, ops, status=status)
        rows.append(observed(checker, result))
        if restore and result.satisfies_si and seen in stream["batches"]:
            checker = restored(checker)
    return rows, checker.finish().satisfies_si


def batched(stream, *, restore):
    """What the batched checker shows at each boundary (``None`` once it
    has latched a violation), and its final verdict."""
    checker, rows, start = new_checker(stream), {}, 0
    for end in stream["batches"]:
        result = checker.extend(stream["events"][start:end])
        rows[end] = observed(checker, result) if result.satisfies_si else None
        if restore and result.satisfies_si:
            checker = restored(checker)
        start = end
    return rows, checker.finish().satisfies_si


def assert_settles_like_per_event(stream, *, restore):
    rows, verdict = per_event(stream, restore=restore)
    boundaries, batched_verdict = batched(stream, restore=restore)
    assert batched_verdict == verdict
    if not verdict:
        first_violation = next(
            (seen for seen, row in enumerate(rows, 1) if not row[0]), None)
        for end, row in boundaries.items():
            if first_violation is not None and end >= first_violation:
                assert row is None, (end, first_violation)
        return
    for end, row in boundaries.items():
        if stream["window"] is None:
            assert row == rows[end - 1], end
        else:
            # An evicted reader takes its anti-dependencies with it, and
            # the two checkers evict at different times, so one can
            # leave to the solver a constraint the other's fixpoint
            # resolves (DESIGN.md S6): compare verdict and count only.
            assert row[:2] == rows[end - 1][:2], end


@settings(max_examples=150, deadline=None)
@given(streams())
def test_every_boundary_shows_what_the_per_event_checker_shows(stream):
    assert_settles_like_per_event(stream, restore=False)


@settings(max_examples=60, deadline=None)
@given(streams())
def test_batches_settle_like_events_across_restores(stream):
    assert_settles_like_per_event(stream, restore=True)


# -- the settling rules, by example -------------------------------------------


def test_a_batch_of_aborts_settles_nothing():
    checker = OnlineChecker()
    checker.extend([(0, [W("x", 1)]), (1, [W("x", 2)])])
    asked = checker.result().stats["prune_asked"]
    tracer = Tracer()
    with use_tracer(tracer):
        checker.extend([(2, [W("x", 3)], ABORTED), (2, [W("y", 1)], ABORTED)])
    assert checker.result().stats["prune_asked"] == asked
    assert [s["name"] for s in tracer.export_spans()] == ["event", "event"]


def test_a_batch_ending_in_an_abort_still_settles():
    """T2 reads x=1 and overwrites it: T1 -> T2 on x, resolved by the
    fixpoint the batch ends with, though its last item aborted."""
    checker = OnlineChecker()
    checker.extend([(0, [W("x", 1)]), (1, [R("x", 1), W("x", 2)]),
                    (2, [W("y", 1)], ABORTED)])
    assert checker.unresolved_constraints == 0
    assert checker.result().stats["solves"] == 0


@pytest.mark.parametrize("solve_every,solves", [(1, 2), (4, 1), (8, 0)])
def test_a_batch_solves_when_it_crosses_a_multiple(solve_every, solves):
    """Three writers of x in one batch, then three more: the constraints
    between them survive pruning (nothing reads x)."""
    checker = OnlineChecker(solve_every=solve_every)
    checker.extend([(s, [W("x", s + 1)]) for s in range(3)])
    checker.extend([(s, [W("x", s + 11)]) for s in range(3)])
    stats = checker.result().stats
    assert stats["unresolved_constraints"] > 0
    assert stats["solves"] == solves


def test_prune_gc_and_solve_are_one_root_span_per_batch():
    events = simulated(3, 60, sessions=4, ops_per_txn=4,
                       read_proportion=0.5, keys=10, distribution="uniform")
    checker = OnlineChecker(window=WindowPolicy(max_live=8),
                            sessions=range(4))
    registry, seen = MetricsRegistry(), {"gc": 0, "solve": 0}
    for start in range(0, len(events), 12):
        batch = events[start:start + 12]
        tracer = Tracer()
        with use_tracer(tracer), use_metrics(registry):
            assert checker.extend(batch).satisfies_si
        spans = [s for s in tracer.export_spans()
                 if s["name"] in ("event", "prune", "gc", "solve")]
        assert all(s["parent"] is None for s in spans)
        names = [s["name"] for s in spans]
        assert names.count("event") == len(batch)
        assert names.count("prune") == 1
        for stage in seen:
            assert names.count(stage) <= 1, stage
            seen[stage] += names.count(stage)
    assert all(seen.values()), seen
    stats = checker.result().stats
    gauges = registry.snapshot()["gauges"]
    assert gauges["online.accepted"] == stats["accepted"]
    assert gauges["window.evicted"] == stats["window"]["evicted"] > 0


def test_a_cycle_latches_on_the_edge_that_closes_it():
    """T2's arrival closes a Dep cycle (its write of y is what T1 read,
    and it read T1's x): the rest of the batch is not ingested."""
    checker = OnlineChecker()
    result = checker.extend([
        (0, [R("y", 1), W("x", 1)]),
        (1, [R("x", 1), W("y", 1)]),
        (2, [W("z", 1)]),
    ])
    assert not result.satisfies_si
    assert result.stats["accepted"] == 2


def test_an_ingest_error_settles_what_the_batch_accepted():
    checker = OnlineChecker()
    with pytest.raises(ValueError):
        checker.extend([(0, [W("x", 1)]), (1, [R("x", 1), W("x", 2)]),
                        (2, [W("x", 1)])])
    stats = checker.result().stats
    assert stats["accepted"] == 2
    assert stats["unresolved_constraints"] == 0
