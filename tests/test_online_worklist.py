"""The online checker asks only what an event changed — and no skipped
question mattered.

``OnlineChecker._prune_fixpoint`` asks only *dirty* constraints and
``_evict_closed`` examines only *candidate* vertices (DESIGN.md S6,
"What an event can change").  Three kinds of evidence that the skipped
questions would have been answered "no":

- after every event of hypothesis-drawn streams, the full-rescan
  references of ``tests/_helpers.py``, run on a deep copy, resolve
  nothing and evict nothing the worklist passes do not;
- per-event trails written by the full-rescan build (commit
  ``2db6a61``) for small stream-shaped tenants are reproduced exactly;
- the new indexes hold nothing for a vertex or constraint that is gone.
"""

import copy
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history import ABORTED, COMMITTED, Operation, R, W
from repro.core.known import mask_of
from repro.histories.codec import history_to_events
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.online import OnlineChecker, WindowPolicy
from repro.workloads.corpus import make_anomaly

from _helpers import (
    KERNELS,
    delayed,
    evict_closed_reference,
    prune_fixpoint_reference,
    online_on_kernel,
    simulated,
)

HERE = os.path.dirname(os.path.abspath(__file__))
KERNEL_NAMES = sorted(KERNELS)


# -- no skipped question mattered ---------------------------------------------


@st.composite
def streams(draw):
    sessions = draw(st.integers(2, 4))
    events = simulated(
        draw(st.integers(0, 10_000)), draw(st.integers(6, 28)),
        sessions=sessions, ops_per_txn=draw(st.integers(2, 5)),
        read_proportion=draw(st.sampled_from([0.3, 0.5, 0.8])),
        keys=draw(st.integers(3, 10)), distribution="uniform")
    for _ in range(draw(st.integers(0, 3))):
        events = delayed(events, draw(st.integers(0, 100)),
                         draw(st.integers(1, 6)))
    extra = draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
    if extra is not None:
        # One more declared session, committing late (or, at 1.0, only
        # at the very end): nothing is evictable before it has, and its
        # first transaction reads the initial state.
        at = round(extra * len(events))
        events.insert(at, (sessions, (R("k0", None), W("k0", "late")),
                           COMMITTED))
        sessions += 1
    return {
        "events": events,
        "sessions": sessions,
        "max_live": draw(st.integers(2, 10)),
        "gc_every": draw(st.sampled_from([0, 2, 5])),
        "restore_at": draw(st.one_of(st.none(),
                                     st.integers(1, len(events)))),
        "solve_every": draw(st.sampled_from([1, 4])),
    }


def assert_nothing_skipped_mattered(checker):
    reference = copy.deepcopy(checker)
    prune_fixpoint_reference(reference)
    assert reference._violation is None
    assert list(reference._unresolved) == list(checker._unresolved)
    by_reference, by_worklist = (copy.deepcopy(checker) for _ in range(2))
    evict_closed_reference(by_reference)
    by_worklist._evict_closed()
    assert (list(by_worklist._front.txn_of)
            == list(by_reference._front.txn_of))


@settings(max_examples=60, deadline=None)
@given(streams())
def test_the_references_resolve_and_evict_nothing_more(stream):
    checker = OnlineChecker(
        solve_every=stream["solve_every"],
        window=WindowPolicy(max_live=stream["max_live"],
                            gc_every=stream["gc_every"]),
        sessions=range(stream["sessions"]))
    for seen, (session, ops, status) in enumerate(stream["events"], 1):
        if not checker.add(session, ops, status=status).satisfies_si:
            return
        assert_nothing_skipped_mattered(checker)
        if seen == stream["restore_at"]:
            checker = OnlineChecker.restore(
                json.loads(json.dumps(checker.snapshot())))
            assert checker._dirty == set(checker._unresolved)
            assert checker._candidates == set(checker._front.txn_of)
    checker.finish()


#: Shrunk from a stream on which eviction went wrong when a vertex whose
#: last unresolved constraint resolved (the other writer first, so it
#: gained no WW successor) was not made a candidate again.
LAST_CONSTRAINT_RESOLVES = [
    (1, (W("k0", 21), W("k0", 22))), (2, (W("k2", 48), W("k1", 49))),
    (0, (R("k2", 48), W("k0", 7))), (2, (R("k0", 7), W("k0", 51))),
    (3, (W("k2", 66), W("k2", 67))), (2, (R("k0", 51), W("k2", 52))),
    (1, (R("k1", 50), R("k2", 67))), (0, (R("k0", 51), W("k0", 8))),
    (3, (R("k2", 52), R("k2", 52))), (0, (W("k1", 9), W("k1", 10))),
    (1, (R("k1", 10), W("k0", 25))), (2, (R("k1", 50), R("k0", 51))),
]


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_a_vertex_whose_last_constraint_resolves_is_examined_again(
        kernel, monkeypatch):
    online_on_kernel(monkeypatch, kernel)
    checker = OnlineChecker(window=WindowPolicy(max_live=2, gc_every=0),
                            sessions=range(4))
    for session, ops in LAST_CONSTRAINT_RESOLVES:
        if not checker.add(session, ops).satisfies_si:
            break
        assert_nothing_skipped_mattered(checker)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_an_event_asks_only_the_constraints_it_touched(kernel, monkeypatch):
    online_on_kernel(monkeypatch, kernel)
    checker = OnlineChecker()

    def asked_by(session, ops, status=COMMITTED):
        before = checker.result().stats["prune_asked"]
        checker.add(session, ops, status=status)
        assert not checker._dirty
        return checker.result().stats["prune_asked"] - before

    assert asked_by(0, [W("x", 1)]) == 0
    assert asked_by(1, [W("x", 2)]) == 1       # new: x between T1 and T2
    assert asked_by(2, [W("y", 5)]) == 0       # reads nothing it reads
    assert asked_by(2, [W("x", 3)], ABORTED) == 0
    # A new reader of x=1 puts an RW edge into a branch: asked again,
    # and still open (T4 reads x=1; T2 may come before or after T1).
    assert asked_by(2, [R("x", 1)]) == 1
    assert checker.unresolved_constraints == 1


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_a_dep_predecessor_that_moves_no_row_still_asks_again(
        kernel, monkeypatch):
    """Pruning puts S' before R on y, and the WW edge S' -> R is a new
    Dep pair whose KI pair was already in the closure (S' -SO-> Q -RW->
    R): no closure row moves, only R's Dep predecessors.  That alone
    makes "T before S" on x impossible — S reaches S', a Dep predecessor
    of T's reader R — so the constraint must be asked again."""
    online_on_kernel(monkeypatch, kernel)
    checker = OnlineChecker()
    checker.add(2, [W("x", 1)])                            # T  = 1
    checker.add(0, [W("x", 2)])                            # S  = 2
    checker.add(0, [W("y", 1)])                            # S' = 3
    checker.add(0, [R("k", None)])                         # Q  = 4
    assert checker.unresolved_constraints == 1
    checker.add(1, [R("x", 1), W("y", 2), W("k", 5)])      # R  = 5
    assert checker.unresolved_constraints == 0
    assert checker._resolved_dir == {("x", 1, 2): False, ("y", 3, 5): True}


# -- the parent build's decisions, event by event -----------------------------


def sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


#: Small tenants shaped like the two stream workloads of the end-to-end
#: benchmark (fewer events and keys, a smaller window share so that the
#: window evicts and compacts), checked the way the daemon checks them.
TENANTS = {
    "long": dict(count=200, share=24, sessions=8, ops_per_txn=8,
                 read_proportion=0.7, keys=120),
    "fanin": dict(count=120, share=24, sessions=4, ops_per_txn=4,
                  read_proportion=0.9, keys=1_000),
}
TRAIL_SEEDS = (11, 12)


def tenant_events(name, seed):
    """``(events, sessions)``; the second fan-in tenant carries a long
    fork on keys of its own, spread over the stream."""
    shape = dict(TENANTS[name])
    count, _share = shape.pop("count"), shape.pop("share")
    sessions = shape["sessions"]
    if name != "fanin" or seed != TRAIL_SEEDS[1]:
        events = simulated(seed, count, distribution="uniform", **shape)
        return events, sessions
    fork = history_to_events(make_anomaly("long-fork", seed=seed,
                                          padding_txns=0))
    extra = [(session % sessions,
              tuple(Operation(op.kind, f"fork/{op.key}", op.value)
                    for op in ops), status)
             for session, ops, status, _ts in fork]
    events = simulated(seed, count - len(extra), distribution="uniform",
                       **shape)
    step = len(events) // (len(extra) + 1)
    for offset, event in enumerate(extra):
        events.insert(step * (offset + 1) + offset, event)
    return events, sessions


def tenant_checker(name, sessions):
    """A checker configured the way the daemon configures a tenant's."""
    return OnlineChecker(
        solve_every=8, window=WindowPolicy(max_live=TENANTS[name]["share"]),
        sessions=range(sessions))


def trail(name, seed):
    """Per event: verdict, unresolved constraints, known edges, a hash
    of the known-edge order, solves, live transactions; then the final
    summary."""
    events, sessions = tenant_events(name, seed)
    checker = tenant_checker(name, sessions)
    rows = []
    for session, ops, status in events:
        result = checker.add(session, ops, status=status)
        rows.append([result.satisfies_si, checker.unresolved_constraints,
                     len(checker._known_edges),
                     sha(list(checker._known_edges))[:12],
                     result.stats["solves"], checker.live_transactions])
        if not result.satisfies_si:
            break
    final = checker.finish()
    stats = final.stats
    return {
        "trail": rows,
        "verdict": final.satisfies_si,
        "decided_by": final.decided_by,
        "cycle": repr(final.cycle),
        "known_edge_order": sha(list(checker._known_edges)),
        "solves": stats["solves"],
        "solver_builds": stats["solver_builds"],
        "decisions": stats["solver"]["decisions"],
        "conflicts": stats["solver"]["conflicts"],
        "peak_live": stats["window"]["peak_live"],
        "evicted": stats["window"]["evicted"],
        "compactions": stats["window"]["compactions"],
    }


def all_trails():
    return {f"{name}/{seed}": trail(name, seed)
            for name in TENANTS for seed in TRAIL_SEEDS}


with open(os.path.join(HERE, "data", "online_trail_2db6a61.json"),
          encoding="utf-8") as _handle:
    PARENT = json.load(_handle)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("tenant", sorted(PARENT))
def test_trails_written_by_the_full_rescan_build(tenant, kernel, monkeypatch):
    """``tests/data/online_trail_2db6a61.json`` holds what that commit,
    which asked every constraint and examined every live vertex, did on
    each event — the worklist build must do the same, on the online
    checker's numpy kernel and with the python kernel swapped in."""
    online_on_kernel(monkeypatch, kernel)
    name, seed = tenant.split("/")
    got = trail(name, int(seed))
    want = PARENT[tenant]
    for event, (mine, theirs) in enumerate(zip(got["trail"], want["trail"])):
        assert mine == theirs, (tenant, event)
    assert got == want


def test_the_trails_exercise_what_they_pin():
    """The pinned tenants evict, compact, solve and (one) violate."""
    summaries = list(PARENT.values())
    assert all(s["evicted"] and s["compactions"] for s in summaries)
    assert all(s["solves"] for s in summaries if s["decisions"])
    assert sum(s["decisions"] for s in summaries) > 200
    assert [s["decided_by"] for s in summaries].count("pruning") == 1


# -- the counters -------------------------------------------------------------


def test_work_counters_are_cumulative_published_and_traced():
    events, sessions = tenant_events("long", TRAIL_SEEDS[0])
    checker = tenant_checker("long", sessions)
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        for session, ops, status in events:
            checker.add(session, ops, status=status)
    stats = checker.result().stats
    spans = tracer.export_spans()
    prune = [s["attrs"]["asked"] for s in spans if s["name"] == "prune"]
    gc = [s["attrs"]["examined"] for s in spans if s["name"] == "gc"]
    assert gc and sum(prune) == stats["prune_asked"] > 0
    assert sum(gc) == stats["gc_examined"] > 0
    gauges = registry.snapshot()["gauges"]
    assert gauges["online.prune_asked"] == stats["prune_asked"]
    assert gauges["window.gc_examined"] == stats["gc_examined"]


def test_the_worklist_asks_a_fraction_of_the_full_rescan():
    """The same stream, once as shipped and once with the full-rescan
    fixpoint in its place, counting what each asks."""
    events, sessions = tenant_events("long", TRAIL_SEEDS[0])
    shipped, rescans = (tenant_checker("long", sessions) for _ in range(2))
    rescans._prune_fixpoint = lambda: prune_fixpoint_reference(rescans)
    for session, ops, status in events:
        shipped.add(session, ops, status=status)
        rescans.add(session, ops, status=status)
        assert list(rescans._unresolved) == list(shipped._unresolved)
    asked = shipped.result().stats["prune_asked"]
    assert 0 < 3 * asked < rescans.result().stats["prune_asked"]


def test_a_restore_and_a_compaction_each_add_one_full_sweep():
    events, sessions = tenant_events("long", TRAIL_SEEDS[0])
    checker = tenant_checker("long", sessions)
    sweep_due, swept = None, 0
    for session, ops, status in events:
        before = checker.result().stats
        checker.add(session, ops, status=status)
        after = checker.result().stats
        if sweep_due is not None and status == COMMITTED:
            # The first fixpoint after a compaction asks every constraint.
            assert after["prune_asked"] - before["prune_asked"] >= sweep_due
            sweep_due, swept = None, swept + 1
        if after["window"]["compactions"] > before["window"]["compactions"]:
            sweep_due = after["unresolved_constraints"]
    assert swept
    state = json.loads(json.dumps(checker.snapshot()))
    restored = OnlineChecker.restore(state)
    stats = restored.result().stats
    assert (stats["prune_asked"], stats["gc_examined"]) == (
        state["counters"]["prune_asked"], state["counters"]["gc_examined"])
    assert restored._dirty == set(restored._unresolved)
    assert restored._candidates == set(restored._front.txn_of)


@pytest.mark.parametrize("build", ["f8d5e43", "80ea5ae", "d90a0f0"])
def test_checkpoints_without_the_counters_restore_at_zero(build):
    with open(os.path.join(HERE, "data", f"checkpoint_{build}.json"),
              encoding="utf-8") as handle:
        state = json.load(handle)["state"]
    stats = OnlineChecker.restore(state).result().stats
    assert stats["prune_asked"] == stats["gc_examined"] == 0


# -- no leak from the new indexes ---------------------------------------------


def assert_indexes_are_tight(checker):
    live = set(checker._front.txn_of)
    assert checker._dirty <= set(checker._unresolved)
    assert checker._candidates <= live
    assert all(checker._watch.values()), "an empty watch set was left"
    assert set(checker._watch) <= live
    assert checker._watched == mask_of(checker._watch)
    watched = {ck for cks in checker._watch.values() for ck in cks}
    assert watched == set(checker._unresolved)
    for ck in checker._unresolved:
        for vertex in checker._watch_vertices(ck):
            assert ck in checker._watch[vertex]
    assert all(checker._unresolved_touch.values())
    assert set(checker._unresolved_touch) <= live


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("name", sorted(TENANTS))
def test_no_entry_outlives_its_vertex_or_constraint(name, kernel,
                                                    monkeypatch):
    online_on_kernel(monkeypatch, kernel)
    events, sessions = tenant_events(name, TRAIL_SEEDS[0])
    checker = tenant_checker(name, sessions)
    for session, ops, status in events:
        assert checker.add(session, ops, status=status).satisfies_si
        assert_indexes_are_tight(checker)
    assert checker.result().stats["window"]["evicted"]
