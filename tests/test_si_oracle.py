"""An SI oracle that shares nothing with the engines it judges.

:func:`si_by_timestamps` decides snapshot isolation operationally, from
the definition every textbook gives: a history is SI iff each committed
transaction can be given a start and a commit timestamp such that

- it reads, per key, its own last write if it wrote the key earlier,
  else the final write of the transaction that committed last before
  its start (or the initial value when none did);
- no two transactions writing a common key overlap in time
  (first-committer-wins);
- a transaction starts after its session predecessor committed.

Requiring every transaction to start where it commits (no concurrency at
all) turns the same search into (strong session) serializability.

The decider imports nothing from ``repro`` and reads a history only
through attributes (``sessions``, ``ops``, ``status``, ``kind``, ``key``,
``value``).  The sweep below feeds it every history in two small scopes,
built with ``HistoryBuilder``, and holds every SI engine x mode that
checks a plain ``History`` — the batch pipeline with pruning off, with
explicit constraints and with the numpy closure kernel swapped in, the
online checker with the python kernel swapped in, and the online checker
fed one ``extend``
batch or two split anywhere, or (on a seeded sample) snapshotted and
restored at every split — to its answer; the second scope also holds
every serializability engine to the serializable variant.
"""

import itertools
import json
import random

import pytest

from repro.api import Checker, list_engines
from repro.core.history import ABORTED, COMMITTED, HistoryBuilder, R, W
from repro.online import OnlineChecker

from _helpers import batch_on_kernel, online_on_kernel

#: Both exhaustive scopes draw transactions of 1..MAX_OPS operations on
#: KEYS.  Written values are unique; a read returns the initial value or
#: any value written to its key.
MAX_OPS = 2
KEYS = ("x", "y")
#: Scope one: SCOPE_TXNS committed transactions, one per session.
#: Scope two: up to SCOPE_TXNS transactions over SCOPE_SESSIONS sessions
#: (none empty) with at most SCOPE_OPS operations in all, any one writing
#: transaction of which may abort.
SCOPE_TXNS = 3
SCOPE_SESSIONS = 2
SCOPE_OPS = 4


def si_by_timestamps(history, serializable=False) -> bool:
    """Brute-force SI: search start/commit timestamp assignments.

    Only the relative order of events matters, so a commit timestamp is
    a position in a commit order and a start timestamp is a slot between
    commits: ``start`` = how many transactions committed before it.
    Given the commit order, every condition above involves one
    transaction's start only, so each transaction picks its own slot —
    or, ``serializable``, must take the slot it commits in.
    """
    committed = [t for session in history.sessions for t in session
                 if t.status == "committed"]
    session_pred = {}
    for session in history.sessions:
        live = [t for t in session if t.status == "committed"]
        for before, after in zip(live, live[1:]):
            session_pred[id(after)] = before
    for order in itertools.permutations(committed):
        position = {id(t): i for i, t in enumerate(order)}
        if all(_has_start(t, order, position, session_pred, serializable)
               for t in order):
            return True
    return False


def _writes(txn):
    return {op.key for op in txn.ops if op.kind == "w"}


def _final_writes(txn):
    return {op.key: op.value for op in txn.ops if op.kind == "w"}


def _has_start(txn, order, position, session_pred, serializable):
    """Some start slot (0..own commit position) satisfies every rule."""
    mine = position[id(txn)]
    lowest = 0
    pred = session_pred.get(id(txn))
    if pred is not None:
        if position[id(pred)] > mine:
            return False
        lowest = position[id(pred)] + 1
    for other in order[:mine]:
        if _writes(other) & _writes(txn):
            lowest = max(lowest, position[id(other)] + 1)
    for start in range(mine if serializable else lowest, mine + 1):
        snapshot = {}
        for earlier in order[:start]:
            snapshot.update(_final_writes(earlier))
        if _reads_match(txn, snapshot):
            return True
    return False


def _reads_match(txn, snapshot):
    local = {}
    for op in txn.ops:
        if op.kind == "w":
            local[op.key] = op.value
        elif op.value != local.get(op.key, snapshot.get(op.key)):
            return False
    return True


# -- the scope -----------------------------------------------------------------


def _shapes():
    ops = [(kind, key) for kind in "rw" for key in KEYS]
    for length in range(1, MAX_OPS + 1):
        yield from itertools.product(ops, repeat=length)


def _canonical(layout):
    """A layout (sessions of transaction shapes) with its interchangeable
    sessions in a fixed order: longest first, then by content."""
    return tuple(sorted(layout, key=lambda session: (-len(session), session)))


def _is_representative(layout):
    """Whether ``layout`` is the one kept of its class under reordering
    the sessions and renaming the two keys."""
    swap = dict(zip(KEYS, reversed(KEYS)))
    renamed = tuple(tuple(tuple((kind, swap[key]) for kind, key in shape)
                          for shape in session) for session in layout)
    return layout == _canonical(layout) <= _canonical(renamed)


def scope_histories():
    """Scope one, up to the order of its (interchangeable,
    one-per-session) transactions and a renaming of the two keys."""
    shapes = sorted(_shapes())
    for combo in itertools.combinations_with_replacement(shapes,
                                                         SCOPE_TXNS):
        layout = tuple((shape,) for shape in combo)
        if _is_representative(layout):
            yield from _histories(layout)


def session_scope_histories():
    """Scope two, up to the order of the sessions and a renaming of the
    two keys."""
    shapes = sorted(_shapes())
    for txns in range(1, SCOPE_TXNS + 1):
        for sizes in itertools.product(range(1, txns + 1),
                                       repeat=SCOPE_SESSIONS):
            if sum(sizes) != txns or list(sizes) != sorted(sizes,
                                                           reverse=True):
                continue
            for flat in itertools.product(shapes, repeat=txns):
                if sum(map(len, flat)) > SCOPE_OPS:
                    continue
                layout, start = [], 0
                for size in sizes:
                    layout.append(flat[start:start + size])
                    start += size
                layout = tuple(layout)
                if not _is_representative(layout):
                    continue
                writers = [i for i, shape in enumerate(flat)
                           if any(kind == "w" for kind, _key in shape)]
                for aborted in [None] + writers:
                    yield from _histories(layout, aborted)


def _histories(layout, aborted=None):
    """Every assignment of read values to ``layout``, the ``aborted``-th
    transaction (counting across sessions in order) aborting."""
    flat = [shape for session in layout for shape in session]
    written = {key: [] for key in KEYS}
    for shape in flat:
        for kind, key in shape:
            if kind == "w":
                written[key].append(sum(map(len, written.values())) + 1)
    reads = [key for shape in flat for kind, key in shape if kind == "r"]
    for values in itertools.product(*[[None] + written[key]
                                      for key in reads]):
        yield _build(layout, aborted, iter(values))


def _build(layout, aborted, read_values):
    builder = HistoryBuilder()
    value = index = 0
    for session, shapes in enumerate(layout):
        for shape in shapes:
            ops = []
            for kind, key in shape:
                if kind == "w":
                    value += 1
                    ops.append(W(key, value))
                else:
                    ops.append(R(key, next(read_values)))
            builder.txn(session, ops,
                        status=ABORTED if index == aborted else COMMITTED)
            index += 1
    return builder.build()


# -- the sweep -----------------------------------------------------------------


def _columns(isolation):
    """Every registered engine x mode checking ``isolation`` on a plain
    History."""
    for spec in list_engines():
        for level, mode in sorted(spec.combos):
            if level == isolation and spec.input_kind(level,
                                                      mode) == "history":
                options = {"workers": 2} if mode == "parallel" else {}
                yield f"{spec.name}-{mode}", (spec.name, mode, options)


#: The SI columns, then the batch pipeline with pruning off and with
#: explicit (edge-list) constraints — the path compact constraints no
#: longer take by default — and each checker on the other's closure
#: kernel.
COLUMNS = dict(_columns("si"))
COLUMNS["polysi-batch[prune=False]"] = ("polysi", "batch", {"prune": False})
COLUMNS["polysi-batch[compact=False]"] = ("polysi", "batch",
                                          {"compact": False})
COLUMNS["polysi-batch[kernel=numpy]"] = ("polysi", "batch", {})
COLUMNS["polysi-online[kernel=python]"] = ("polysi", "online", {})

#: The columns that swap a checker's kernel, and the swap.
KERNEL_SWAPS = {
    "polysi-batch[kernel=numpy]": (batch_on_kernel, "numpy"),
    "polysi-online[kernel=python]": (online_on_kernel, "python"),
}
SER_COLUMNS = dict(_columns("ser"))


def reads_uncommitted(history) -> bool:
    """Some read returns a value no committed transaction installed: one
    its writer overwrote before committing, or an aborted write."""
    installed = {(key, value) for txn in history.transactions
                 if txn.status == "committed"
                 for key, value in _final_writes(txn).items()}
    written = {(op.key, op.value) for txn in history.transactions
               for op in txn.ops if op.kind == "w"}
    return any(op.kind == "r" and (op.key, op.value) in written - installed
               for txn in history.transactions for op in txn.ops)


#: Documented incompleteness, per engine: dbcop, faithful to the original
#: tool, detects neither intermediate nor aborted reads
#: (``repro.baselines.dbcop``).  Such an engine may accept a non-SI
#: history in the named class, and must agree with the oracle everywhere
#: else.
KNOWN_GAPS = {"dbcop": reads_uncommitted}


def aborted_fails_int(history) -> bool:
    """An aborted transaction reads a key back and gets a value other
    than the one it last wrote or read there."""
    for txn in history.transactions:
        if txn.status == "committed":
            continue
        seen = {}
        for op in txn.ops:
            if op.kind == "r" and seen.get(op.key, op.value) != op.value:
                return True
            seen[op.key] = op.value
    return False


#: Where every engine departs from the decider: the engines apply the Int
#: axiom to aborted transactions too, while the decider, like the
#: textbook definition, constrains committed transactions only.  An
#: engine may reject such a history; it must agree everywhere else.
ENGINES_REJECT = aborted_fails_int


@pytest.fixture(scope="module")
def ground_truth():
    return [(history, si_by_timestamps(history))
            for history in scope_histories()]


@pytest.fixture(scope="module")
def session_histories():
    return list(session_scope_histories())


@pytest.fixture(scope="module")
def session_ground_truth(session_histories):
    return [(history, si_by_timestamps(history))
            for history in session_histories]


@pytest.fixture(scope="module")
def session_ser_truth(session_histories):
    return [(history, si_by_timestamps(history, serializable=True))
            for history in session_histories]


def test_scope_covers_both_verdicts(ground_truth):
    verdicts = [ok for _, ok in ground_truth]
    assert len(verdicts) > 5000
    assert any(verdicts) and not all(verdicts)


def test_session_scope_covers_sessions_and_aborts(session_ground_truth):
    histories = [history for history, _ in session_ground_truth]
    assert len(histories) > 3000
    verdicts = [ok for _, ok in session_ground_truth]
    assert any(verdicts) and not all(verdicts)
    for shape in (lambda h: any(len(s) > 1 for s in h.sessions),
                  lambda h: any(t.status == "aborted"
                                for t in h.transactions)):
        assert {ok for history, ok in session_ground_truth
                if shape(history)} == {True, False}


def assert_decides(verdicts, truth, gap=lambda history: False):
    """Every verdict ``verdicts(history)`` yields matches the oracle's,
    outside the engine's documented ``gap`` and ``ENGINES_REJECT``."""
    wrong = [history for history, ok in truth
             if any(verdict != ok for verdict in verdicts(history))
             and not (ok is False and gap(history))
             and not (ok is True and ENGINES_REJECT(history))]
    assert not wrong, (
        f"{len(wrong)} disagreement(s); first: "
        + "; ".join(f"s{t.session}:{list(t.ops)}:{t.status}"
                    for t in wrong[0].transactions))


def assert_agrees(column, truth, isolation="si"):
    engine, mode, options = (COLUMNS if isolation == "si"
                             else SER_COLUMNS)[column]
    checker = Checker(isolation, mode, engine, trace=False, **options)
    if column in KERNEL_SWAPS:
        history = truth[0][0]
        assert (checker.check(history).stats["closure_backend"]
                == KERNEL_SWAPS[column][1])
    assert_decides(lambda history: [checker.check(history).ok], truth,
                   KNOWN_GAPS.get(engine, lambda history: False))


def online_extend_verdicts(history):
    """``OnlineChecker`` fed the history as one ``extend`` batch, then as
    two batches split at every point."""
    items = [(t.session, t.ops, t.status) for t in history.transactions]
    for cut in range(len(items)):
        checker = OnlineChecker()
        checker.extend(items[:cut])
        checker.extend(items[cut:])
        yield checker.finish().satisfies_si


#: Histories of each scope the ``polysi-online[restore]`` column checks,
#: and the seed that draws them (a snapshot/restore per split point costs
#: far more than a batch check, so the column samples).
RESTORE_SAMPLE = 400
RESTORE_SEED = 29


def online_restore_verdicts(history):
    """``OnlineChecker`` snapshotted after every prefix the stream has
    not yet violated, restored from the snapshot's JSON, and fed the rest
    as one ``extend`` batch — what a resumed journal replay does."""
    items = [(t.session, t.ops, t.status) for t in history.transactions]
    for cut in range(len(items)):
        checker = OnlineChecker()
        if not checker.extend(items[:cut]).satisfies_si:
            yield False
            continue
        state = json.loads(json.dumps(checker.snapshot()))
        restored = OnlineChecker.restore(state)
        restored.extend(items[cut:])
        yield restored.finish().satisfies_si


def swap_kernel(column, monkeypatch):
    """Apply ``column``'s kernel swap, if it has one."""
    if column in KERNEL_SWAPS:
        swap, kernel = KERNEL_SWAPS[column]
        swap(monkeypatch, kernel)


@pytest.mark.parametrize("column", sorted(COLUMNS))
def test_engine_agrees_with_the_oracle(column, ground_truth, monkeypatch):
    swap_kernel(column, monkeypatch)
    assert_agrees(column, ground_truth)


@pytest.mark.parametrize("column", sorted(COLUMNS))
def test_engine_agrees_with_the_oracle_across_sessions(column,
                                                       session_ground_truth,
                                                       monkeypatch):
    swap_kernel(column, monkeypatch)
    assert_agrees(column, session_ground_truth)


@pytest.mark.parametrize("scope", ["ground_truth", "session_ground_truth"])
def test_online_extend_agrees_with_the_oracle(scope, request):
    """The ``polysi-online[extend]`` column: batch boundaries anywhere in
    the stream leave the verdict the decider's."""
    assert_decides(online_extend_verdicts, request.getfixturevalue(scope))


@pytest.mark.parametrize("scope", ["ground_truth", "session_ground_truth"])
def test_online_restore_agrees_with_the_oracle(scope, request):
    """The ``polysi-online[restore]`` column: a snapshot/restore at any
    split point leaves the verdict the decider's."""
    truth = request.getfixturevalue(scope)
    sample = random.Random(RESTORE_SEED).sample(truth, RESTORE_SAMPLE)
    assert {ok for _, ok in sample} == {True, False}
    assert_decides(online_restore_verdicts, sample)


class TestTheDecider:
    """The decider on the textbook cases, independent of any engine."""

    @staticmethod
    def history(*txns):
        builder = HistoryBuilder()
        for session, ops in txns:
            builder.txn(session, ops)
        return builder.build()

    def test_write_skew_is_si(self):
        assert si_by_timestamps(self.history(
            (0, [R("x", None), W("y", 1)]), (1, [R("y", None), W("x", 2)])))

    def test_lost_update_is_not(self):
        assert not si_by_timestamps(self.history(
            (0, [R("x", None), W("x", 1)]), (1, [R("x", None), W("x", 2)])))

    def test_long_fork_is_not(self):
        assert not si_by_timestamps(self.history(
            (0, [W("x", 1)]), (1, [W("y", 2)]),
            (2, [R("x", 1), R("y", None)]), (3, [R("x", None), R("y", 2)])))

    def test_session_order_is_respected(self):
        stale = self.history((0, [W("x", 1)]), (0, [R("x", None)]))
        assert not si_by_timestamps(stale)
        assert si_by_timestamps(
            self.history((0, [W("x", 1)]), (1, [R("x", None)])))

    def test_intermediate_and_future_reads_are_not(self):
        assert not si_by_timestamps(self.history(
            (0, [W("x", 1), W("x", 2)]), (1, [R("x", 1)])))
        assert not si_by_timestamps(self.history((0, [R("x", 1), W("x", 1)])))


@pytest.mark.parametrize("column", sorted(SER_COLUMNS))
def test_serializability_engine_agrees_with_the_oracle(column,
                                                       session_ser_truth):
    assert_agrees(column, session_ser_truth, isolation="ser")
