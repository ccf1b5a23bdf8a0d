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

The decider imports nothing from ``repro`` and reads a history only
through attributes (``sessions``, ``ops``, ``status``, ``kind``, ``key``,
``value``).  The sweep below feeds it every history in a small scope,
built with ``HistoryBuilder``, and holds every SI engine x mode that
checks a plain ``History`` to its answer.
"""

import itertools

import pytest

from repro.api import Checker, list_engines
from repro.core.history import HistoryBuilder, R, W

#: The exhaustive scope: transactions (one session each), operations per
#: transaction (1..MAX_OPS), and keys.  Written values are unique; a read
#: returns the initial value or any value written to its key.
SCOPE_TXNS = 3
MAX_OPS = 2
KEYS = ("x", "y")


def si_by_timestamps(history) -> bool:
    """Brute-force SI: search start/commit timestamp assignments.

    Only the relative order of events matters, so a commit timestamp is
    a position in a commit order and a start timestamp is a slot between
    commits: ``start`` = how many transactions committed before it.
    Given the commit order, every condition above involves one
    transaction's start only, so each transaction picks its own slot.
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
        if all(_has_start(t, order, position, session_pred) for t in order):
            return True
    return False


def _writes(txn):
    return {op.key for op in txn.ops if op.kind == "w"}


def _final_writes(txn):
    return {op.key: op.value for op in txn.ops if op.kind == "w"}


def _has_start(txn, order, position, session_pred):
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
    for start in range(lowest, mine + 1):
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


def _swap_keys(combo):
    swap = dict(zip(KEYS, reversed(KEYS)))
    return tuple(sorted(tuple((kind, swap[key]) for kind, key in shape)
                        for shape in combo))


def scope_histories():
    """Every history in scope, up to the order of its (interchangeable,
    one-per-session) transactions and a renaming of the two keys."""
    shapes = sorted(_shapes())
    for combo in itertools.combinations_with_replacement(shapes,
                                                         SCOPE_TXNS):
        if _swap_keys(combo) < combo:
            continue
        written = {key: [] for key in KEYS}
        for shape in combo:
            for kind, key in shape:
                if kind == "w":
                    written[key].append(sum(map(len, written.values())) + 1)
        reads = [key for shape in combo for kind, key in shape if kind == "r"]
        for values in itertools.product(
                *[[None] + written[key] for key in reads]):
            yield _build(combo, iter(values))


def _build(combo, read_values):
    builder = HistoryBuilder()
    value = 0
    for session, shape in enumerate(combo):
        ops = []
        for kind, key in shape:
            if kind == "w":
                value += 1
                ops.append(W(key, value))
            else:
                ops.append(R(key, next(read_values)))
        builder.txn(session, ops)
    return builder.build()


# -- the sweep -----------------------------------------------------------------


def _columns():
    """Every registered SI engine x mode whose input is a plain History."""
    for spec in list_engines():
        for isolation, mode in sorted(spec.combos):
            if isolation == "si" and spec.input_kind(isolation,
                                                     mode) == "history":
                yield f"{spec.name}-{mode}", (spec.name, mode)


COLUMNS = dict(_columns())


def reads_intermediate(history) -> bool:
    """Some read returns a value its writer overwrote before committing."""
    overwritten = set()
    for txn in history.transactions:
        final = _final_writes(txn)
        overwritten.update((op.key, op.value) for op in txn.ops
                           if op.kind == "w" and final[op.key] != op.value)
    return any(op.kind == "r" and (op.key, op.value) in overwritten
               for txn in history.transactions for op in txn.ops)


#: Documented incompleteness, per engine: dbcop, faithful to the original
#: tool, does not detect intermediate reads (``repro.baselines.dbcop``).
#: Such an engine may accept a non-SI history in the named class, and
#: must agree with the oracle everywhere else.
KNOWN_GAPS = {"dbcop": reads_intermediate}


@pytest.fixture(scope="module")
def ground_truth():
    return [(history, si_by_timestamps(history))
            for history in scope_histories()]


def test_scope_covers_both_verdicts(ground_truth):
    verdicts = [ok for _, ok in ground_truth]
    assert len(verdicts) > 5000
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("column", sorted(COLUMNS))
def test_engine_agrees_with_the_oracle(column, ground_truth):
    engine, mode = COLUMNS[column]
    options = {"workers": 2} if mode == "parallel" else {}
    checker = Checker("si", mode, engine, trace=False, **options)
    gap = KNOWN_GAPS.get(engine, lambda history: False)
    wrong = [history for history, ok in ground_truth
             if checker.check(history).ok != ok
             and not (ok is False and gap(history))]
    assert not wrong, (
        f"{len(wrong)} disagreement(s); first: "
        + "; ".join(f"s{t.session}:{list(t.ops)}"
                    for t in wrong[0].transactions))


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
