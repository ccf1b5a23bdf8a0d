"""Corpus of known-anomalous histories (paper Section 5.2.1).

The paper validates PolySI by reproducing all 2477 known SI anomalies
collected from earlier releases of CockroachDB, MySQL-Galera, and
YugabyteDB [7, 18, 29].  Those history files are not available offline,
so this module *regenerates* an equivalent corpus: parametric templates
of every anomaly class those reports contain, each instantiated with
randomized keys, values, session layouts, and padding traffic (valid
concurrent transactions), so every history is distinct while provably
violating SI.

``known_anomaly_corpus(count, seed)`` yields ``(class_name, History)``
pairs with classes round-robined — the default ``count=2477`` mirrors the
paper's corpus size.  ``benchmarks/bench_gates.py corpus`` checks that
PolySI flags 100% of them (and the tests additionally verify the classifier's
label on the unpadded templates).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Tuple

from ..core.history import ABORTED, History, HistoryBuilder, R, W

__all__ = ["ANOMALY_TEMPLATES", "make_anomaly", "known_anomaly_corpus"]


class _Values:
    """Unique value factory for one history."""

    def __init__(self) -> None:
        self._next = 0

    def next(self) -> int:
        self._next += 1
        return self._next


def _lost_update(b: HistoryBuilder, rng: random.Random, vals: _Values) -> None:
    """Two concurrent read-modify-writes both observe the same version."""
    key = f"acct{rng.randrange(100)}"
    base = vals.next()
    b.txn(0, [W(key, base)])
    b.txn(1, [R(key, base), W(key, vals.next())])
    b.txn(2, [R(key, base), W(key, vals.next())])


def _long_fork(b: HistoryBuilder, rng: random.Random, vals: _Values) -> None:
    """Figure 3: two readers observe concurrent writes in opposite orders."""
    x = f"x{rng.randrange(100)}"
    y = f"y{rng.randrange(100)}"
    x0, y0 = vals.next(), vals.next()
    x1, y1 = vals.next(), vals.next()
    b.txn(0, [W(x, x0), W(y, y0)])
    b.txn(1, [W(x, x1)])
    b.txn(2, [W(y, y1)])
    b.txn(3, [R(x, x1), R(y, y0)])
    b.txn(4, [R(x, x0), R(y, y1)])


def _causality_violation(b: HistoryBuilder, rng: random.Random, vals: _Values) -> None:
    """Figure 13: a session observes a write, overwrites it, then reads the
    overwritten version back."""
    x = f"k{rng.randrange(100)}"
    marker = f"m{rng.randrange(100)}"
    remote_x, remote_marker = vals.next(), vals.next()
    own = vals.next()
    b.txn(1, [W(x, remote_x), W(marker, remote_marker)])
    b.txn(0, [R(marker, remote_marker)])
    b.txn(0, [W(x, own)])
    b.txn(0, [R(x, remote_x)])


def _read_skew(b: HistoryBuilder, rng: random.Random, vals: _Values) -> None:
    """Fractured read: observe one key from a transaction but an older
    version of another key it also wrote."""
    x = f"x{rng.randrange(100)}"
    y = f"y{rng.randrange(100)}"
    x0, y0 = vals.next(), vals.next()
    x1, y1 = vals.next(), vals.next()
    b.txn(0, [W(x, x0), W(y, y0)])
    b.txn(1, [R(x, x0), R(y, y0), W(x, x1), W(y, y1)])
    b.txn(2, [R(x, x1), R(y, y0)])


def _aborted_read(b: HistoryBuilder, rng: random.Random, vals: _Values) -> None:
    """A committed transaction observes an aborted transaction's write."""
    key = f"k{rng.randrange(100)}"
    ghost = vals.next()
    b.txn(0, [W(key, ghost)], status=ABORTED)
    b.txn(1, [R(key, ghost)])


def _intermediate_read(b: HistoryBuilder, rng: random.Random, vals: _Values) -> None:
    """A transaction observes a value its writer later overwrote."""
    key = f"k{rng.randrange(100)}"
    first, final = vals.next(), vals.next()
    b.txn(0, [W(key, first), W(key, final)])
    b.txn(1, [R(key, first)])


def _cyclic_information_flow(
    b: HistoryBuilder, rng: random.Random, vals: _Values
) -> None:
    """G1c: two transactions each observe the other's write."""
    x = f"x{rng.randrange(100)}"
    y = f"y{rng.randrange(100)}"
    vx, vy = vals.next(), vals.next()
    b.txn(0, [R(y, vy), W(x, vx)])
    b.txn(1, [R(x, vx), W(y, vy)])


def _dirty_write_cycle(b: HistoryBuilder, rng: random.Random, vals: _Values) -> None:
    """G0-style: version orders of two keys contradict each other, pinned
    by read-modify-writes."""
    x = f"x{rng.randrange(100)}"
    y = f"y{rng.randrange(100)}"
    x1, y2 = vals.next(), vals.next()
    b.txn(0, [W(x, x1), R(y, y2), W(y, vals.next())])
    b.txn(1, [W(y, y2), R(x, x1), W(x, vals.next())])


def _monotonic_read_violation(
    b: HistoryBuilder, rng: random.Random, vals: _Values
) -> None:
    """A session observes a newer version, then an older one."""
    key = f"k{rng.randrange(100)}"
    v1 = vals.next()
    v2 = vals.next()
    b.txn(0, [W(key, v1)])
    b.txn(1, [R(key, v1), W(key, v2)])
    b.txn(2, [R(key, v2)])
    b.txn(2, [R(key, v1)])


#: Template registry: class name -> builder.
ANOMALY_TEMPLATES: Dict[str, Callable] = {
    "lost-update": _lost_update,
    "long-fork": _long_fork,
    "causality-violation": _causality_violation,
    "read-skew": _read_skew,
    "aborted-read": _aborted_read,
    "intermediate-read": _intermediate_read,
    "cyclic-information-flow": _cyclic_information_flow,
    "dirty-write-cycle": _dirty_write_cycle,
    "monotonic-read-violation": _monotonic_read_violation,
}


def make_anomaly(
    name: str,
    *,
    seed: int = 0,
    padding_txns: int = 0,
    padding_sessions: int = 2,
) -> History:
    """One anomalous history of class ``name``.

    ``padding_txns`` valid transactions on disjoint keys are interleaved
    across ``padding_sessions`` extra sessions, so detection cannot rely
    on the history being tiny.
    """
    try:
        template = ANOMALY_TEMPLATES[name]
    except KeyError:
        raise ValueError(
            f"unknown anomaly class {name!r}; expected one of "
            f"{sorted(ANOMALY_TEMPLATES)}"
        ) from None
    rng = random.Random(seed)
    builder = HistoryBuilder()
    vals = _Values()
    template(builder, rng, vals)
    base_session = 100  # keep clear of template session ids
    for i in range(padding_txns):
        session = base_session + (i % max(1, padding_sessions))
        if rng.random() < 0.5:
            # Fresh write-only transaction: trivially SI-consistent.
            builder.txn(session, [W(f"padw{vals.next()}", f"p{vals.next()}")])
        else:
            # Read of a never-written key (initial state) plus a fresh write.
            builder.txn(
                session,
                [R(f"padr{rng.randrange(50)}", None),
                 W(f"padw{vals.next()}", f"p{vals.next()}")],
            )
    return builder.build()


def known_anomaly_corpus(
    count: int = 2477, *, seed: int = 0, padding_txns: int = 6
) -> Iterator[Tuple[str, History]]:
    """Yield ``count`` anomalous histories cycling through all classes."""
    names: List[str] = sorted(ANOMALY_TEMPLATES)
    for i in range(count):
        name = names[i % len(names)]
        yield name, make_anomaly(
            name, seed=seed * 1_000_003 + i, padding_txns=padding_txns
        )
