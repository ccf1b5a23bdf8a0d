"""Seeded inputs of the five workloads, with their by-construction answers.

Every input is made from ``--seed`` alone and handed to the checker as
bytes (history JSON lines, ``repro-events/1`` lines); the checker never
sees the seed.  The expected verdict of each unit follows from how it
was built, never from one of our engines: a run of the fault-free SI
simulator is ``satisfied``; a corpus template is ``violated`` with the
class its construction exhibits.

Workloads are sized in *units per measured second* (a unit is one
history or one tenant stream), so ``--seconds`` scales how many units a
run holds while each unit keeps the shape that stresses its layer.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.history import Operation
from repro.histories.codec import (
    event_to_json,
    history_to_events,
    history_to_json,
)
from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import (
    WorkloadParams,
    generate_history,
    generate_workload,
)

SATISFIED = "satisfied"
VIOLATED = "violated"

#: Classifier label each corpus template exhibits by construction
#: (``repro.interpret.classify.ANOMALY_NAMES``).  ``dirty-write-cycle``
#: has both transactions read the other's write, so its cycle is made of
#: WR edges: G1c.  ``monotonic-read-violation`` reads a newer then an
#: older version in one session: the cycle needs the session edge.
TEMPLATE_CLASS = {
    "aborted-read": "aborted read",
    "causality-violation": "causality violation",
    "cyclic-information-flow": "cyclic information flow (G1c)",
    "dirty-write-cycle": "cyclic information flow (G1c)",
    "intermediate-read": "intermediate read",
    "long-fork": "long fork",
    "lost-update": "lost update",
    "monotonic-read-violation": "causality violation",
    "read-skew": "read skew (G-single)",
}
TEMPLATES = sorted(ANOMALY_TEMPLATES)

#: name -> (kind, units per measured second, least units).  Sized on a
#: 2-core box so one pass over a run's units takes about 0.8 x seconds
#: (corpus: about 0.25 x, several passes fit).
SIZES = {
    "general_rh": ("batch", 1.2, 2),
    "general_rw": ("batch", 0.54, 2),
    "corpus": ("batch", 200.0, 36),
    "stream_long": ("stream", 0.4, 2),
    "stream_fanin": ("stream", 3.2, 8),
}

GENERAL_RH = dict(sessions=16, txns_per_session=160, ops_per_txn=8,
                  read_proportion=0.95, keys=10_000, distribution="zipfian")
GENERAL_RW = dict(sessions=16, txns_per_session=120, ops_per_txn=8,
                  read_proportion=0.5, keys=3_000, distribution="zipfian")
#: Share of corpus units that are known anomalies (the paper's 2 477 of
#: 3 000 at the default size); the rest are small valid histories.
CORPUS_ANOMALY_SHARE = 2477 / 3000
CORPUS_PADDING_TXNS = 40
CORPUS_VALID = dict(sessions=6, txns_per_session=8, ops_per_txn=4,
                    read_proportion=0.5, keys=200, distribution="uniform")
STREAM_LONG = dict(events=1000, sessions=8, ops_per_txn=8,
                   read_proportion=0.7, keys=2_000, distribution="uniform")
STREAM_FANIN = dict(events=400, sessions=4, ops_per_txn=4,
                    read_proportion=0.9, keys=10_000, distribution="uniform")
#: Every Nth fan-in tenant carries a spliced anomaly template.
FANIN_ANOMALY_EVERY = 8


def kind_of(workload: str) -> str:
    return SIZES[workload][0]


def units_for(workload: str, seconds: float) -> int:
    _, per_second, minimum = SIZES[workload]
    return max(minimum, round(per_second * seconds))


def traced_units_for(units: int) -> int:
    """The traced run works on the leading third of the run's units: it
    goes over them three times (untraced, traced, layer by layer)."""
    return max(1, units // 3)


def sub_seed(seed: int, workload: str, index: int) -> int:
    """Independent generator seed for one unit of one workload."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class BatchInput:
    #: One history JSON document per line.
    lines: List[str]
    #: Per line: (verdict, classifier label or None).
    expected: List[Tuple[str, Optional[str]]]
    txns: int

    def canonical_bytes(self) -> bytes:
        return "".join(line + "\n" for line in self.lines).encode()


@dataclass
class Tenant:
    name: str
    #: Declared session universe (a count: sessions ``0..n-1``).
    sessions: int
    events: List[tuple]
    expected: str

    def lines(self) -> List[str]:
        return [event_to_json(event) for event in self.events]


@dataclass
class StreamInput:
    tenants: List[Tenant]

    @property
    def events(self) -> int:
        return sum(len(t.events) for t in self.tenants)

    def canonical_bytes(self) -> bytes:
        out = []
        for tenant in self.tenants:
            out.append(f"# {tenant.name} sessions={tenant.sessions}\n")
            out.extend(line + "\n" for line in tenant.lines())
        return "".join(out).encode()


class InputsChanged(Exception):
    """The generated input no longer hashes to its pinned digest."""


def digest_of(data, pin: Optional[str] = None) -> str:
    """sha256 of the input's canonical bytes; with ``pin``, refuse to
    measure an input that differs from the pinned one."""
    digest = hashlib.sha256(data.canonical_bytes()).hexdigest()
    if pin is not None and digest != pin:
        raise InputsChanged(f"hashes to {digest}, pinned {pin}")
    return digest


# -- batch workloads ----------------------------------------------------------


def _simulated(params: dict, seed: int):
    return generate_history(WorkloadParams(**params), seed=seed,
                            isolation="snapshot").history


def _general(workload: str, params: dict, seed: int, units: int) -> BatchInput:
    lines, txns = [], 0
    for i in range(units):
        history = _simulated(params, sub_seed(seed, workload, i))
        lines.append(history_to_json(history))
        txns += len(history)
    return BatchInput(lines, [(SATISFIED, None)] * units, txns)


def _corpus(seed: int, units: int) -> BatchInput:
    anomalies = round(units * CORPUS_ANOMALY_SHARE)
    items = []
    for i in range(units):
        unit_seed = sub_seed(seed, "corpus", i)
        if i < anomalies:
            template = TEMPLATES[i % len(TEMPLATES)]
            history = make_anomaly(template, seed=unit_seed,
                                   padding_txns=CORPUS_PADDING_TXNS)
            expected = (VIOLATED, TEMPLATE_CLASS[template])
        else:
            history = _simulated(CORPUS_VALID, unit_seed)
            expected = (SATISFIED, None)
        items.append((history_to_json(history), expected, len(history)))
    random.Random(sub_seed(seed, "corpus", -1)).shuffle(items)
    return BatchInput([item[0] for item in items],
                      [item[1] for item in items],
                      sum(item[2] for item in items))


def build_batch(workload: str, seed: int, units: int) -> BatchInput:
    if workload == "general_rh":
        return _general(workload, GENERAL_RH, seed, units)
    if workload == "general_rw":
        return _general(workload, GENERAL_RW, seed, units)
    if workload == "corpus":
        return _corpus(seed, units)
    raise ValueError(f"not a batch workload: {workload}")


# -- stream workloads ---------------------------------------------------------


def commit_order_events(shape: dict, seed: int, count: int) -> List[tuple]:
    """The first ``count`` events the SI simulator emits, in commit
    order.  A prefix of a commit-ordered SI run is itself SI: every read
    observes a transaction that committed, hence was emitted, earlier."""
    sessions = shape["sessions"]
    params = WorkloadParams(
        sessions=sessions,
        txns_per_session=-(-count // sessions) + 8,
        ops_per_txn=shape["ops_per_txn"],
        read_proportion=shape["read_proportion"],
        keys=shape["keys"],
        distribution=shape["distribution"],
    )
    spec = generate_workload(params, seed=seed)
    db = MVCCDatabase(isolation="snapshot", seed=seed + 1)
    events = []
    for event in stream_workload(db, spec, seed=seed + 2):
        events.append(event)
        if len(events) == count:
            return events
    raise RuntimeError(f"simulator emitted only {len(events)} of {count}")


def _template_events(template: str, seed: int, first_session: int
                     ) -> Tuple[List[tuple], int]:
    """A corpus template as events on its own sessions and keys, so the
    spliced stream keeps the template's cycle and nothing else changes."""
    history = make_anomaly(template, seed=seed, padding_txns=0)
    events = history_to_events(history)
    renumber = {s: first_session + i
                for i, s in enumerate(sorted({e[0] for e in events}))}
    moved = []
    for session, ops, status, _ts in events:
        ops = tuple(Operation(op.kind, f"anomaly/{op.key}", op.value)
                    for op in ops)
        moved.append((renumber[session], ops, status))
    return moved, len(renumber)


def _splice_tail(base: List[tuple], extra: List[tuple],
                 rng: random.Random) -> List[tuple]:
    """Insert ``extra`` (order kept) at random places in the last tenth."""
    tail_start = len(base) - max(1, len(base) // 10)
    slots = sorted(rng.randrange(tail_start, len(base) + 1) for _ in extra)
    out = list(base)
    for offset, (slot, event) in enumerate(zip(slots, extra)):
        out.insert(slot + offset, event)
    return out


def build_stream(workload: str, seed: int, units: int) -> StreamInput:
    tenants = []
    if workload == "stream_long":
        for i in range(units):
            events = commit_order_events(
                STREAM_LONG, sub_seed(seed, workload, i),
                STREAM_LONG["events"])
            tenants.append(Tenant(f"long-{i:02d}", STREAM_LONG["sessions"],
                                  events, SATISFIED))
        return StreamInput(tenants)
    if workload != "stream_fanin":
        raise ValueError(f"not a stream workload: {workload}")
    shape = STREAM_FANIN
    for i in range(units):
        unit_seed = sub_seed(seed, workload, i)
        name = f"fanin-{i:03d}"
        if i % FANIN_ANOMALY_EVERY != FANIN_ANOMALY_EVERY - 1:
            events = commit_order_events(shape, unit_seed, shape["events"])
            tenants.append(Tenant(name, shape["sessions"], events, SATISFIED))
            continue
        template = TEMPLATES[(i // FANIN_ANOMALY_EVERY) % len(TEMPLATES)]
        extra, extra_sessions = _template_events(
            template, unit_seed, shape["sessions"])
        base = commit_order_events(shape, unit_seed,
                                    shape["events"] - len(extra))
        events = _splice_tail(base, extra, random.Random(unit_seed))
        tenants.append(Tenant(name, shape["sessions"] + extra_sessions,
                              events, VIOLATED))
    return StreamInput(tenants)
