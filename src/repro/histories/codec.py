"""History (de)serialization.

Two formats:

- **JSON** — explicit and tool-friendly:
  ``{"sessions": [[{"status": "committed", "ops": [["w", "x", 1], ...]}]]}``
- **text** — compact line-based form for eyeballing and fixtures: one
  transaction per line, ``<session> <status> | op op ...`` where ops are
  ``w(key,value)`` / ``r(key,value)`` and the value ``_`` denotes the
  initial value.

Transactions that carry recorded timestamps (see
:attr:`~repro.core.history.Transaction.start_ts`) serialize them as an
optional ``"ts": [start, commit]`` field (JSON) or an optional third head
token ``start:commit`` before the ``|`` (text).  Both codecs accept
pre-timestamp files unchanged — the fields are strictly additive, so a
history written before timestamp capture existed round-trips to an
untimestamped history.

Values survive the JSON round trip when they are JSON-representable
(``None``/ints/strings); the text codec restricts values to ints, the
initial-value marker, and strings without parentheses or commas — the
formats the workload generators emit.

A third, *streaming* format serves the service layer
(:mod:`repro.service`): **repro-events/1**, one commit-order event per
JSON line.  An event is the 4-tuple the collection harness records
(:class:`~repro.collect.runner.CollectionRun` ``events``) —
``(session, ops, status, ts)`` — and the wire line is::

    {"session": 0, "status": "committed",
     "ops": [["w", "x", 1], ["r", "y", null]], "ts": [12.5, 13.0]}

``ts`` is strictly optional (events recorded before timestamp capture
existed parse fine and yield untimestamped transactions, so
``History.timestamped_fraction`` stays honest), and unknown keys are
rejected so protocol drift fails loudly instead of silently dropping
fields.  :func:`history_to_events` / :func:`history_from_events` convert
between a :class:`History` and its event stream; for any history whose
sessions are all non-empty the composition round-trips byte-identically
through both :func:`history_to_json` and :func:`history_to_text`.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.history import (
    ABORTED,
    COMMITTED,
    History,
    HistoryBuilder,
    INITIAL_VALUE,
    Operation,
    R,
    W,
)
from ..store.atomic import atomic_write_text
from ..utils.gcpause import collector_paused

__all__ = [
    "EVENTS_SCHEMA",
    "history_to_json",
    "history_from_json",
    "history_to_text",
    "history_from_text",
    "dump_history",
    "load_history",
    "event_to_json",
    "event_from_json",
    "event_from_obj",
    "events_to_jsonl",
    "events_from_jsonl",
    "history_to_events",
    "history_from_events",
]

#: Version tag of the streaming event-line format (hello lines of the
#: service wire protocol carry it; see ``docs/service.md``).
EVENTS_SCHEMA = "repro-events/1"


def history_to_json(history: History) -> str:
    """Serialize to a JSON string."""
    sessions = []
    for session in history.sessions:
        txns = []
        for txn in session:
            record = {
                "status": txn.status,
                "ops": [
                    [op.kind, op.key, op.value] for op in txn.ops
                ],
            }
            if txn.start_ts is not None or txn.commit_ts is not None:
                record["ts"] = [txn.start_ts, txn.commit_ts]
            txns.append(record)
        sessions.append(txns)
    return json.dumps({"sessions": sessions})


@collector_paused
def history_from_json(text: str) -> History:
    """Parse a history from :func:`history_to_json` output (a bounded
    burst of acyclic allocations: the cyclic collector sits it out)."""
    data = json.loads(text)
    session_ops: List[List[List[Operation]]] = []
    aborted = set()
    timestamps: dict = {}
    for s, txns in enumerate(data["sessions"]):
        ops_list = []
        for i, txn in enumerate(txns):
            ops = [Operation(kind, key, value) for kind, key, value in txn["ops"]]
            ops_list.append(ops)
            if txn.get("status", COMMITTED) == ABORTED:
                aborted.add((s, i))
            ts = txn.get("ts")
            if ts is not None:
                timestamps[(s, i)] = (ts[0], ts[1])
        session_ops.append(ops_list)
    return History.from_ops(session_ops, aborted=aborted,
                            timestamps=timestamps)


def _format_value(value) -> str:
    if value is INITIAL_VALUE:
        return "_"
    return str(value)


def _parse_value(text: str):
    if text == "_":
        return INITIAL_VALUE
    try:
        return int(text)
    except ValueError:
        return text


def history_to_text(history: History) -> str:
    """Serialize to the compact line format."""
    lines = []
    for s, session in enumerate(history.sessions):
        for txn in session:
            flag = "c" if txn.committed else "a"
            ops = " ".join(
                f"{op.kind}({op.key},{_format_value(op.value)})" for op in txn.ops
            )
            if txn.timestamped:
                # One-sided timestamps (start without commit or vice
                # versa) only arise mid-collection and are dropped by the
                # compact format; use JSON to preserve them.
                lines.append(f"{s} {flag} {txn.start_ts!r}:{txn.commit_ts!r} "
                             f"| {ops}")
            else:
                lines.append(f"{s} {flag} | {ops}")
    return "\n".join(lines) + "\n"


def history_from_text(text: str) -> History:
    """Parse the compact line format."""
    sessions: dict = {}
    aborted = set()
    timestamps: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, body = line.partition("|")
        parts = head.split()
        if len(parts) not in (2, 3) or parts[1] not in ("c", "a"):
            raise ValueError(f"malformed history line: {raw!r}")
        ts = None
        if len(parts) == 3:
            start_text, sep, commit_text = parts[2].partition(":")
            if not sep:
                raise ValueError(f"malformed timestamp token: {parts[2]!r}")
            try:
                ts = (float(start_text), float(commit_text))
            except ValueError:
                raise ValueError(f"malformed timestamp token: {parts[2]!r}")
        session = int(parts[0])
        ops: List[Operation] = []
        for token in body.split():
            kind = token[0]
            if kind not in "rw" or not token[1:].startswith("(") or not token.endswith(")"):
                raise ValueError(f"malformed operation: {token!r}")
            inner = token[2:-1]
            key_text, _, value_text = inner.rpartition(",")
            key = _parse_value(key_text)
            value = _parse_value(value_text)
            ops.append(R(key, value) if kind == "r" else W(key, value))
        txns = sessions.setdefault(session, [])
        if parts[1] == "a":
            aborted.add((session, len(txns)))
        if ts is not None:
            timestamps[(session, len(txns))] = ts
        txns.append(ops)
    ordered_sessions = [sessions[s] for s in sorted(sessions)]
    renumber = {s: i for i, s in enumerate(sorted(sessions))}
    aborted = {(renumber[s], i) for (s, i) in aborted}
    timestamps = {(renumber[s], i): ts for (s, i), ts in timestamps.items()}
    return History.from_ops(ordered_sessions, aborted=aborted,
                            timestamps=timestamps)


def dump_history(history: History, path: str, *, fmt: str = "json") -> None:
    """Write a history to ``path`` in the selected format.

    The write is atomic (tmp file + fsync + ``os.replace``): the whole
    payload is serialized before any file is touched, so a value that
    fails to encode or a process killed mid-write never leaves a
    truncated history behind — the previous file, if any, survives.
    """
    if fmt == "json":
        payload = history_to_json(history)
    elif fmt == "text":
        payload = history_to_text(history)
    else:
        raise ValueError(f"unknown history format: {fmt!r}")
    atomic_write_text(path, payload)


def load_history(path: str, *, fmt: str = "json") -> History:
    """Read a history written by :func:`dump_history`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = handle.read()
    if fmt == "json":
        return history_from_json(payload)
    if fmt == "text":
        return history_from_text(payload)
    raise ValueError(f"unknown history format: {fmt!r}")


# -- repro-events/1: the streaming event-line format ---------------------------

#: Every key an event line may carry.  ``seq`` is reserved for clients
#: that number their events (the reject/resend protocol names it).
_EVENT_KEYS = frozenset({"session", "status", "ops", "ts", "seq"})


def event_to_json(event: Sequence) -> str:
    """Serialize one collector event to a ``repro-events/1`` line.

    ``event`` is ``(session, ops, status)`` or ``(session, ops, status,
    ts)`` — the shapes :meth:`repro.collect.CollectionRun.iter_events`
    yields and :meth:`repro.online.OnlineChecker.add` consumes.
    """
    session, ops, status = event[0], event[1], event[2]
    ts = event[3] if len(event) > 3 else None
    record: dict = {
        "session": session,
        "status": status,
        "ops": [[op.kind, op.key, op.value] for op in ops],
    }
    if ts is not None:
        record["ts"] = [ts[0], ts[1]]
    return json.dumps(record, separators=(",", ":"))


def event_from_json(line: str) -> tuple:
    """Parse one ``repro-events/1`` line into a ``(session, ops, status,
    ts)`` tuple.

    ``ts`` is ``None`` when the line carries no timestamps — events
    recorded before timestamp capture existed (pre-``"ts"`` producers)
    are accepted unchanged and simply yield untimestamped transactions.
    Unknown keys and malformed fields raise ``ValueError``.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed event line: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"event line must be a JSON object: {line!r}")
    return event_from_obj(data)


#: The only types a wire field may carry into an :class:`Operation` or
#: timestamp.  JSON arrays/objects are unhashable — letting one through
#: would blow up far from the parse (inside a checker's key/value maps),
#: so the codec rejects them at the boundary.
_SCALAR = (str, int, float, bool, type(None))


def event_from_obj(data: dict) -> tuple:
    """Validate an already-parsed ``repro-events/1`` object (the service
    daemon parses lines once to tell control ops from events)."""
    unknown = set(data) - _EVENT_KEYS
    if unknown:
        raise ValueError(
            f"unknown event field(s) {sorted(unknown)}; this consumer "
            f"speaks {EVENTS_SCHEMA}"
        )
    missing = {"session", "status", "ops"} - set(data)
    if missing:
        raise ValueError(f"event line missing {sorted(missing)}")
    session = data["session"]
    if not isinstance(session, int) or isinstance(session, bool):
        raise ValueError(f"event session must be an int: {session!r}")
    status = data["status"]
    if status not in (COMMITTED, ABORTED):
        raise ValueError(f"unknown event status: {status!r}")
    if not isinstance(data["ops"], list):
        raise ValueError("event ops must be an array")
    ops = []
    for op in data["ops"]:
        if not isinstance(op, list) or len(op) != 3:
            raise ValueError(f"malformed event op: {op!r}")
        kind, key, value = op
        if not isinstance(kind, str):
            raise ValueError(f"event op kind must be a string: {kind!r}")
        if not isinstance(key, _SCALAR):
            raise ValueError(f"event op key must be a JSON scalar: {key!r}")
        if not isinstance(value, _SCALAR):
            raise ValueError(
                f"event op value must be a JSON scalar: {value!r}"
            )
        ops.append(Operation(kind, key, value))
    ts: Optional[Tuple[float, float]] = None
    raw_ts = data.get("ts")
    if raw_ts is not None:
        if (not isinstance(raw_ts, list) or len(raw_ts) != 2):
            raise ValueError(f"event ts must be [start, commit]: {raw_ts!r}")
        for stamp in raw_ts:
            if stamp is not None and (isinstance(stamp, bool)
                                      or not isinstance(stamp, (int, float))):
                raise ValueError(
                    f"event ts entries must be numbers or null: {raw_ts!r}"
                )
        ts = (raw_ts[0], raw_ts[1])
    return (session, tuple(ops), status, ts)


def events_to_jsonl(events: Iterable[Sequence]) -> str:
    """Serialize an event iterable as ``repro-events/1`` JSONL."""
    lines = [event_to_json(event) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> List[tuple]:
    """Parse ``repro-events/1`` JSONL (blank and ``#`` lines skipped)."""
    events = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        events.append(event_from_json(line))
    return events


def history_to_events(history: History) -> List[tuple]:
    """The history's transactions as commit-order event tuples.

    Iterates ``history.transactions`` (transaction-id order — the order
    the history was recorded in), so a collected history's event stream
    matches the ``CollectionRun.iter_events`` feed it came from.
    """
    events = []
    for txn in history.transactions:
        ts = None
        if txn.start_ts is not None or txn.commit_ts is not None:
            ts = (txn.start_ts, txn.commit_ts)
        events.append((txn.session, txn.ops, txn.status, ts))
    return events


def history_from_events(events: Iterable[Sequence]) -> History:
    """Rebuild a :class:`History` from an event stream.

    Events are grouped by session (arrival order preserved within each
    session, which is the order that matters — session order is the only
    ordering a history keeps).  Sessions are renumbered densely in
    sorted-id order, exactly like :class:`HistoryBuilder`; a history
    with an *empty* session is therefore not representable as an event
    stream (its empty session vanishes on the round trip).
    """
    builder = HistoryBuilder()
    for event in events:
        session, ops, status = event[0], event[1], event[2]
        ts = event[3] if len(event) > 3 else None
        start_ts, commit_ts = ts if ts is not None else (None, None)
        builder.txn(session, ops, status=status,
                    start_ts=start_ts, commit_ts=commit_ts)
    return builder.build()
