"""Span-based tracing: where the checker's time actually goes.

The paper's headline numbers are stage breakdowns — pruning vs encoding
vs MonoSAT solving — so the engines need a way to *record* stages, not
just total wall clock.  This module provides:

- :class:`Tracer` — a thread-safe in-process buffer of completed spans,
  each recording wall time, CPU (thread) time, and the peak-RSS delta
  across the span;
- :func:`trace_span` — the single instrumentation point engine code
  calls.  When no tracer is installed (the default for direct engine
  use, e.g. the benchmarks' hot loops) it returns a shared no-op span:
  one ``ContextVar.get`` and an identity context manager, nothing else;
- the stable ``repro-trace/1`` payload schema plus
  :func:`validate_trace`, the structural validator mirrored on
  ``repro.bench.results.validate_payload``;
- Chrome ``trace_event`` export (:func:`write_chrome_trace`), loadable
  in Perfetto / ``chrome://tracing``, with the schema payload embedded
  under ``otherData`` so consumers can round-trip it.

Worker processes (segmented checking's segment pool) record into a
*local* tracer, ship ``export_spans()`` (plain dicts, picklable) back
with their segment result, and the parent re-parents them under its
pool span with :meth:`Tracer.adopt` — worker attribution lands on every
adopted span.
"""

import json
import math
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

try:
    import resource
except ImportError:                                   # non-POSIX fallback
    resource = None

#: Version tag of the trace payload layout (mirrors ``repro-bench/1``).
TRACE_SCHEMA = "repro-trace/1"

#: Exactly the keys of one span record.
SPAN_KEYS = frozenset(
    ["id", "parent", "name", "start", "wall", "cpu", "rss_kb", "attrs",
     "worker"]
)

#: Spans kept per tracer before new ones are counted as ``dropped``.
DEFAULT_MAX_SPANS = 100_000

_ATTR_SCALARS = (str, int, float, bool, type(None))

#: (tracer, active span id) for the calling context, or ``None``.
_current = ContextVar("repro_trace", default=None)


def _peak_rss_kb() -> int:
    if resource is None:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class _NullSpan(object):
    """The disabled path: every method is a no-op returning ``self``."""

    __slots__ = ()
    id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self


NULL_SPAN = _NullSpan()


class Span(object):
    """One live span handle.  Use as a context manager; call
    :meth:`set` to attach attributes at any point before exit."""

    __slots__ = ("tracer", "id", "parent", "name", "start", "attrs",
                 "record", "_token", "_t0", "_c0", "_r0")

    def __init__(self, tracer, span_id, parent, name, attrs):
        self.tracer = tracer
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.record = None

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self._token = _current.set((self.tracer, self.id))
        self._r0 = _peak_rss_kb()
        self._c0 = time.thread_time()
        self._t0 = time.perf_counter()
        self.start = self._t0 - self.tracer.epoch
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._t0
        cpu = time.thread_time() - self._c0
        rss = _peak_rss_kb() - self._r0
        _current.reset(self._token)
        self.record = {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "wall": wall,
            "cpu": cpu,
            "rss_kb": rss,
            "attrs": self.attrs,
            "worker": None,
        }
        self.tracer._commit(self.record)
        return False


class Tracer(object):
    """Thread-safe in-process span buffer.

    Spans are committed on exit (completed spans only), so the buffer
    is always a list of finished records; ids are allocated on entry,
    which guarantees ``parent id < child id`` — the invariant
    :func:`validate_trace` leans on for acyclicity.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        self.epoch = time.perf_counter()
        self.max_spans = max_spans
        self.dropped = 0
        self._spans = []
        self._lock = threading.Lock()
        self._next_id = 1

    def span(self, name: str, **attrs) -> Span:
        """A new span, parented to the context's active span."""
        state = _current.get()
        parent = state[1] if state is not None and state[0] is self else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, parent, name, attrs)

    def _commit(self, record) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
            else:
                self._spans.append(record)

    def export_spans(self):
        """Plain picklable copies of every committed span (sorted by id,
        i.e. parents before children)."""
        with self._lock:
            return sorted((dict(s) for s in self._spans),
                          key=lambda s: s["id"])

    def adopt(self, spans, parent=None, worker=None) -> int:
        """Re-parent spans exported by another tracer (typically a pool
        worker) under ``parent`` (a :class:`Span` handle or span id).

        Ids are re-allocated in (old) id order so the parent-before-
        child invariant survives; span clocks are rebased onto the
        parent span's start so the adopted subtree sits inside it; the
        ``worker`` attribution is stamped on every adopted span.
        Returns the number of spans adopted.
        """
        parent_id = parent.id if isinstance(parent, Span) else parent
        base = 0.0
        if isinstance(parent, Span) and parent.start is not None:
            base = parent.start
        remap = {}
        adopted = 0
        for old in sorted(spans, key=lambda s: s["id"]):
            with self._lock:
                new_id = self._next_id
                self._next_id += 1
            remap[old["id"]] = new_id
            record = dict(old)
            record["id"] = new_id
            record["parent"] = remap.get(old["parent"], parent_id)
            record["start"] = base + old["start"]
            if worker is not None:
                record["worker"] = worker
            self._commit(record)
            adopted += 1
        return adopted

    def payload(self, mode=None, engine=None, metrics=None):
        """The stable ``repro-trace/1`` payload."""
        out = {
            "schema": TRACE_SCHEMA,
            "mode": mode,
            "engine": engine,
            "spans": self.export_spans(),
            "metrics": metrics if metrics is not None else {},
            "dropped": self.dropped,
        }
        return out


@contextmanager
def use_tracer(tracer):
    """Install ``tracer`` as the context's ambient tracer."""
    token = _current.set((tracer, None))
    try:
        yield tracer
    finally:
        _current.reset(token)


def current_tracer():
    """The ambient :class:`Tracer`, or ``None`` when tracing is off."""
    state = _current.get()
    return state[0] if state is not None else None


def trace_span(name: str, **attrs):
    """A span context manager on the ambient tracer — or the shared
    no-op span when none is installed (the zero-cost disabled path)."""
    state = _current.get()
    if state is None:
        return NULL_SPAN
    return state[0].span(name, **attrs)


# --------------------------------------------------------------------------
# Schema validation (the repro-bench/1 pattern: raise ValueError with a
# path-qualified message on the first structural problem).

def _fail(path, message):
    raise ValueError(f"invalid {TRACE_SCHEMA} payload: {path}: {message}")


def _check_number(path, value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")


def validate_trace(payload) -> dict:
    """Structural validation of a ``repro-trace/1`` payload.

    Checks: schema tag, span key sets, unique positive integer ids,
    parents that exist and precede their children (``parent < id``, so
    the parent relation is acyclic), finite non-negative timings, and
    JSON-scalar attribute values.  Returns the payload on success,
    raises ``ValueError`` otherwise.
    """
    if not isinstance(payload, dict):
        _fail("$", "payload must be a dict")
    if payload.get("schema") != TRACE_SCHEMA:
        _fail("schema", f"expected {TRACE_SCHEMA!r}, "
                        f"got {payload.get('schema')!r}")
    for key in ("mode", "engine"):
        if payload.get(key) is not None and not isinstance(payload[key], str):
            _fail(key, "must be a string or null")
    if not isinstance(payload.get("metrics"), dict):
        _fail("metrics", "must be a dict")
    if not isinstance(payload.get("dropped"), int) or payload["dropped"] < 0:
        _fail("dropped", "must be a non-negative int")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        _fail("spans", "must be a list")
    seen = set()
    for i, span in enumerate(spans):
        path = f"spans[{i}]"
        if not isinstance(span, dict):
            _fail(path, "span must be a dict")
        if set(span) != SPAN_KEYS:
            _fail(path, f"keys {sorted(span)} != {sorted(SPAN_KEYS)}")
        span_id = span["id"]
        if isinstance(span_id, bool) or not isinstance(span_id, int) \
                or span_id < 1:
            _fail(path + ".id", "must be a positive int")
        if span_id in seen:
            _fail(path + ".id", f"duplicate id {span_id}")
        seen.add(span_id)
        parent = span["parent"]
        if parent is not None:
            if isinstance(parent, bool) or not isinstance(parent, int):
                _fail(path + ".parent", "must be an int or null")
            if parent not in seen:
                _fail(path + ".parent",
                      f"orphan span: parent {parent} does not precede "
                      f"id {span_id}")
        if not isinstance(span["name"], str) or not span["name"]:
            _fail(path + ".name", "must be a non-empty string")
        _check_number(path + ".start", span["start"])
        _check_number(path + ".wall", span["wall"], minimum=0.0)
        _check_number(path + ".cpu", span["cpu"], minimum=0.0)
        if isinstance(span["rss_kb"], bool) \
                or not isinstance(span["rss_kb"], int):
            _fail(path + ".rss_kb", "must be an int")
        attrs = span["attrs"]
        if not isinstance(attrs, dict):
            _fail(path + ".attrs", "must be a dict")
        for key, value in attrs.items():
            if not isinstance(key, str):
                _fail(path + ".attrs", f"non-string key {key!r}")
            if not isinstance(value, _ATTR_SCALARS):
                _fail(path + f".attrs[{key!r}]",
                      f"non-scalar value {type(value).__name__}")
        if span["worker"] is not None and not isinstance(
                span["worker"], (int, str)):
            _fail(path + ".worker", "must be an int, string, or null")
    return payload


def span_tree(payload):
    """``{parent_id_or_None: [span, ...]}`` children index."""
    children = {}
    for span in payload["spans"]:
        children.setdefault(span["parent"], []).append(span)
    return children


def stage_seconds(payload):
    """Total wall seconds per span name — the ``derived.stage_seconds``
    breakdown benchmarks attach via ``BenchReport.note``."""
    totals = {}
    for span in payload["spans"]:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["wall"]
    return {name: round(seconds, 6)
            for name, seconds in sorted(totals.items())}


# --------------------------------------------------------------------------
# Chrome trace_event export (the Perfetto-loadable surface).

def chrome_trace_events(payload):
    """Complete (``"ph": "X"``) Chrome trace events for every span.
    Workers map to distinct ``tid`` lanes; timestamps are microseconds
    as the format requires."""
    events = []
    for span in payload["spans"]:
        worker = span["worker"]
        if isinstance(worker, int):
            tid = worker + 1
        elif worker is None:
            tid = 0
        else:  # symbolic worker name: stable small lane from the hash
            tid = 1 + (hash(worker) % 1021)
        args = {str(k): v for k, v in span["attrs"].items()}
        args["cpu_s"] = round(span["cpu"], 6)
        args["rss_kb"] = span["rss_kb"]
        if worker is not None:
            args["worker"] = worker
        events.append({
            "name": span["name"],
            "cat": "repro",
            "ph": "X",
            "ts": round(span["start"] * 1e6, 3),
            "dur": round(span["wall"] * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    return events


def write_chrome_trace(payload, path: str) -> str:
    """Write ``payload`` as Chrome ``trace_event`` JSON (object form).

    The ``repro-trace/1`` payload itself rides along under
    ``otherData.repro_trace`` so the schema-validated form round-trips
    through the Perfetto-loadable file.
    """
    validate_trace(payload)
    document = {
        "traceEvents": chrome_trace_events(payload),
        "displayTimeUnit": "ms",
        "otherData": {"repro_trace": payload},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_chrome_trace(path: str) -> dict:
    """Load a file written by :func:`write_chrome_trace`; returns the
    validated embedded ``repro-trace/1`` payload."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) \
            or not isinstance(document.get("traceEvents"), list):
        raise ValueError(f"{path}: not a Chrome trace_event JSON object")
    for event in document["traceEvents"]:
        if not isinstance(event, dict) or event.get("ph") != "X":
            raise ValueError(f"{path}: unexpected trace event {event!r}")
    payload = document.get("otherData", {}).get("repro_trace")
    if payload is None:
        raise ValueError(f"{path}: missing otherData.repro_trace payload")
    return validate_trace(payload)
