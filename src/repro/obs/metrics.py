"""Named counters / gauges / histograms for the checking engines.

Same enablement model as the tracer: engine code calls the free
functions :func:`counter` / :func:`gauge` / :func:`histogram`, which
resolve against the ambient :class:`MetricsRegistry`.  With no registry
installed they return shared no-op instruments — one ``ContextVar.get``
and an attribute call, nothing allocated, nothing locked.

Instruments are get-or-create by name; mutation shares the registry
lock so concurrent threads (the online checker's caller vs a stats
emitter) see consistent snapshots.

:func:`prometheus_text` renders one or more registry snapshots in the
Prometheus text exposition format (the service daemon's ``/metrics``
endpoint) — dotted instrument names become underscore-separated metric
names, and an optional label set distinguishes per-tenant registries.

:func:`collector_passes` reads CPython's cumulative cyclic-collector
passes per generation, which :func:`publish_collector_passes` sets as
``gc.passes_gen<N>`` gauges at scrape time.
"""

import gc
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar

_current = ContextVar("repro_metrics", default=None)


class _NullInstrument(object):
    """Disabled path: counts nothing, observes nothing."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def add(self, amount):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


NULL_INSTRUMENT = _NullInstrument()


class Counter(object):
    """Monotonic named count."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock):
        self.value = 0
        self._lock = lock

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    add = inc


class Gauge(object):
    """Last-write-wins named level (live solver progress, window size)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock):
        self.value = 0
        self._lock = lock

    def set(self, value):
        with self._lock:
            self.value = value


class Histogram(object):
    """Streaming summary: count / total / min / max (no buckets — the
    consumers want per-stage means, not latency percentiles)."""

    __slots__ = ("count", "total", "min", "max", "_lock")

    def __init__(self, lock):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._lock = lock

    def observe(self, value):
        """Fold ``value`` into the running count/total/min/max."""
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def summary(self):
        """Plain-dict summary: count, total, min, max, mean."""
        with self._lock:
            mean = self.total / self.count if self.count else 0.0
            return {"count": self.count, "total": round(self.total, 6),
                    "min": self.min, "max": self.max,
                    "mean": round(mean, 6)}


class MetricsRegistry(object):
    """Thread-safe get-or-create home for named instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    def _get(self, table, name, factory):
        with self._lock:
            instrument = table.get(name)
            if instrument is None:
                instrument = table[name] = factory(self._lock)
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(self._histograms, name, Histogram)

    def snapshot(self) -> dict:
        """Plain-dict view: the ``metrics`` block of ``repro-trace/1``."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            histograms = list(self._histograms.items())
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {n: h.summary()
                           for n, h in sorted(histograms)},
        }


_METRIC_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(prefix, name):
    return _METRIC_NAME.sub("_", f"{prefix}_{name}" if prefix else name)


def _prom_labels(labels):
    if not labels:
        return ""
    body = ",".join(
        '%s="%s"' % (k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def prometheus_text(snapshots, *, prefix="repro"):
    """Render registry snapshots in the Prometheus text format.

    ``snapshots`` is a sequence of ``(labels, snapshot)`` pairs —
    ``labels`` a (possibly empty) dict rendered on every sample of that
    snapshot, ``snapshot`` the dict :meth:`MetricsRegistry.snapshot`
    returns.  Counters and gauges map directly; histograms emit
    ``_count`` / ``_sum`` samples (the summary convention, minus
    quantiles — the registry keeps no buckets).  ``# TYPE`` headers are
    emitted once per metric name.
    """
    typed = {}       # metric name -> prometheus type
    samples = []     # (name, labels_text, value)
    for labels, snapshot in snapshots:
        label_text = _prom_labels(labels)
        for name, value in snapshot.get("counters", {}).items():
            metric = _prom_name(prefix, name)
            typed.setdefault(metric, "counter")
            samples.append((metric, label_text, value))
        for name, value in snapshot.get("gauges", {}).items():
            metric = _prom_name(prefix, name)
            typed.setdefault(metric, "gauge")
            samples.append((metric, label_text, value))
        for name, summary in snapshot.get("histograms", {}).items():
            metric = _prom_name(prefix, name)
            typed.setdefault(metric, "summary")
            samples.append((metric + "_count", label_text, summary["count"]))
            samples.append((metric + "_sum", label_text, summary["total"]))
    lines = []
    emitted_types = set()
    for metric, label_text, value in sorted(samples):
        base = metric[:-6] if metric.endswith("_count") else (
            metric[:-4] if metric.endswith("_sum") else metric)
        header = base if base in typed else metric
        if header not in emitted_types and header in typed:
            emitted_types.add(header)
            lines.append(f"# TYPE {header} {typed[header]}")
        lines.append(f"{metric}{label_text} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def collector_passes():
    """Cyclic-collector passes per generation since the interpreter
    started: ``{"gen0": n0, "gen1": n1, "gen2": n2}``."""
    return {f"gen{generation}": stats["collections"]
            for generation, stats in enumerate(gc.get_stats())}


def publish_collector_passes(registry):
    """Set ``gc.passes_gen<N>`` on ``registry`` from
    :func:`collector_passes` — cumulative, so they only grow."""
    for name, passes in collector_passes().items():
        registry.gauge(f"gc.passes_{name}").set(passes)


@contextmanager
def use_metrics(registry):
    """Install ``registry`` as the context's ambient metrics registry."""
    token = _current.set(registry)
    try:
        yield registry
    finally:
        _current.reset(token)


def current_metrics():
    """The ambient :class:`MetricsRegistry`, or ``None`` when disabled."""
    return _current.get()


def counter(name: str):
    """The ambient registry's counter ``name``, or a no-op when disabled."""
    registry = _current.get()
    return NULL_INSTRUMENT if registry is None else registry.counter(name)


def gauge(name: str):
    """The ambient registry's gauge ``name``, or a no-op when disabled."""
    registry = _current.get()
    return NULL_INSTRUMENT if registry is None else registry.gauge(name)


def histogram(name: str):
    """The ambient registry's histogram ``name``, or a no-op when disabled."""
    registry = _current.get()
    return NULL_INSTRUMENT if registry is None else registry.histogram(name)
