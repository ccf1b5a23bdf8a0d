"""Observability substrate: tracing, metrics, and logging policy.

See ``docs/observability.md`` for the user-facing tour.  The engines
instrument themselves through :func:`trace_span` and the metric free
functions, all of which are no-ops until a :class:`Tracer` /
:class:`MetricsRegistry` is installed — by the ``repro.check`` facade
(on by default), by the CLI's ``--trace`` flag, or explicitly via
:func:`use_tracer` / :func:`use_metrics`.
"""

from .logs import configure_logging, get_logger, verbosity_level
from .metrics import (
    MetricsRegistry,
    collector_passes,
    counter,
    current_metrics,
    gauge,
    histogram,
    prometheus_text,
    publish_collector_passes,
    use_metrics,
)
from .trace import (
    TRACE_SCHEMA,
    Tracer,
    chrome_trace_events,
    current_tracer,
    load_chrome_trace,
    span_tree,
    stage_seconds,
    trace_span,
    use_tracer,
    validate_trace,
    write_chrome_trace,
)

__all__ = [
    "TRACE_SCHEMA",
    "Tracer",
    "MetricsRegistry",
    "trace_span",
    "use_tracer",
    "current_tracer",
    "counter",
    "gauge",
    "histogram",
    "prometheus_text",
    "collector_passes",
    "publish_collector_passes",
    "use_metrics",
    "current_metrics",
    "validate_trace",
    "span_tree",
    "stage_seconds",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_chrome_trace",
    "get_logger",
    "configure_logging",
    "verbosity_level",
]
