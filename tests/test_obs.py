"""Unit tests for the observability layer (``repro.obs``): the span
tracer, the metrics registry, the ``repro-trace/1`` validator, the
Chrome trace_event round-trip, and the logging policy.

The cross-mode guarantees (every registered engine x mode combination
emits a well-formed payload) live in ``test_obs_trace_soundness.py``;
this module pins the primitives those guarantees are built from.
"""

import json
import logging
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    configure_logging,
    counter,
    current_metrics,
    current_tracer,
    gauge,
    get_logger,
    histogram,
    load_chrome_trace,
    span_tree,
    stage_seconds,
    trace_span,
    use_metrics,
    use_tracer,
    validate_trace,
    verbosity_level,
    write_chrome_trace,
)
from repro.obs.trace import NULL_SPAN, TRACE_SCHEMA


class TestDisabledPath:
    """With nothing installed, instrumentation must be inert."""

    def test_trace_span_returns_the_shared_null_span(self):
        assert current_tracer() is None
        span = trace_span("prune", backend="numpy")
        assert span is NULL_SPAN
        with span as s:
            s.set(iterations=3)  # attribute calls are absorbed

    def test_metric_handles_are_shared_noops(self):
        assert current_metrics() is None
        counter("closure.python.inserts_new").inc(5)
        gauge("solver.conflicts").set(9)
        histogram("stage.prune").observe(0.25)  # nothing raises


class TestTracer:
    def test_nested_spans_record_parent_links_and_attrs(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer", corpus="cascade"):
                with trace_span("inner") as inner:
                    inner.set(pruned=17)
        payload = validate_trace(tracer.payload(mode="batch",
                                                engine="polysi"))
        assert payload["schema"] == TRACE_SCHEMA
        assert payload["mode"] == "batch" and payload["engine"] == "polysi"
        by_name = {s["name"]: s for s in payload["spans"]}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["attrs"] == {"corpus": "cascade"}
        assert by_name["inner"]["attrs"] == {"pruned": 17}
        assert by_name["inner"]["wall"] >= 0.0

    def test_spans_commit_on_exit_only(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("open"):
                assert tracer.export_spans() == []
        assert [s["name"] for s in tracer.export_spans()] == ["open"]

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("root"):
                with trace_span("a"):
                    pass
                with trace_span("b"):
                    pass
        tree = span_tree(tracer.payload())
        root = tree[None][0]
        assert sorted(c["name"] for c in tree[root["id"]]) == ["a", "b"]

    def test_max_spans_cap_counts_dropped_instead_of_losing_silently(self):
        tracer = Tracer(max_spans=2)
        with use_tracer(tracer):
            for i in range(5):
                with trace_span(f"s{i}"):
                    pass
        payload = validate_trace(tracer.payload())
        assert len(payload["spans"]) == 2
        assert payload["dropped"] == 3

    def test_stage_seconds_totals_by_name(self):
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(3):
                with trace_span("classify"):
                    time.sleep(0.001)
        totals = stage_seconds(tracer.payload())
        assert set(totals) == {"classify"}
        assert totals["classify"] >= 0.003


class TestAdopt:
    """Worker spans ship as plain dicts and re-parent under a pool span."""

    def _worker_spans(self):
        worker = Tracer()
        with use_tracer(worker):
            with trace_span("shard", index=0):
                with trace_span("prune"):
                    pass
        return worker.export_spans()

    def test_adopt_reparents_stamps_worker_and_stays_valid(self):
        exported = self._worker_spans()
        parent = Tracer()
        with use_tracer(parent):
            with trace_span("pool") as pool:
                pass
            adopted = parent.adopt(exported, parent=pool, worker=4242)
        assert adopted == 2
        payload = validate_trace(parent.payload())
        by_name = {s["name"]: s for s in payload["spans"]}
        assert by_name["shard"]["parent"] == by_name["pool"]["id"]
        assert by_name["prune"]["parent"] == by_name["shard"]["id"]
        assert by_name["shard"]["worker"] == 4242
        assert by_name["prune"]["worker"] == 4242
        assert by_name["pool"]["worker"] is None
        # clocks rebase onto the pool span's start
        assert by_name["shard"]["start"] >= by_name["pool"]["start"]

    def test_adopt_preserves_the_parent_before_child_invariant(self):
        exported = self._worker_spans()
        parent = Tracer()
        parent.adopt(exported, parent=None, worker="w0")
        payload = validate_trace(parent.payload())  # would raise on orphans
        ids = [s["id"] for s in payload["spans"]]
        assert ids == sorted(ids)


class TestValidateTrace:
    def _payload(self, spans):
        return {"schema": TRACE_SCHEMA, "mode": None, "engine": None,
                "spans": spans, "metrics": {}, "dropped": 0}

    def _span(self, **overrides):
        span = {"id": 1, "parent": None, "name": "check", "start": 0.0,
                "wall": 0.01, "cpu": 0.01, "rss_kb": 0, "attrs": {},
                "worker": None}
        span.update(overrides)
        return span

    def test_accepts_a_minimal_payload(self):
        validate_trace(self._payload([self._span()]))

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_trace({"schema": "repro-trace/0", "spans": []})

    def test_rejects_orphan_spans(self):
        spans = [self._span(), self._span(id=2, parent=99)]
        with pytest.raises(ValueError, match="orphan"):
            validate_trace(self._payload(spans))

    def test_rejects_children_listed_before_their_parents(self):
        spans = [self._span(id=2, parent=5),
                 self._span(id=5, parent=None)]
        with pytest.raises(ValueError, match="orphan"):
            validate_trace(self._payload(spans))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_trace(self._payload([self._span(), self._span()]))

    def test_rejects_negative_wall(self):
        with pytest.raises(ValueError, match="wall"):
            validate_trace(self._payload([self._span(wall=-1.0)]))

    def test_rejects_non_scalar_attrs(self):
        spans = [self._span(attrs={"bad": [1, 2]})]
        with pytest.raises(ValueError, match="non-scalar"):
            validate_trace(self._payload(spans))

    def test_rejects_unexpected_span_keys(self):
        span = self._span()
        span["extra"] = 1
        with pytest.raises(ValueError, match="keys"):
            validate_trace(self._payload([span]))


class TestChromeTrace:
    def _traced_payload(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("check") as check_span:
                with trace_span("prune", iterations=2):
                    pass
            tracer.adopt([{"id": 1, "parent": None, "name": "shard",
                           "start": 0.0, "wall": 0.01, "cpu": 0.0,
                           "rss_kb": 0, "attrs": {}, "worker": None}],
                         parent=check_span, worker=7)
        return tracer.payload(mode="parallel", engine="polysi")

    def test_events_are_complete_with_worker_lanes(self):
        events = chrome_trace_events(self._traced_payload())
        assert all(e["ph"] == "X" for e in events)
        tids = {e["name"]: e["tid"] for e in events}
        assert tids["shard"] == 8          # worker pid 7 -> lane 8
        assert tids["check"] == 0          # parent process lane
        assert all(e["dur"] >= 0 for e in events)

    def test_write_load_round_trip(self, tmp_path):
        payload = self._traced_payload()
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(payload, path) == path
        loaded = load_chrome_trace(path)
        assert loaded == json.loads(json.dumps(payload))

    def test_load_rejects_a_file_without_the_embedded_payload(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError, match="repro_trace"):
            load_chrome_trace(str(path))


class TestMetricsRegistry:
    def test_instruments_are_get_or_create_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            counter("z.total").inc()
            counter("a.total").inc(2)
            gauge("solver.conflicts").set(11)
            histogram("stage").observe(1.0)
            histogram("stage").observe(3.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.total", "z.total"]
        assert snap["counters"]["a.total"] == 2
        assert snap["gauges"] == {"solver.conflicts": 11}
        assert snap["histograms"]["stage"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_ambient_helpers_resolve_against_the_installed_registry(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert current_metrics() is registry
            counter("hits").inc()
        assert current_metrics() is None
        assert registry.snapshot()["counters"] == {"hits": 1}


class TestLogging:
    def test_get_logger_namespaces_under_repro(self):
        assert (get_logger("extensions.segmented").name
                == "repro.extensions.segmented")
        assert get_logger("repro.online").name == "repro.online"
        assert get_logger("repro").name == "repro"

    def test_verbosity_level_mapping(self):
        assert verbosity_level(-2) == logging.ERROR
        assert verbosity_level(-1) == logging.ERROR
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(2) == logging.DEBUG

    def test_configure_logging_is_idempotent(self):
        root = configure_logging(2)
        try:
            assert root.level == logging.DEBUG
            configure_logging(0)
            assert root.level == logging.WARNING
            assert len(root.handlers) == 1  # replaced, not stacked
        finally:
            for handler in list(root.handlers):
                root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
            root.propagate = True

    def test_library_modules_never_attach_handlers(self):
        import repro.core.checker  # noqa: F401 -- imported for the side check
        import repro.extensions.segmented  # noqa: F401
        import repro.online.checker  # noqa: F401

        for name in ("repro.core.checker", "repro.online",
                     "repro.extensions.segmented"):
            assert logging.getLogger(name).handlers == []
