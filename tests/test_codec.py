"""Round-trip tests for history serialization (repro.histories.codec)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history import ABORTED, HistoryBuilder, R, W
from repro.histories.codec import (
    dump_history,
    history_from_json,
    history_from_text,
    history_to_json,
    history_to_text,
    load_history,
)
from repro.workloads.random_histories import random_history


def histories_equal(a, b) -> bool:
    if len(a.sessions) != len(b.sessions):
        return False
    for sa, sb in zip(a.sessions, b.sessions):
        if len(sa) != len(sb):
            return False
        for ta, tb in zip(sa, sb):
            if ta.status != tb.status or list(ta.ops) != list(tb.ops):
                return False
    return True


def sample_history():
    b = HistoryBuilder()
    b.txn(0, [W("x", 1), R("y", None)])
    b.txn(1, [R("x", 1), W("y", 2)])
    b.txn(0, [W("x", 3)], status=ABORTED)
    return b.build()


class TestJson:
    def test_roundtrip(self):
        h = sample_history()
        assert histories_equal(h, history_from_json(history_to_json(h)))

    def test_preserves_aborted_status(self):
        h = sample_history()
        back = history_from_json(history_to_json(h))
        assert back.sessions[0][1].status == ABORTED

    def test_initial_value_roundtrip(self):
        h = sample_history()
        back = history_from_json(history_to_json(h))
        assert back.sessions[0][0].ops[1].value is None

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_roundtrip(self, seed):
        rng = random.Random(seed)
        h = random_history(rng, sessions=3, txns_per_session=2, abort_prob=0.2)
        assert histories_equal(h, history_from_json(history_to_json(h)))


class TestText:
    def test_roundtrip(self):
        h = sample_history()
        assert histories_equal(h, history_from_text(history_to_text(h)))

    def test_format_is_line_based(self):
        text = history_to_text(sample_history())
        lines = [l for l in text.splitlines() if l]
        assert len(lines) == 3
        assert lines[0].startswith("0 c |")
        assert lines[1].startswith("0 a |")
        assert lines[2].startswith("1 c |")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n0 c | w(x,1)\n"
        h = history_from_text(text)
        assert len(h) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            history_from_text("0 zombie | w(x,1)")
        with pytest.raises(ValueError):
            history_from_text("0 c | q(x,1)")

    def test_initial_marker(self):
        h = history_from_text("0 c | r(x,_)")
        assert h.sessions[0][0].ops[0].value is None

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_roundtrip(self, seed):
        rng = random.Random(seed)
        h = random_history(rng, sessions=2, txns_per_session=2, abort_prob=0.2)
        assert histories_equal(h, history_from_text(history_to_text(h)))


class TestFileIO:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_dump_load(self, tmp_path, fmt):
        h = sample_history()
        path = tmp_path / f"history.{fmt}"
        dump_history(h, str(path), fmt=fmt)
        assert histories_equal(h, load_history(str(path), fmt=fmt))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            dump_history(sample_history(), str(tmp_path / "x"), fmt="xml")

    def test_verdict_survives_roundtrip(self):
        """Serialization must not change the checker's verdict."""
        from repro import PolySIChecker
        from _helpers import long_fork_history

        h = long_fork_history()
        back = history_from_json(history_to_json(h))
        assert (
            PolySIChecker().check(h).satisfies_si
            == PolySIChecker().check(back).satisfies_si
            == False  # noqa: E712
        )


class TestTimestamps:
    """Optional per-transaction (start_ts, commit_ts) fields: strictly
    additive, exactly round-tripped, and absent files stay loadable."""

    def stamped_history(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)], start_ts=0.0, commit_ts=1.0)
        b.txn(1, [R("x", 1), W("y", 2)], start_ts=1.5, commit_ts=2.5)
        b.txn(0, [R("y", 2)], start_ts=3.0, commit_ts=3.5)
        b.txn(1, [W("y", 9)], status=ABORTED)
        return b.build()

    def assert_stamps_equal(self, a, b):
        for sa, sb in zip(a.sessions, b.sessions):
            for ta, tb in zip(sa, sb):
                assert (ta.start_ts, ta.commit_ts) == \
                    (tb.start_ts, tb.commit_ts), (ta.name, tb.name)

    def test_json_roundtrip_preserves_timestamps(self):
        h = self.stamped_history()
        back = history_from_json(history_to_json(h))
        assert histories_equal(h, back)
        self.assert_stamps_equal(h, back)

    def test_text_roundtrip_preserves_timestamps(self):
        h = self.stamped_history()
        back = history_from_text(history_to_text(h))
        assert histories_equal(h, back)
        self.assert_stamps_equal(h, back)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_dump_load_preserves_timestamps(self, tmp_path, fmt):
        h = self.stamped_history()
        path = tmp_path / f"history.{fmt}"
        dump_history(h, str(path), fmt=fmt)
        self.assert_stamps_equal(h, load_history(str(path), fmt=fmt))

    def test_untimestamped_history_roundtrips_without_ts_fields(self):
        import json

        h = sample_history()
        payload = json.loads(history_to_json(h))
        assert all("ts" not in txn
                   for sess in payload["sessions"] for txn in sess)
        back = history_from_json(history_to_json(h))
        assert all(t.start_ts is None and t.commit_ts is None
                   for t in back.transactions)

    def test_malformed_text_timestamp_token_rejected(self):
        with pytest.raises(ValueError, match="malformed timestamp"):
            history_from_text("s0 c 1.0:bogus | w(x)=1")

    def test_pre_timestamp_file_loads_but_timestamp_engine_rejects(
            self, tmp_path):
        """A history written before timestamp capture existed (no "ts"
        fields anywhere) must load cleanly — and the ``timestamp``
        engine must reject it with an actionable error, not crash or
        guess."""
        from repro.api import MissingTimestampsError, check

        path = tmp_path / "pre-pr8.json"
        dump_history(sample_history(), str(path), fmt="json")
        legacy = load_history(str(path), fmt="json")
        assert check(legacy).ok  # timestamp-free engines are unaffected
        with pytest.raises(MissingTimestampsError,
                           match="re-collect with a current adapter"):
            check(legacy, engine="timestamp")


class TestEventCodec:
    """repro-events/1: the streaming event-line format."""

    def stamped_history(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)], start_ts=1.0, commit_ts=2.0)
        b.txn(1, [R("x", 1), W("y", 2)], start_ts=1.5, commit_ts=2.5)
        b.txn(0, [R("y", 2)])
        b.txn(1, [W("y", 9)], status=ABORTED)
        return b.build()

    def test_single_event_roundtrip(self):
        from repro.histories.codec import event_from_json, event_to_json

        event = (3, (W("x", 1), R("y", None)), "committed", (1.0, 2.0))
        assert event_from_json(event_to_json(event)) == event

    def test_event_without_ts_roundtrips_with_none(self):
        from repro.histories.codec import event_from_json, event_to_json

        event = (0, (W("x", 1),), "committed")
        line = event_to_json(event)
        assert '"ts"' not in line
        assert event_from_json(line) == (0, (W("x", 1),), "committed", None)

    def test_history_event_roundtrip_is_byte_identical(self):
        """history -> events -> JSONL -> events -> history reproduces
        the exact bytes of both history codecs (the acceptance
        property for repro-events/1)."""
        from repro.histories.codec import (
            events_from_jsonl,
            events_to_jsonl,
            history_from_events,
            history_to_events,
        )

        h = self.stamped_history()
        wire = events_to_jsonl(history_to_events(h))
        back = history_from_events(events_from_jsonl(wire))
        assert history_to_json(back) == history_to_json(h)
        assert history_to_text(back) == history_to_text(h)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_history_event_roundtrip_property(self, seed):
        """Property form over random histories (including aborted
        transactions): the event stream is a lossless representation."""
        from repro.histories.codec import (
            events_from_jsonl,
            events_to_jsonl,
            history_from_events,
            history_to_events,
        )

        h = random_history(random.Random(seed), sessions=4,
                           txns_per_session=3, keys=4, abort_prob=0.2)
        wire = events_to_jsonl(history_to_events(h))
        back = history_from_events(events_from_jsonl(wire))
        assert history_to_json(back) == history_to_json(h)

    def test_pre_ts_event_lines_accepted_with_honest_fraction(self):
        """Event lines from a pre-timestamp producer (no "ts" key
        anywhere) parse fine and the rebuilt history reports a 0.0
        timestamped fraction — never a fabricated stamp."""
        from repro.histories.codec import events_from_jsonl, history_from_events

        wire = (
            '{"session": 0, "status": "committed", "ops": [["w", "x", 1]]}\n'
            '{"session": 1, "status": "committed", "ops": [["r", "x", 1]]}\n'
        )
        h = history_from_events(events_from_jsonl(wire))
        assert h.timestamped_fraction == 0.0
        assert all(t.start_ts is None for t in h.transactions)

    def test_mixed_ts_presence_gives_partial_fraction(self):
        from repro.histories.codec import events_from_jsonl, history_from_events

        wire = (
            '{"session": 0, "status": "committed", "ops": [["w", "x", 1]], '
            '"ts": [1.0, 2.0]}\n'
            '{"session": 1, "status": "committed", "ops": [["r", "x", 1]]}\n'
        )
        h = history_from_events(events_from_jsonl(wire))
        assert h.timestamped_fraction == 0.5

    def test_blank_and_comment_lines_skipped(self):
        from repro.histories.codec import events_from_jsonl

        wire = ('# a comment\n\n'
                '{"session": 0, "status": "committed", '
                '"ops": [["w", "x", 1]]}\n')
        assert len(events_from_jsonl(wire)) == 1

    @pytest.mark.parametrize("line,needle", [
        ('{"session": 0, "status": "committed", "ops": [], "extra": 1}',
         "unknown event field"),
        ('{"session": 0, "ops": []}', "missing"),
        ('{"session": "a", "status": "committed", "ops": []}',
         "must be an int"),
        ('{"session": 0, "status": "maybe", "ops": []}', "unknown event status"),
        ('{"session": 0, "status": "committed", "ops": [["w", "x"]]}',
         "malformed event op"),
        ('{"session": 0, "status": "committed", "ops": [["w","x",1]], '
         '"ts": [1.0]}', "ts must be"),
        ('not json', "malformed event line"),
        ('[1, 2]', "JSON object"),
        # Unhashable keys/values (JSON arrays/objects) must die at the
        # codec, not later inside a checker's key/value maps.
        ('{"session": 0, "status": "committed", "ops": [["w", ["x"], 1]]}',
         "JSON scalar"),
        ('{"session": 0, "status": "committed", '
         '"ops": [["w", "x", {"v": 1}]]}', "JSON scalar"),
        ('{"session": 0, "status": "committed", "ops": [[1, "x", 1]]}',
         "kind must be a string"),
        ('{"session": 0, "status": "committed", "ops": [["q", "x", 1]]}',
         "unknown operation kind"),
        ('{"session": 0, "status": "committed", "ops": [["w","x",1]], '
         '"ts": ["a", 2.0]}', "numbers or null"),
    ])
    def test_malformed_event_lines_rejected(self, line, needle):
        from repro.histories.codec import event_from_json

        with pytest.raises(ValueError, match=needle):
            event_from_json(line)

    def test_collection_run_events_roundtrip_through_wire(self):
        """A real collection's event feed crosses the wire losslessly:
        serializing CollectionRun.iter_events() and rebuilding yields
        the collected history byte-for-byte."""
        from repro.collect import Collector, SQLiteAdapter
        from repro.histories.codec import (
            events_from_jsonl,
            events_to_jsonl,
            history_from_events,
        )
        from repro.workloads.generator import WorkloadParams, generate_workload

        spec = generate_workload(
            WorkloadParams(sessions=3, txns_per_session=4, ops_per_txn=3,
                           keys=8, read_proportion=0.5,
                           distribution="uniform"),
            seed=7,
        )
        adapter = SQLiteAdapter()
        try:
            run = Collector(adapter).run(spec)
        finally:
            adapter.close()
        wire = events_to_jsonl(run.iter_events())
        back = history_from_events(events_from_jsonl(wire))
        assert history_to_json(back) == history_to_json(run.history)
