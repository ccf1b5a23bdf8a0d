"""Segment-store internals (repro.store): atomic publication, the
append-only JSONL log, CRC/torn-tail recovery, advisory locking, and
checkpoint retention.

Resume *semantics* (verdict equivalence across snapshot/restore) live
in ``tests/test_resume.py``; this file pins the durability substrate
those semantics stand on (DESIGN.md S14).
"""

import json
import os

import pytest

from repro.core.history import R, W
from repro.store import (
    CHECKPOINT_SCHEMA,
    MANIFEST_SCHEMA,
    SegmentStore,
    StoreCorruption,
    StoreLocked,
    atomic_write_json,
    atomic_write_text,
    crc32_of,
    is_store_dir,
    store_meta,
)


def _events(n, *, sessions=3):
    """``n`` committed write events (unique keys — trivially SI)."""
    return [(i % sessions, (W(f"k{i}", i + 1),), "committed", None)
            for i in range(n)]


def _tmp_litter(directory):
    return [name for name in os.listdir(directory) if ".tmp" in name]


class TestAtomicWrites:
    def test_atomic_write_text_replaces_and_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "first")
        atomic_write_text(str(target), "second")
        assert target.read_text() == "second"
        assert _tmp_litter(tmp_path) == []

    def test_serialization_failure_never_touches_the_target(self, tmp_path):
        """The regression the atomic writer exists for: a dump that
        raises mid-serialization must leave the previous file intact."""
        target = tmp_path / "out.json"
        atomic_write_json(str(target), {"ok": True})
        before = target.read_bytes()
        with pytest.raises(TypeError):
            atomic_write_json(str(target), {"bad": object()})
        assert target.read_bytes() == before
        assert _tmp_litter(tmp_path) == []

    def test_replace_failure_cleans_up_the_tmp_file(self, tmp_path,
                                                    monkeypatch):
        """A crash *between* write and publish (simulated: os.replace
        raises) leaves the old contents and no tmp litter behind."""
        import repro.store.atomic as atomic_mod

        target = tmp_path / "out.json"
        atomic_write_text(str(target), "old")

        def boom(src, dst):
            raise OSError("simulated crash at publish")

        monkeypatch.setattr(atomic_mod.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(str(target), "new")
        monkeypatch.undo()
        assert target.read_text() == "old"
        assert _tmp_litter(tmp_path) == []

    def test_dump_history_is_atomic_against_bad_payloads(self, tmp_path):
        """``dump_history`` serializes before touching the file: an
        unserializable value aborts the dump without corrupting the
        previously-written history."""
        from repro.core.history import HistoryBuilder
        from repro.histories.codec import dump_history, load_history

        builder = HistoryBuilder()
        builder.txn(0, [W("x", 1)])
        good = builder.build()
        path = tmp_path / "history.json"
        dump_history(good, str(path))
        before = path.read_bytes()

        builder = HistoryBuilder()
        builder.txn(0, [W("x", object())])
        with pytest.raises((TypeError, ValueError)):
            dump_history(builder.build(), str(path))
        assert path.read_bytes() == before
        assert len(load_history(str(path))) == 1
        assert _tmp_litter(tmp_path) == []

    def test_bench_report_write_is_atomic(self, tmp_path, monkeypatch):
        """BenchReport.write publishes via the atomic writer: a failed
        publish keeps the previous BENCH_*.json readable."""
        import repro.store.atomic as atomic_mod
        from repro.bench.results import BenchReport, load_report

        report = BenchReport("atomictest", scale=1.0, config={})
        report.add_point("a", 1, seconds=0.5, axis="n")
        out = report.write(str(tmp_path))
        before = open(out, "rb").read()

        report.add_point("a", 2, seconds=0.6, axis="n")
        real_replace = atomic_mod.os.replace

        def boom(src, dst):
            raise OSError("simulated crash at publish")

        monkeypatch.setattr(atomic_mod.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            report.write(str(tmp_path))
        monkeypatch.setattr(atomic_mod.os, "replace", real_replace)
        assert open(out, "rb").read() == before
        assert load_report(out)["bench"] == "atomictest"
        assert _tmp_litter(tmp_path) == []

    def test_crc32_of_matches_zlib(self, tmp_path):
        import zlib

        blob = b"x" * 200_000 + b"tail"
        path = tmp_path / "blob"
        path.write_bytes(blob)
        assert crc32_of(str(path)) == (zlib.crc32(blob) & 0xFFFFFFFF)


class TestSegmentLog:
    def test_append_iter_round_trip(self, tmp_path):
        events = [
            (0, (W("x", 1),), "committed", None),
            (1, (R("x", 1), W("y", 2)), "committed", (3, 9)),
            (2, (W("z", 3),), "aborted", None),
        ]
        with SegmentStore.create(str(tmp_path / "s")) as store:
            positions = [store.append_event(e) for e in events]
            assert positions == [0, 1, 2]
            assert store.total_events == 3
            got = list(store.iter_events())
        assert [pos for pos, _ in got] == [0, 1, 2]
        assert [e[0] for _, e in got] == [0, 1, 2]
        assert got[1][1][3] == (3, 9)

    def test_segments_roll_and_survive_reopen(self, tmp_path):
        path = str(tmp_path / "s")
        with SegmentStore.create(path, segment_max_events=4) as store:
            for e in _events(10):
                store.append_event(e)
            assert store.segments == 3  # two sealed + the active one
        manifest = json.loads((tmp_path / "s" / "MANIFEST.json").read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert len(manifest["segments"]) == 2
        assert all("crc32" in seg for seg in manifest["segments"])
        with SegmentStore.open(path) as store:
            assert store.total_events == 10
            assert [e[1][0].key for _, e in store.iter_events()] == [
                f"k{i}" for i in range(10)
            ]
            assert list(store.iter_events(7))[0][0] == 7

    def test_positions_count_on_across_seals_and_a_reopen(self, tmp_path):
        """Each append returns the next position, whether it lands in a
        fresh segment, seals one, or follows a reopen (the sealed-event
        total is kept as segments seal and read from the manifest)."""
        path = str(tmp_path / "s")
        events = _events(23)
        with SegmentStore.create(path, segment_max_events=3) as store:
            for position, event in enumerate(events[:11]):
                assert store.append_event(event) == position
                assert store.total_events == position + 1
            assert store.segments == 4
        with SegmentStore.open(path) as store:
            assert store.total_events == 11
            for position, event in enumerate(events[11:], 11):
                assert store.append_decoded(event) == position
                assert store.total_events == position + 1
            assert store.segments == 8
            assert [pos for pos, _ in store.iter_events()] == list(range(23))
        with SegmentStore.open(path, readonly=True) as store:
            assert store.total_events == 23

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "s")
        with SegmentStore.create(path) as store:
            for e in _events(5):
                store.append_event(e)
        active = os.path.join(path, "seg-00000000.jsonl")
        with open(active, "a", encoding="utf-8") as handle:
            handle.write('{"session": 0, "ops": [["w", "torn"')  # no newline
        with SegmentStore.open(path) as store:
            assert store.total_events == 5
            assert len(list(store.iter_events())) == 5
            # The torn bytes are gone: appending again keeps the log valid.
            store.append_event((0, (W("k9", 99),), "committed", None))
            assert store.total_events == 6

    def test_readonly_open_refuses_to_truncate_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "s")
        with SegmentStore.create(path) as store:
            store.append_event((0, (W("x", 1),), "committed", None))
        active = os.path.join(path, "seg-00000000.jsonl")
        with open(active, "a", encoding="utf-8") as handle:
            handle.write("{torn")
        with pytest.raises(StoreCorruption):
            SegmentStore(path, readonly=True)

    def test_sealed_segment_corruption_is_detected(self, tmp_path):
        path = str(tmp_path / "s")
        with SegmentStore.create(path, segment_max_events=2) as store:
            for e in _events(4):
                store.append_event(e)
        seg = os.path.join(path, "seg-00000000.jsonl")
        blob = bytearray(open(seg, "rb").read())
        blob[5] ^= 0xFF
        open(seg, "wb").write(bytes(blob))
        with pytest.raises(StoreCorruption, match="CRC"):
            SegmentStore.open(path)

    def test_invalid_event_is_rejected_and_not_journaled(self, tmp_path):
        with SegmentStore.create(str(tmp_path / "s")) as store:
            with pytest.raises(ValueError):
                store.append_event((0, (("bogus-op", "x"),), "committed",
                                    None))
            assert store.total_events == 0
            assert list(store.iter_events()) == []

    def test_locking_is_exclusive_per_process_handle(self, tmp_path):
        path = str(tmp_path / "s")
        store = SegmentStore.create(path)
        try:
            with pytest.raises(StoreLocked):
                SegmentStore.open(path)
        finally:
            store.close()
        SegmentStore.open(path).close()  # released on close

    def test_meta_round_trip_and_is_store_dir(self, tmp_path):
        path = str(tmp_path / "s")
        with SegmentStore.create(path, meta={"tenant": "t0"}) as store:
            store.update_meta(sessions=[0, 1, 2])
        assert is_store_dir(path)
        assert not is_store_dir(str(tmp_path))
        meta = store_meta(path)
        assert meta == {"tenant": "t0", "sessions": [0, 1, 2]}
        assert store_meta(str(tmp_path)) == {}


def _latest(store):
    """The newest loadable checkpoint as ``(events, checker_state)``."""
    payload = store.latest_checkpoint_payload()
    return payload["events"], payload["checker"]


class TestCheckpoints:
    def _store_with_checkpoints(self, tmp_path, counts,
                                keep_checkpoints=2):
        store = SegmentStore.create(str(tmp_path / "s"),
                                    keep_checkpoints=keep_checkpoints)
        for e in _events(max(counts)):
            store.append_event(e)
        for count in counts:
            store.save_checkpoint(count, {"v": 1, "at": count})
        return store

    def test_retention_keeps_only_the_newest(self, tmp_path):
        with self._store_with_checkpoints(tmp_path, [5, 10, 15]) as store:
            assert store.checkpoints() == [10, 15]
            events, state = _latest(store)
        assert events == 15 and state["at"] == 15

    def test_torn_checkpoint_falls_back_to_the_older_one(self, tmp_path):
        with self._store_with_checkpoints(tmp_path, [5, 10]) as store:
            newest = os.path.join(str(tmp_path / "s"), "checkpoints",
                                  "ckpt-0000000010.json")
            open(newest, "w").write('{"torn')
            events, state = _latest(store)
            assert events == 5 and state["at"] == 5

    def test_checkpoint_ahead_of_the_log_is_skipped(self, tmp_path):
        """A checkpoint claiming more events than the durable log holds
        (crash between worker checkpoint and journal append) cannot be
        the log's future and must be ignored."""
        with self._store_with_checkpoints(tmp_path, [5]) as store:
            ckpt_dir = os.path.join(str(tmp_path / "s"), "checkpoints")
            future = {"schema": CHECKPOINT_SCHEMA, "events": 999,
                      "checker": {"v": 1}}
            with open(os.path.join(ckpt_dir, "ckpt-0000000999.json"),
                      "w", encoding="utf-8") as handle:
                json.dump(future, handle)
            events, _state = _latest(store)
            assert events == 5

    def test_checkpoint_payload_carries_extra(self, tmp_path):
        with SegmentStore.create(str(tmp_path / "s")) as store:
            store.append_event((0, (W("x", 1),), "committed", None))
            store.save_checkpoint(1, {"v": 1}, extra={"committed_seen": 1})
            payload = store.latest_checkpoint_payload()
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert payload["extra"] == {"committed_seen": 1}
