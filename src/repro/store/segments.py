"""The append-only segment store: durable histories + checkpoints.

A *state directory* holds one tenant's (or one ``watch`` run's) event
log and checker checkpoints::

    state-dir/
      MANIFEST.json            # repro-store/1: segment list, CRCs, meta
      LOCK                     # advisory flock target (never written)
      seg-00000000.jsonl       # repro-events/1, one event per line
      seg-00000001.jsonl       # ... the highest-numbered one is active
      checkpoints/
        ckpt-0000000512.json   # repro-checkpoint/1 at event count 512

Design rules, and why:

- **Append-only segments.**  Events are only ever appended to the
  active (highest-numbered) segment; once it reaches
  ``segment_max_events`` it is *sealed* — fsynced, CRC'd into the
  manifest — and a fresh segment starts.  Sealed files never change,
  so their CRC is checked once per open and the bulk of the log never
  needs re-validation.
- **Atomic manifest publication.**  The manifest is rewritten through
  :func:`repro.store.atomic.atomic_write_json` (tmp + fsync +
  ``os.replace`` + directory fsync), so a crash mid-seal leaves either
  the old manifest (the new segment is re-derived by directory scan)
  or the new one — never a torn JSON file.
- **Torn-tail tolerance.**  Appends are ``write`` + ``flush`` (the
  data survives a SIGKILL; pass ``durability="fsync"`` to also survive
  power loss).  A crash can still tear the *last* line of the active
  segment; on open the store drops exactly that line and truncates the
  file back to the last newline.  This is safe by the journal-before-
  ack protocol: a torn line was never flushed, so it was never
  acknowledged, so the producer still owns that event.
- **Advisory locking.**  A writer holds an exclusive ``flock`` on
  ``LOCK`` for the lifetime of the store object; readers hold a shared
  one.  Two daemons pointed at the same state dir fail fast with
  :class:`StoreLocked` instead of interleaving appends.
- **Checkpoints are keyed by event count.**  ``ckpt-N`` means "this is
  the checker state after consuming exactly the first N events of the
  log"; resume = restore the newest checkpoint, then replay events
  ``N..total``.  Only the newest ``keep_checkpoints`` are retained.

All methods are thread-safe under one internal lock — the service
daemon appends from its asyncio thread while its checker thread writes
checkpoints.
"""

from __future__ import annotations

import io
import json
import os
import threading
from typing import Iterator, List, Optional, Sequence, Tuple

from ..histories.codec import EVENTS_SCHEMA, event_from_json, event_to_json
from ..utils.gcpause import collector_paused
from .atomic import atomic_write_json, crc32_of, fsync_dir

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = [
    "MANIFEST_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "SegmentStore",
    "StoreError",
    "StoreCorruption",
    "StoreLocked",
    "is_store_dir",
    "store_meta",
]

#: Version tag of the manifest format.
MANIFEST_SCHEMA = "repro-store/1"
#: Version tag of checkpoint files.
CHECKPOINT_SCHEMA = "repro-checkpoint/1"

_MANIFEST = "MANIFEST.json"
_LOCKFILE = "LOCK"
_CKPT_DIR = "checkpoints"


class StoreError(Exception):
    """Base class for segment-store failures."""


class StoreCorruption(StoreError):
    """A sealed segment or checkpoint failed validation on open."""


class StoreLocked(StoreError):
    """Another process holds a conflicting advisory lock on the store."""


def is_store_dir(path: str) -> bool:
    """True iff ``path`` looks like a segment-store state directory."""
    manifest = os.path.join(path, _MANIFEST)
    if not os.path.isfile(manifest):
        return False
    try:
        with open(manifest, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return False
    return isinstance(data, dict) and data.get("schema") == MANIFEST_SCHEMA


def store_meta(path: str) -> dict:
    """The manifest ``meta`` block of the store at ``path``, read
    without taking the store lock (empty on any problem).  The service
    daemon uses this at startup to learn each journaled tenant's
    declared session universe before re-registering it."""
    manifest = os.path.join(path, _MANIFEST)
    try:
        with open(manifest, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    meta = data.get("meta") if isinstance(data, dict) else None
    return dict(meta) if isinstance(meta, dict) else {}


def _segment_name(index: int) -> str:
    return f"seg-{index:08d}.jsonl"


class SegmentStore:
    """One state directory: an event log in segments plus checkpoints.

    Use :meth:`create` / :meth:`open` / :meth:`open_or_create`, or the
    constructor with ``mode`` in ``{"create", "open", "auto"}``.  The
    store is a context manager; :meth:`close` releases the advisory
    lock.
    """

    def __init__(self, path: str, *, mode: str = "auto",
                 segment_max_events: int = 1024,
                 durability: str = "flush",
                 keep_checkpoints: int = 2,
                 readonly: bool = False,
                 meta: Optional[dict] = None):
        if mode not in ("create", "open", "auto"):
            raise ValueError(f"unknown store mode: {mode!r}")
        if durability not in ("flush", "fsync"):
            raise ValueError(f"unknown durability level: {durability!r}")
        if segment_max_events < 1:
            raise ValueError("segment_max_events must be >= 1")
        self.path = os.path.abspath(path)
        self.durability = durability
        self.keep_checkpoints = max(1, keep_checkpoints)
        self.readonly = readonly
        self._lock = threading.RLock()
        self._lock_handle: Optional[io.TextIOBase] = None
        self._active_handle = None
        self._closed = False

        exists = is_store_dir(self.path)
        if mode == "open" and not exists:
            raise StoreError(f"not a segment store: {self.path}")
        if mode == "create" and exists:
            raise StoreError(f"store already exists: {self.path}")
        if exists:
            self._acquire_lock()
            self._load()
        else:
            if readonly:
                raise StoreError(f"not a segment store: {self.path}")
            os.makedirs(self.path, exist_ok=True)
            os.makedirs(os.path.join(self.path, _CKPT_DIR), exist_ok=True)
            self._acquire_lock()
            self.segment_max_events = int(segment_max_events)
            self.meta = dict(meta or {})
            self._sealed: List[dict] = []
            self._sealed_events = 0
            self._active_index = 0
            self._active_events = 0
            self._write_manifest()
            fsync_dir(self.path)

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(cls, path: str, **kwargs) -> "SegmentStore":
        """Create a fresh store; fails if one already exists at ``path``."""
        return cls(path, mode="create", **kwargs)

    @classmethod
    def open(cls, path: str, **kwargs) -> "SegmentStore":
        """Open an existing store (recovery scan included)."""
        return cls(path, mode="open", **kwargs)

    @classmethod
    def open_or_create(cls, path: str, **kwargs) -> "SegmentStore":
        """Open ``path`` if it is a store, else create one there."""
        return cls(path, mode="auto", **kwargs)

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- locking -------------------------------------------------------------

    def _acquire_lock(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return
        lock_path = os.path.join(self.path, _LOCKFILE)
        handle = open(lock_path, "a+")
        flags = (fcntl.LOCK_SH if self.readonly else fcntl.LOCK_EX)
        try:
            fcntl.flock(handle.fileno(), flags | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise StoreLocked(
                f"store is locked by another process: {self.path}"
            ) from None
        self._lock_handle = handle

    def close(self) -> None:
        """Flush the active segment and release the advisory lock."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._active_handle is not None:
                self._active_handle.flush()
                if self.durability == "fsync":
                    os.fsync(self._active_handle.fileno())
                self._active_handle.close()
                self._active_handle = None
            if self._lock_handle is not None:
                if fcntl is not None:
                    fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
                self._lock_handle.close()
                self._lock_handle = None

    # -- recovery scan -------------------------------------------------------

    def _load(self) -> None:
        manifest_path = os.path.join(self.path, _MANIFEST)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise StoreCorruption(
                f"manifest schema {manifest.get('schema')!r} != "
                f"{MANIFEST_SCHEMA!r}"
            )
        self.segment_max_events = int(manifest["segment_max_events"])
        self.meta = dict(manifest.get("meta") or {})
        self._sealed = list(manifest["segments"])
        # Events in the sealed segments, kept as they seal: a position
        # costs no walk over the manifest.
        self._sealed_events = sum(record["events"] for record in self._sealed)
        for record in self._sealed:
            seg_path = os.path.join(self.path, record["name"])
            if not os.path.isfile(seg_path):
                raise StoreCorruption(f"missing sealed segment "
                                      f"{record['name']}")
            crc = crc32_of(seg_path)
            if crc != record["crc32"]:
                raise StoreCorruption(
                    f"CRC mismatch on {record['name']}: "
                    f"{crc:#010x} != {record['crc32']:#010x}"
                )
        # The active segment is the next index after the sealed ones; a
        # crash between "segment full" and "manifest rewritten" leaves a
        # full unsealed file, which we seal now (completing the roll).
        self._active_index = len(self._sealed)
        self._active_events = self._scan_active()
        while self._active_events >= self.segment_max_events:
            self._seal_active()
            self._active_events = self._scan_active()

    def _scan_active(self) -> int:
        """Count valid events in the active segment, truncating a torn
        trailing line (never acknowledged, so never owed to anyone)."""
        seg_path = os.path.join(self.path, _segment_name(self._active_index))
        if not os.path.isfile(seg_path):
            return 0
        events = 0
        good_end = 0
        with open(seg_path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # torn tail: no terminating newline
                try:
                    event_from_json(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    break  # torn tail: flushed-but-partial JSON
                events += 1
                good_end += len(line)
        size = os.path.getsize(seg_path)
        if good_end != size:
            if self.readonly:
                raise StoreCorruption(
                    f"torn tail in {os.path.basename(seg_path)} "
                    "(read-only open cannot repair it)"
                )
            with open(seg_path, "rb+") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        return events

    # -- appending -----------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Events durably in the log (sealed + active)."""
        with self._lock:
            return self._sealed_events + self._active_events

    @property
    def segments(self) -> int:
        """Segment count, the active one included."""
        with self._lock:
            return len(self._sealed) + 1

    def append_event(self, event: Sequence) -> int:
        """Append one ``(session, ops, status[, ts])`` event tuple.

        Returns the event's log position (0-based).  The line is
        flushed before return — after a SIGKILL the event is still in
        the log (``durability="fsync"`` extends that to power loss).
        """
        return self.append_line(self._encode(event))

    def append_decoded(self, event: Sequence) -> int:
        """:meth:`append_event` for an event that came *out of* the
        codec (``event_from_obj`` / ``event_from_json`` — the service
        door decodes every line it is sent): encoded once and not
        decoded again to validate it."""
        return self._append(self._encode(event))

    def append_line(self, line: str) -> int:
        """Append one pre-encoded ``repro-events/1`` line (validated)."""
        event_from_json(line)  # reject garbage before it hits the log
        return self._append(line)

    @staticmethod
    def _encode(event: Sequence) -> str:
        try:
            return event_to_json(event)
        except (AttributeError, TypeError, IndexError) as exc:
            raise ValueError(f"unencodable event: {exc!r}") from exc

    def _append(self, line: str) -> int:
        with self._lock:
            self._check_writable()
            handle = self._active()
            handle.write(line + "\n")
            handle.flush()
            if self.durability == "fsync":
                os.fsync(handle.fileno())
            position = self._sealed_events + self._active_events
            self._active_events += 1
            if self._active_events >= self.segment_max_events:
                self._seal_active()
            return position

    def _check_writable(self) -> None:
        if self._closed:
            raise StoreError("store is closed")
        if self.readonly:
            raise StoreError("store is read-only")

    def _active(self):
        if self._active_handle is None:
            seg_path = os.path.join(self.path,
                                    _segment_name(self._active_index))
            self._active_handle = open(seg_path, "a", encoding="utf-8")
        return self._active_handle

    def _seal_active(self) -> None:
        """Seal the (full) active segment and roll to a fresh one."""
        handle = self._active()
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        self._active_handle = None
        seg_name = _segment_name(self._active_index)
        self._sealed.append({
            "name": seg_name,
            "events": self._active_events,
            "crc32": crc32_of(os.path.join(self.path, seg_name)),
        })
        self._sealed_events += self._active_events
        self._active_index += 1
        self._active_events = 0
        self._write_manifest()

    def _write_manifest(self) -> None:
        atomic_write_json(
            os.path.join(self.path, _MANIFEST),
            {
                "schema": MANIFEST_SCHEMA,
                "events_schema": EVENTS_SCHEMA,
                "segment_max_events": self.segment_max_events,
                "segments": list(self._sealed),
                "meta": self.meta,
            },
            indent=2, sort_keys=True, sync_dir=True,
        )

    def update_meta(self, **fields) -> None:
        """Merge ``fields`` into the manifest ``meta`` block (atomic)."""
        with self._lock:
            self._check_writable()
            self.meta.update(fields)
            self._write_manifest()

    # -- reading -------------------------------------------------------------

    def iter_events(self, start: int = 0) -> Iterator[Tuple[int, tuple]]:
        """Yield ``(position, event)`` from log position ``start`` on,
        segment by segment — the log never needs to fit in memory.

        Reads a stable prefix: events appended concurrently (by this
        same process) after the call may or may not be seen.
        """
        for position, line in self.iter_lines(start):
            yield position, event_from_json(line)

    def iter_lines(self, start: int = 0) -> Iterator[Tuple[int, str]]:
        """:meth:`iter_events` without the decoding: ``(position,
        line)``, each line as journaled (no trailing newline)."""
        with self._lock:
            plan = [(record["name"], record["events"])
                    for record in self._sealed]
            plan.append((_segment_name(self._active_index),
                         self._active_events))
            if self._active_handle is not None:
                self._active_handle.flush()
        position = 0
        for name, count in plan:
            if count == 0:
                continue
            if position + count <= start:
                position += count
                continue
            seg_path = os.path.join(self.path, name)
            with open(seg_path, "r", encoding="utf-8") as handle:
                for i, line in enumerate(handle):
                    if i >= count:
                        break
                    if position >= start:
                        yield position, line.rstrip("\n")
                    position += 1

    # -- checkpoints ---------------------------------------------------------

    def _ckpt_path(self, events: int) -> str:
        return os.path.join(self.path, _CKPT_DIR, f"ckpt-{events:010d}.json")

    def save_checkpoint(self, events: int, checker_state: dict,
                        extra: Optional[dict] = None) -> str:
        """Atomically publish the checker state valid after the first
        ``events`` log events; prunes all but the newest
        ``keep_checkpoints``.  Returns the checkpoint path.
        """
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "events": int(events),
            "checker": checker_state,
        }
        if extra:
            payload["extra"] = dict(extra)
        with self._lock:
            self._check_writable()
            path = self._ckpt_path(events)
            atomic_write_json(path, payload, sync_dir=True)
            for stale in self._checkpoint_files()[:-self.keep_checkpoints]:
                try:
                    os.unlink(os.path.join(self.path, _CKPT_DIR, stale))
                except OSError:
                    pass
        return path

    def _checkpoint_files(self) -> List[str]:
        ckpt_dir = os.path.join(self.path, _CKPT_DIR)
        try:
            names = os.listdir(ckpt_dir)
        except OSError:
            return []
        return sorted(n for n in names
                      if n.startswith("ckpt-") and n.endswith(".json"))

    def checkpoints(self) -> List[int]:
        """Event counts of the stored checkpoints, ascending."""
        out = []
        for name in self._checkpoint_files():
            try:
                out.append(int(name[len("ckpt-"):-len(".json")]))
            except ValueError:
                continue
        return out

    @collector_paused  # parses at most keep_checkpoints files
    def latest_checkpoint_payload(self) -> Optional[dict]:
        """Newest *loadable* checkpoint payload (``events``, ``checker``,
        optional ``extra``).

        A checkpoint that fails to parse (torn by a crash predating the
        atomic writer, or hand-edited) is skipped in favour of the next
        older one — resume then simply replays more of the log.  A
        checkpoint claiming more events than the log holds is likewise
        skipped (it cannot be the durable log's future).
        """
        total = self.total_events
        for name in reversed(self._checkpoint_files()):
            path = os.path.join(self.path, _CKPT_DIR, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            if payload.get("schema") != CHECKPOINT_SCHEMA:
                continue
            events = payload.get("events")
            if not isinstance(events, int) or events > total:
                continue
            if not isinstance(payload.get("checker"), dict):
                continue
            return payload
        return None
