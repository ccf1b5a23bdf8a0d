"""Durable history + checker-state persistence (the segment store).

Three layers, bottom up:

- :mod:`repro.store.atomic` — crash-safe file publication (tmp +
  fsync + ``os.replace``) and the CRC the manifest records.
- :mod:`repro.store.segments` — :class:`SegmentStore`: an append-only
  on-disk event log in ``repro-events/1`` JSONL segments with a
  versioned manifest, per-segment CRCs, advisory locking, and
  checkpoint snapshots (``repro-checkpoint/1``) at segment boundaries.
- :mod:`repro.store.resume` — :class:`PersistentCheck`, the one
  driver of the journal/checkpoint/resume protocol: the CLI
  (``watch``/``check``), the facade (``CheckOptions`` persistence
  options) and every service-daemon tenant check through it, and
  nothing else reads or writes a checkpoint.

``repro.histories.codec`` imports :mod:`repro.store.atomic` while
:mod:`repro.store.segments` imports the codec, so this package resolves
its submodules lazily (PEP 562) to keep that diamond acyclic.
"""

from __future__ import annotations

__all__ = [
    "atomic_write_text",
    "atomic_write_json",
    "crc32_of",
    "MANIFEST_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "SegmentStore",
    "StoreError",
    "StoreCorruption",
    "StoreLocked",
    "is_store_dir",
    "store_meta",
    "PersistentCheck",
    "run_persistent_check",
]

_ATOMIC = {"atomic_write_text", "atomic_write_json", "crc32_of"}
_SEGMENTS = {"MANIFEST_SCHEMA", "CHECKPOINT_SCHEMA", "SegmentStore",
             "StoreError", "StoreCorruption", "StoreLocked",
             "is_store_dir", "store_meta"}
_RESUME = {"PersistentCheck", "run_persistent_check"}


def __getattr__(name: str):
    if name in _ATOMIC:
        from . import atomic as module
    elif name in _SEGMENTS:
        from . import segments as module
    elif name in _RESUME:
        from . import resume as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(__all__)
