"""Vectorized closure backend: packed ``uint64`` bitset matrices.

:class:`NumpyBitsetClosure` implements the
:class:`~repro.utils.closure.ClosureBackend` contract with the forward
and backward reachability rows stored as ``(capacity, words)`` numpy
``uint64`` matrices — bit ``v & 63`` of word ``v >> 6`` stands for
vertex ``v``, LSB-first, so a row viewed as little-endian bytes *is*
the int bitset the python backend keeps (that identity is what makes
:meth:`~NumpyBitsetClosure.int_rows` — the checkpoint's rows —
backend-independent).

The algorithm is the python backend's, verbatim — same lazy backward
rows after ``from_rows``, same tri-state ``insert`` outcomes, same
compaction semantics (the differential suite replays identical scripts
against both and asserts identical observables).  What changes is the
*shape* of the inner loops: the per-ancestor Python loop

``for x in ancestors: rows[x] |= targets``

becomes one fancy-indexed bulk OR over the packed matrix,

``rows[ancestor_idx] |= targets``,

and ancestor/descendant discovery is an ``unpackbits`` +
``flatnonzero`` over a row (or, on the lazy path, a shifted column
read) instead of a Python bit scan.  One insert into a closure with
``a`` ancestors costs O(a * n / 64) bytes of C-loop work with no
Python-level per-ancestor iteration — on deep cascades (the
``prune`` gate's kernel-cascade corpus) this is the >=3x win the
benchmark gates; an arrival's ``insert_into`` is one column write.
Lookups cost more than on python ints, since every
``row()`` converts a matrix row back to an int, which is why lookup-bound
batch pruning keeps the python kernel (DESIGN.md S10).

Capacity management doubles the matrix (rows *and* words grow
together, since vertex ids are also bit positions) so ``add_vertex``
is amortized O(n/8) bytes of copying, matching the online checker's
growth pattern.

Byte order: packing relies on the platform being little-endian (every
supported target is); ``int.to_bytes/from_bytes`` with ``"little"``
then agrees with the raw ``uint64`` memory.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .closure import KNOWN, ClosureBackend, iter_bits

__all__ = ["NumpyBitsetClosure"]

_ONE = np.uint64(1)


def _pack_int(value: int, words: int) -> np.ndarray:
    """An int bitset as a ``words``-long little-endian uint64 vector."""
    return np.frombuffer(
        value.to_bytes(words * 8, "little"), dtype=np.uint64
    ).copy()


def _unpack_int(row: np.ndarray) -> int:
    """Inverse of :func:`_pack_int` (``tobytes`` copies out in C order
    whatever the row's layout)."""
    return int.from_bytes(row.tobytes(), "little")


class NumpyBitsetClosure(ClosureBackend):
    """Strict reachability under incremental edge insertion, rows as
    packed ``uint64`` numpy matrices with bulk-OR propagation."""

    __slots__ = ("_n", "_rows", "_edges", "_co",
                 "_inew", "_iknown", "_icycle", "_ncompact", "_nquery")

    name = "numpy"

    def __init__(self, n: int = 0):
        cap = max(1, n)
        words = self._words_for(cap)
        self._n = n
        self._rows = np.zeros((cap, words), dtype=np.uint64)
        self._edges = np.zeros((cap, words), dtype=np.uint64)
        # Eager backward rows, like the python constructor path.
        self._co: Optional[np.ndarray] = np.zeros((cap, words),
                                                  dtype=np.uint64)
        self._inew = self._iknown = self._icycle = 0
        self._ncompact = self._nquery = 0

    @staticmethod
    def _words_for(n: int) -> int:
        return max(1, (n + 63) >> 6)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "NumpyBitsetClosure":
        """See :meth:`~repro.utils.closure.ClosureBackend.from_rows`."""
        out = cls(0)
        n = len(rows)
        cap = max(1, n)
        words = cls._words_for(cap)
        mat = np.zeros((cap, words), dtype=np.uint64)
        for i, value in enumerate(rows):
            if value:
                mat[i] = _pack_int(int(value), words)
        out._n = n
        out._rows = mat
        out._edges = mat.copy()
        out._co = None
        return out

    # -- introspection -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def co_materialized(self) -> bool:
        return self._co is not None

    def int_rows(self) -> List[int]:
        return [_unpack_int(self._rows[v]) for v in range(self._n)]

    @property
    def co_rows(self) -> List[int]:
        """See :attr:`~repro.utils.closure.ClosureBackend.co_rows`."""
        co = self._ensure_co()
        return [_unpack_int(co[v]) for v in range(self._n)]

    def _ensure_co(self) -> np.ndarray:
        if self._co is None:
            cap, words = self._rows.shape
            co = np.zeros((cap, words), dtype=np.uint64)
            n = self._n
            if n:
                # Transpose the reachability relation in one shot:
                # unpack the live block to an (n, n) bit matrix, flip
                # it, repack.
                bits = np.unpackbits(
                    self._rows[:n].view(np.uint8), axis=1,
                    bitorder="little", count=n,
                )
                co[:n] = _repack_bits(bits.T, words)
            self._co = co
        return self._co

    # -- growth --------------------------------------------------------------

    def add_vertex(self) -> int:
        """See :meth:`~repro.utils.closure.ClosureBackend.add_vertex`."""
        v = self._n
        if v >= self._rows.shape[0]:
            self._grow(v + 1)
        self._n = v + 1
        return v

    def _grow(self, need: int) -> None:
        cap = self._rows.shape[0]
        while cap < need:
            cap *= 2
        words = self._words_for(cap)

        def regrown(mat: np.ndarray) -> np.ndarray:
            out = np.zeros((cap, words), dtype=np.uint64)
            out[: mat.shape[0], : mat.shape[1]] = mat
            return out

        self._rows = regrown(self._rows)
        self._edges = regrown(self._edges)
        if self._co is not None:
            self._co = regrown(self._co)

    # -- queries -------------------------------------------------------------

    def has(self, u: int, v: int) -> bool:
        """See :meth:`~repro.utils.closure.ClosureBackend.has`."""
        self._nquery += 1
        if u >= self._n:
            raise IndexError("vertex out of range")
        if v >= self._n:
            # Bits above num_vertices are never set; mirror the python
            # backend, whose int rows simply have no such bit.
            return False
        return bool(int(self._rows[u, v >> 6]) >> (v & 63) & 1)

    def reaches_any(self, u: int, targets: int) -> bool:
        """See :meth:`~repro.utils.closure.ClosureBackend.reaches_any`."""
        self._nquery += 1
        if u >= self._n:
            raise IndexError("vertex out of range")
        return bool(_unpack_int(self._rows[u]) & targets)

    def row(self, u: int) -> int:
        """See :meth:`~repro.utils.closure.ClosureBackend.row`."""
        self._nquery += 1
        if u >= self._n:
            raise IndexError("vertex out of range")
        # _unpack_int, inlined: pruning calls this once per branch.
        return int.from_bytes(self._rows[u].tobytes(), "little")

    def has_cycle(self) -> bool:
        """See :meth:`~repro.utils.closure.ClosureBackend.has_cycle`."""
        idx = np.arange(self._n)
        diagonal = self._rows[idx, idx >> 6] >> (idx & 63).astype(np.uint64)
        return bool(np.any(diagonal & _ONE))

    def has_edge(self, u: int, v: int) -> bool:
        """See :meth:`~repro.utils.closure.ClosureBackend.has_edge`."""
        if u >= self._n:
            raise IndexError("vertex out of range")
        if v >= self._n:
            return False
        return bool(int(self._edges[u, v >> 6]) >> (v & 63) & 1)

    def successors(self, u: int) -> Iterable[int]:
        """See :meth:`~repro.utils.closure.ClosureBackend.successors`."""
        if u >= self._n:
            raise IndexError("vertex out of range")
        return iter(self._vertex_ids(self._rows[u]))

    def successors_direct(self, u: int) -> Iterable[int]:
        """See
        :meth:`~repro.utils.closure.ClosureBackend.successors_direct`."""
        if u >= self._n:
            raise IndexError("vertex out of range")
        return iter(self._vertex_ids(self._edges[u]))

    def _vertex_ids(self, packed: np.ndarray) -> List[int]:
        if not self._n:
            return []
        bits = np.unpackbits(
            np.ascontiguousarray(packed).view(np.uint8),
            bitorder="little", count=self._n,
        )
        return [int(v) for v in np.flatnonzero(bits)]

    # -- mutation ------------------------------------------------------------

    def insert(self, u: int, v: int) -> str:
        """See :meth:`~repro.utils.closure.ClosureBackend.insert`."""
        n = self._n
        if u >= n or v >= n:
            raise IndexError("vertex out of range")
        rows = self._rows
        wu, su = u >> 6, np.uint64(u & 63)
        wv, sv = v >> 6, np.uint64(v & 63)
        self._edges[u, wv] |= _ONE << sv
        # The python backend's order: the cycle bit, then bit ``v`` of
        # ``rows[u]`` — an implied edge costs two word reads.
        cyclic = u == v or bool(int(rows[v, wu]) >> (u & 63) & 1)
        if not cyclic and int(rows[u, wv]) >> (v & 63) & 1:
            self._iknown += 1
            return KNOWN
        targets = rows[v].copy()
        targets[wv] |= _ONE << sv
        if self._co is None:
            # Backward rows unmaterialized: the ancestors of ``u`` are
            # one shifted column read away (the vectorized counterpart
            # of the python backend's O(n) row scan).
            col = (rows[:n, wu] >> su) & _ONE
            col[u] = _ONE
            self._bulk_or(rows, np.flatnonzero(col), targets)
            return self._insert_outcome(cyclic)
        co = self._co
        sources = co[u].copy()
        sources[wu] |= _ONE << su
        src_idx = self._index_of(sources)
        tgt_idx = self._index_of(targets)
        self._bulk_or(rows, src_idx, targets)
        self._bulk_or(co, tgt_idx, sources)
        return self._insert_outcome(cyclic)

    def _peek(self, u: int) -> int:
        if u >= self._n:
            raise IndexError("vertex out of range")
        return _unpack_int(self._rows[u])

    def _install_into(self, v: int, sources: Sequence[int], new: int) -> None:
        n, rows, co, words = self._n, self._rows, self._co, self._rows.shape[1]
        wv, sv = v >> 6, np.uint64(v & 63)
        self._edges[list(sources), wv] |= _ONE << sv
        if co is None:  # the new sources and every row meeting one
            anc = (rows[:n] & _pack_int(new, words)).any(axis=1)
            anc[list(iter_bits(new))] = True
        else:
            for u in iter_bits(new):
                new |= _unpack_int(co[u])
            co[v] |= _pack_int(new, words)
            anc = np.unpackbits(co[v].view("u1"), bitorder="little", count=n)
        rows[:n, wv] |= anc.astype(np.uint64) << sv

    def _index_of(self, packed: np.ndarray) -> np.ndarray:
        """Vertex indices of the set bits of a packed row."""
        bits = np.unpackbits(
            np.ascontiguousarray(packed).view(np.uint8),
            bitorder="little", count=self._n,
        )
        return np.flatnonzero(bits)

    @staticmethod
    def _bulk_or(mat: np.ndarray, idx: np.ndarray, row: np.ndarray) -> None:
        """``mat[i] |= row`` for every ``i`` in ``idx`` — one C-level
        fancy-indexed OR (indices are unique, so the get-modify-set
        semantics of ``|=`` on a fancy index are exact)."""
        if len(idx):
            mat[idx] |= row

    def compact(self, live: Sequence[int]) -> List[int]:
        """See :meth:`~repro.utils.closure.ClosureBackend.compact`."""
        self._ncompact += 1
        live = list(live)
        old_n = self._n
        old_to_new = [-1] * old_n
        for new_id, old_id in enumerate(live):
            old_to_new[old_id] = new_id
        n_new = len(live)
        cap = max(1, n_new)
        words = self._words_for(cap)
        self._rows = self._remap(self._rows, live, old_n, cap, words)
        if self._co is not None:
            self._co = self._remap(self._co, live, old_n, cap, words)
        self._edges = self._rows.copy()
        self._n = n_new
        return old_to_new

    @staticmethod
    def _remap(mat: np.ndarray, live: List[int], old_n: int,
               cap: int, words: int) -> np.ndarray:
        out = np.zeros((cap, words), dtype=np.uint64)
        if not live or not old_n:
            return out
        idx = np.asarray(live, dtype=np.intp)
        bits = np.unpackbits(
            np.ascontiguousarray(mat[idx]).view(np.uint8),
            axis=1, bitorder="little", count=old_n,
        )
        out[: len(live)] = _repack_bits(bits[:, idx], words)
        return out


def _repack_bits(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack an (m, k) 0/1 matrix into (m, words) uint64 rows."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], words * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view(np.uint64)
