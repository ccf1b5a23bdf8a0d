"""Tests for the shared incremental closure kernel (repro.utils.closure).

The online checker's behavioural coverage lives in test_online.py; these
pin the kernel properties the *batch* pruning path newly relies on:
``from_rows`` seeding, lazy backward rows, and row-exactness under mixed
insertion orders and cycles.  Every test runs against both
:class:`~repro.utils.closure.ClosureBackend` kernels via the ``backend``
fixture — the cross-kernel differential suite proper lives in
test_closure_backends.py.
"""

import random

import pytest

from repro.utils.closure import CYCLE, KNOWN, NEW
from repro.utils.reachability import transitive_closure_bits

from _helpers import KERNELS


@pytest.fixture(params=list(KERNELS))
def backend(request):
    """Each closure kernel class, by name."""
    return KERNELS[request.param]


def closure_rows(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
    return transitive_closure_bits(n, adj).rows


class TestFromRows:
    def test_wraps_batch_rows(self, backend):
        rows = closure_rows(4, [(0, 1), (1, 2)])
        inc = backend.from_rows(rows)
        assert inc.has(0, 2) and inc.has(1, 2)
        assert not inc.has(2, 0)

    def test_co_rows_lazy_then_exact(self, backend):
        rows = closure_rows(4, [(0, 1), (1, 2)])
        inc = backend.from_rows(rows)
        assert not inc.co_materialized
        co = inc.co_rows
        assert inc.co_materialized
        # co_rows[v] holds everything that reaches v.
        assert co[2] == (1 << 0) | (1 << 1)
        assert co[0] == 0

    def test_insert_without_materialized_co_rows(self, backend):
        rows = closure_rows(4, [(0, 1), (1, 2)])
        inc = backend.from_rows(rows)
        assert inc.insert(2, 3) == NEW
        assert not inc.co_materialized  # the scan path never materializes
        # Ancestors of 2 picked up the new target.
        assert inc.has(0, 3) and inc.has(1, 3) and inc.has(2, 3)

    def test_insert_statuses(self, backend):
        rows = closure_rows(3, [(0, 1), (1, 2)])
        inc = backend.from_rows(rows)
        assert inc.insert(0, 2) == KNOWN
        assert inc.insert(2, 0) == CYCLE
        assert inc.has(0, 0)  # cycle members self-reach


class TestRowExactness:
    def test_random_insertion_orders_match_batch(self, backend):
        for seed in range(15):
            rng = random.Random(seed)
            n = 12
            edges = {(rng.randrange(n), rng.randrange(n))
                     for _ in range(20)}
            edges = sorted(edges)
            want = closure_rows(n, edges)

            # Eager co_rows (online construction).
            eager = backend(n)
            for u, v in edges:
                eager.insert(u, v)
            assert eager.int_rows() == want, (seed, "eager")

            # Lazy co_rows (batch seeding with a prefix, then inserts).
            half = len(edges) // 2
            lazy = backend.from_rows(closure_rows(n, edges[:half]))
            for u, v in edges[half:]:
                lazy.insert(u, v)
            assert lazy.int_rows() == want, (seed, "lazy")

    def test_add_vertex_with_lazy_co_rows(self, backend):
        inc = backend.from_rows(closure_rows(2, [(0, 1)]))
        new = inc.add_vertex()
        assert new == 2
        inc.insert(1, new)
        assert inc.has(0, new)

    def test_compact_with_lazy_co_rows(self, backend):
        inc = backend.from_rows(closure_rows(3, [(0, 1), (1, 2)]))
        old_to_new = inc.compact([0, 2])
        assert old_to_new == [0, -1, 1]
        assert inc.has(0, 1)  # 0 ~> 2 survived through the evicted 1


class TestCompactEdgeCases:
    """Regressions for latent compact() edge cases surfaced by the
    backend differential suite."""

    def test_compact_to_empty_live(self, backend):
        inc = backend(3)
        inc.insert(0, 1)
        assert inc.compact([]) == [-1, -1, -1]
        assert inc.num_vertices == 0
        assert inc.int_rows() == []
        # The kernel keeps working from empty.
        assert inc.add_vertex() == 0
        assert inc.add_vertex() == 1
        assert inc.insert(0, 1) == NEW
        assert inc.has(0, 1)

    def test_compact_accepts_one_shot_iterator(self, backend):
        # ``live`` used to be consumed twice (building the remap, then
        # copying rows) — a generator silently produced empty rows.
        inc = backend(3)
        inc.insert(0, 1)
        inc.insert(1, 2)
        old_to_new = inc.compact(v for v in (0, 2))
        assert old_to_new == [0, -1, 1]
        assert inc.has(0, 1)

    def test_compact_after_lazy_insert_keeps_co_exact(self, backend):
        # Insert on the lazy path (backward rows unmaterialized), then
        # compact; the surviving co_rows must reflect the insert.
        inc = backend.from_rows(closure_rows(4, [(0, 1), (1, 2)]))
        assert inc.insert(2, 3) == NEW
        assert not inc.co_materialized
        inc.compact([0, 2, 3])
        # 0 ~> 2 ~> 3 survives as 0 ~> 1 ~> 2 in the new ids.
        assert inc.has(0, 1) and inc.has(1, 2) and inc.has(0, 2)
        co = inc.co_rows
        assert co[2] == (1 << 0) | (1 << 1)
        assert co[0] == 0

    def test_compact_permutes_ids(self, backend):
        # Order of appearance in ``live`` defines the new ids.
        inc = backend(4)
        inc.insert(0, 1)
        inc.insert(2, 3)
        old_to_new = inc.compact([3, 2])
        assert old_to_new == [-1, -1, 1, 0]
        assert inc.has(1, 0)  # old 2 ~> 3 is new 1 ~> 0
        assert not inc.has(0, 1)
