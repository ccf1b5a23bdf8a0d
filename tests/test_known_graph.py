"""The single owner of known-edge-derived state (repro.core.known).

``KnownGraph`` is what batch pruning, the encoder, the static cycle
check, interpretation and the online checker all derive
``KI = Dep ∪ (Dep ; AntiDep)`` through, so its contracts are
pinned against a brute-force reading of the definition:

- ``from_edges`` ≡ feeding the same edges to ``add`` in any order — the
  same adjacency, and the same multiset of induced pairs;
- a repeated edge, or another label on a known pair, changes nothing;
- ``compact`` keeps every induced pair between survivors (with the
  vertex it is composed through) and invents none;
- ``pred_mask`` is ``dep_preds`` as int bitsets after any interleaving
  of ``add`` / ``add_vertex`` / ``compact``.
"""

import random
from collections import Counter

import pytest

from repro.core.known import KnownGraph
from repro.core.polygraph import RW, SO, WR, WW, build_polygraph
from repro.workloads.generator import WorkloadParams, generate_history


def _random_edges(rng, n, count):
    """Random typed edges between distinct vertices (a polygraph edge
    never connects a transaction to itself)."""
    edges = []
    for _ in range(count):
        u, v = rng.sample(range(n), 2)
        label = rng.choice([SO, WR, WW, RW, RW])
        key = None if label == SO else f"k{rng.randrange(3)}"
        edges.append((u, v, label, key))
    return edges


def _reference_induced(n, edges):
    """KI straight from the definition, sharing no code with the owner."""
    dep = {(u, v) for u, v, label, _k in edges if label != RW}
    antidep = {(u, v) for u, v, label, _k in edges if label == RW}
    composed = {(u, w) for u, v in dep for x, w in antidep if x == v}
    rows = [set() for _ in range(n)]
    for u, v in dep | composed:
        rows[u].add(v)
    return rows


def _pairs(rows):
    return {(u, v) for u, row in enumerate(rows) for v in row}


def _add(graph, edge):
    """Install ``edge`` the way a streaming caller does: the pairs it
    induces, asked for at once (empty when nothing new was added)."""
    return graph.induced_by(edge) if graph.add(edge) else []


def _polygraph_edges(seed):
    history = generate_history(
        WorkloadParams(sessions=4, txns_per_session=8, ops_per_txn=5,
                       keys=6, read_proportion=0.5),
        seed=seed, isolation="snapshot",
    ).history
    graph, violations = build_polygraph(history)
    assert not violations
    return graph.num_vertices, list(graph.known_edges)


def _edge_sets():
    rng = random.Random(13)
    for n, count in ((2, 3), (4, 10), (9, 40), (16, 120)):
        yield n, _random_edges(rng, n, count)
    for seed in (1, 2):
        yield _polygraph_edges(seed)


@pytest.mark.parametrize("n,edges", list(_edge_sets()))
class TestFromEdgesEqualsIncrementalAdd:
    def test_any_insertion_order_gives_the_same_graph(self, n, edges):
        bulk = KnownGraph.from_edges(n, edges)
        assert bulk.induced_adjacency() == _reference_induced(n, edges)
        rng = random.Random(len(edges))
        multisets = []
        for _ in range(5):
            order = list(edges)
            rng.shuffle(order)
            step = KnownGraph(n)
            reported = Counter()
            for edge in order:
                reported.update(_add(step, edge))
            assert step.dep == bulk.dep
            assert step.antidep == bulk.antidep
            assert step.dep_preds == bulk.dep_preds
            assert step.induced_adjacency() == bulk.induced_adjacency()
            assert set(reported) == _pairs(bulk.induced_adjacency())
            multisets.append(reported)
        # One report per Dep pair and one per (Dep, AntiDep) composition,
        # whatever the order.
        assert all(m == multisets[0] for m in multisets)
        assert sum(multisets[0].values()) == sum(
            1 + len(bulk.antidep[v]) for u in range(n) for v in bulk.dep[u])

    def test_dep_predecessors_mirror_dep_successors(self, n, edges):
        graph = KnownGraph.from_edges(n, edges)
        for u in range(n):
            for v in graph.dep[u]:
                assert u in graph.dep_preds[v]
        assert (sum(map(len, graph.dep))
                == sum(map(len, graph.dep_preds)))


class TestAdd:
    def test_duplicates_are_idempotent(self):
        graph = KnownGraph(3)
        assert _add(graph, (0, 1, WR, "x")) == [(0, 1)]
        # The same typed edge again, then another label on the same
        # Dep pair: nothing new either time.
        assert not graph.add((0, 1, WR, "x"))
        assert not graph.add((0, 1, WW, "x"))
        assert _add(graph, (1, 2, RW, "x")) == [(0, 2)]
        assert not graph.add((1, 2, RW, "y"))
        assert graph.dep == [{1}, set(), set()]
        assert graph.antidep == [set(), {2}, set()]

    def test_whichever_half_arrives_second_reports_the_composition(self):
        dep_first = KnownGraph(3)
        assert _add(dep_first, (0, 1, SO, None)) == [(0, 1)]
        assert _add(dep_first, (1, 2, RW, "x")) == [(0, 2)]
        rw_first = KnownGraph(3)
        assert _add(rw_first, (1, 2, RW, "x")) == []
        assert sorted(_add(rw_first, (0, 1, SO, None))) == [(0, 1), (0, 2)]

    def test_an_antidependency_alone_induces_nothing(self):
        graph = KnownGraph.from_edges(2, [(0, 1, RW, "x")])
        assert graph.induced_adjacency() == [set(), set()]

    def test_add_vertex_appends_an_isolated_vertex(self):
        graph = KnownGraph.from_edges(2, [(0, 1, WR, "x")])
        assert graph.add_vertex() == 2
        assert graph.num_vertices == 3
        assert _add(graph, (1, 2, RW, "x")) == [(0, 2)]
        assert graph.induced_adjacency() == [{1, 2}, set(), set()]


class TestCompact:
    @pytest.mark.parametrize("seed", range(6))
    def test_induced_pairs_between_survivors_survive(self, seed):
        rng = random.Random(seed)
        n = 12
        edges = _random_edges(rng, n, 60)
        graph = KnownGraph.from_edges(n, edges)
        live = sorted(rng.sample(range(n), 7))
        old_to_new = [-1] * n
        for new, old in enumerate(live):
            old_to_new[old] = new
        survivors = [e for e in dict.fromkeys(edges)
                     if old_to_new[e[0]] >= 0 and old_to_new[e[1]] >= 0]
        expected = _pairs(_reference_induced(n, survivors))
        graph.compact(old_to_new)
        assert graph.num_vertices == len(live)
        # Every pair derivable among the survivors, renamed; none other.
        assert _pairs(graph.induced_adjacency()) == {
            (old_to_new[u], old_to_new[v]) for u, v in expected}
        kept = [(old_to_new[u], old_to_new[v], label, key)
                for u, v, label, key in survivors]
        rebuilt = KnownGraph.from_edges(len(live), kept)
        assert graph.dep == rebuilt.dep
        assert graph.antidep == rebuilt.antidep
        assert graph.dep_preds == rebuilt.dep_preds

    def test_compacted_graph_keeps_growing(self):
        graph = KnownGraph.from_edges(
            4, [(0, 1, WR, "x"), (1, 2, RW, "x"), (2, 3, SO, None)])
        graph.compact([0, -1, 1, 2])         # evict vertex 1
        assert graph.induced_adjacency() == [set(), {2}, set()]
        assert not graph.add((1, 2, SO, None))
        assert _add(graph, (0, 1, WW, "y")) == [(0, 1)]
        assert _add(graph, (1, 2, RW, "y")) == [(0, 2)]


class TestPredMask:
    """``pred_mask[v]`` is ``dep_preds[v]`` as an int bitset, kept in
    step wherever the sets are: bulk build, ``add``, ``add_vertex``,
    ``compact``."""

    @staticmethod
    def assert_in_step(graph):
        assert graph.pred_mask == [
            sum(1 << p for p in preds) for preds in graph.dep_preds]

    @pytest.mark.parametrize("n,edges", list(_edge_sets()))
    def test_bulk_build(self, n, edges):
        self.assert_in_step(KnownGraph.from_edges(n, edges))

    @pytest.mark.parametrize("seed", range(8))
    def test_any_interleaving_of_add_add_vertex_compact(self, seed):
        rng = random.Random(seed)
        graph = KnownGraph(2)
        for _ in range(120):
            n = graph.num_vertices
            roll = rng.random()
            if roll < 0.15 or n < 2:
                assert graph.add_vertex() == n
            elif roll < 0.9:
                graph.add(_random_edges(rng, n, 1)[0])
            else:
                live = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
                old_to_new = [-1] * n
                for new, old in enumerate(live):
                    old_to_new[old] = new
                graph.compact(old_to_new)
            self.assert_in_step(graph)
            assert len(graph.pred_mask) == graph.num_vertices
