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
  of ``add`` / ``add_vertex`` / ``compact``;
- ``closure()`` — the hop-graph kernel that never builds KI — gives the
  rows of ``transitive_closure_bits(n, induced_adjacency())``, the
  definition it is held to, on every shape the checker seeds from.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.known import KnownGraph
from repro.core.polygraph import RW, SO, WR, WW, build_polygraph
from repro.core.pruning import PruneState, prune_constraints
from repro.listappend import build_list_polygraph, generate_list_history
from repro.utils.reachability import transitive_closure_bits
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.random_histories import random_history

from _helpers import KERNELS, batch_on_kernel


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


class TestConstructionFedGraph:
    """Batch construction emits each typed edge once and installs its
    pair as it goes; pruning adopts that graph instead of deriving it
    (``GeneralizedPolygraph.take_known``).  Both rest on the list having
    no repeats and the fed graph being ``from_edges`` over the list."""

    @staticmethod
    def assert_fed_as_derived(graph):
        edges = graph.known_edges
        assert len(set(edges)) == len(edges)
        assert graph._known is not None
        fed = graph.take_known()
        derived = KnownGraph.from_edges(graph.num_vertices, edges)
        for field in KnownGraph.__slots__:
            assert getattr(fed, field) == getattr(derived, field), field
        # Handed over once: asked again, the graph is derived.
        assert graph.take_known() is not fed

    @given(st.integers(min_value=0, max_value=10**9),
           st.sampled_from([0.0, 0.2, 0.5]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_histories(self, seed, abort_prob, declare):
        """Aborts, keys written twice in one transaction, and initial
        values declared as a value some transaction writes (so reads
        match the init rule and aborted writes retract them)."""
        rng = random.Random(seed)
        history = random_history(rng, sessions=rng.randint(1, 4),
                                 txns_per_session=rng.randint(1, 5),
                                 max_ops=5, keys=rng.randint(1, 4),
                                 abort_prob=abort_prob)
        initial = None
        if declare:
            written = [(op.key, op.value) for txn in history.transactions
                       for op in txn.ops if op.kind == "w"]
            if written:
                initial = dict([rng.choice(written)])
        graph, _violations = build_polygraph(history, initial_values=initial)
        self.assert_fed_as_derived(graph)

    @pytest.mark.parametrize("template", sorted(ANOMALY_TEMPLATES))
    def test_corpus_templates(self, template):
        graph, _violations = build_polygraph(make_anomaly(template))
        self.assert_fed_as_derived(graph)


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


def _materialised_rows(known):
    """The closure rows by the definition: compose KI, then close it."""
    return transitive_closure_bits(
        known.num_vertices, known.induced_adjacency()).rows


def _seeds_of_fixpoint(graph, kernel, monkeypatch):
    """Run the pruning fixpoint on ``graph`` with ``kernel`` checked
    against the definition at every seed; returns one ``reseed`` flag
    per seed taken."""
    batch_on_kernel(monkeypatch, kernel)
    seeds = []
    seed = PruneState._seed

    def checked(self, reseed):
        assert self.known.closure().rows == _materialised_rows(self.known)
        seeds.append(reseed)
        closure = seed(self, reseed)
        assert closure.int_rows() == _materialised_rows(self.known)
        return closure

    monkeypatch.setattr(PruneState, "_seed", checked)
    prune_constraints(graph)
    return seeds


#: The e2e benchmark's two batch shapes, a tenth of their size.
SHAPES = {
    "general_rh": dict(sessions=8, txns_per_session=32, ops_per_txn=8,
                       read_proportion=0.95, keys=1000),
    "general_rw": dict(sessions=8, txns_per_session=24, ops_per_txn=8,
                       read_proportion=0.5, keys=300),
}

typed_edge_sets = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.sampled_from([SO, WR, WW, RW, RW]),
                           st.just("k")),
                 max_size=24) if n else st.just([]),
        st.sampled_from(["mixed", "dep-only", "antidep-only"])))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestClosureAtEverySeed:
    """Before the fixpoint and at every reseed of it, on batch pruning's
    python kernel and with the numpy kernel swapped in."""

    @pytest.mark.parametrize("template", sorted(ANOMALY_TEMPLATES))
    def test_corpus_templates(self, template, kernel, monkeypatch):
        graph, _anomalies = build_polygraph(
            make_anomaly(template, seed=5, padding_txns=40))
        assert _seeds_of_fixpoint(graph, kernel, monkeypatch)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_shapes(self, shape, seed, kernel, monkeypatch):
        history = generate_history(
            WorkloadParams(distribution="zipfian", **SHAPES[shape]),
            seed=seed).history
        graph, anomalies = build_polygraph(history)
        assert not anomalies
        seeds = _seeds_of_fixpoint(graph, kernel, monkeypatch)
        assert seeds[0] is False and True in seeds[1:], seeds

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_list_append(self, seed, kernel, monkeypatch):
        history = generate_list_history(
            WorkloadParams(sessions=5, txns_per_session=12, ops_per_txn=5,
                           keys=8, read_proportion=0.5), seed=seed)
        graph, anomalies, _registers = build_list_polygraph(history)
        assert not anomalies
        assert _seeds_of_fixpoint(graph, kernel, monkeypatch)


class TestClosureKernel:
    def test_corpus_templates_after_the_fixpoint(self):
        """What the fixpoint ends with is where a template's KI is
        cyclic: the kernel must condense it as the definition does."""
        cyclic = 0
        for template in sorted(ANOMALY_TEMPLATES):
            graph, _anomalies = build_polygraph(make_anomaly(template))
            prune_constraints(graph)
            known = KnownGraph.from_edges(graph.num_vertices,
                                          graph.known_edges)
            rows = known.closure().rows
            assert rows == _materialised_rows(known)
            cyclic += any(row >> v & 1 for v, row in enumerate(rows))
        assert cyclic

    @given(typed_edge_sets)
    @settings(max_examples=300, deadline=None)
    def test_typed_edge_sets(self, instance):
        """Self-loops, isolated vertices, one relation missing, n of 0
        and 1: the rows are the definition's, whichever way the
        definition is written."""
        n, edges, keep = instance
        if keep != "mixed":
            edges = [e for e in edges if (e[2] == RW) == (keep != "dep-only")]
        known = KnownGraph.from_edges(n, edges)
        rows = known.closure().rows
        assert rows == _materialised_rows(known)
        assert rows == transitive_closure_bits(
            n, _reference_induced(n, edges)).rows

    def test_antidep_without_a_dep_predecessor_induces_nothing(self):
        known = KnownGraph.from_edges(3, [(0, 1, RW, "x"), (1, 2, RW, "x")])
        assert known.closure().rows == [0, 0, 0]

    def test_composed_self_loop_is_a_cycle_of_its_tail_only(self):
        # 0 -WR-> 1 -RW-> 0 induces 0 -> 1 and 0 -> 0; 1 reaches nothing.
        known = KnownGraph.from_edges(2, [(0, 1, WR, "x"), (1, 0, RW, "x")])
        assert known.closure().rows == [0b11, 0]

    def test_empty_and_single_vertex(self):
        assert KnownGraph(0).closure().rows == []
        assert KnownGraph(1).closure().rows == [0]
