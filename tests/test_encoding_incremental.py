"""One encoder, two call patterns (repro.core.encoding).

``encode_polygraph`` is the incremental encoder called once; the online
checker calls the same encoder repeatedly as constraints and known
edges arrive.  These tests hold the two call patterns to each other:

- the same polygraph encoded in one shot and fed to the encoder in k
  random slices — constraints *and* known edges arriving piecemeal, the
  way a stream delivers them — reaches the same verdict, and on UNSAT a
  valid witness cycle, over the anomaly corpus and seeded random
  histories, pruned and unpruned;
- the one-shot path is the *reference* clause set: its variable and
  clause counts on pinned inputs are the ones the pre-merge batch
  encoder produced (recorded at commit f8d5e43).

Every solve of the sweep is also held to the search's decision-variable
contract (``_helpers.solve_under_contract``): a SAT answer completes to a
model with the undecided variables false, and the all-decision search
gives the same answer on the same instance.
"""

import random

import pytest

from repro.core.encoding import SIEncoding, encode_polygraph, graph_constraints
from repro.core.known import KnownGraph
from repro.core.polygraph import build_polygraph
from repro.core.pruning import prune_constraints
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history
from repro.workloads.random_histories import random_history

from _helpers import (
    assert_valid_witness,
    long_fork_history,
    lost_update_history,
    solve_under_contract,
    write_skew_history,
)


def _cuts(rng, total, k):
    """k ascending cut points ending at ``total`` (repeats allowed, so
    some slices are empty)."""
    return sorted(rng.randint(0, total) for _ in range(k - 1)) + [total]


def encode_in_slices(graph, rng, k):
    """Feed ``graph`` to one encoder in ``k`` steps.  Each step first
    installs the next slice of known edges — growing the solver's
    static substrate pair by pair, as the online checker does — then
    re-encodes with the constraints seen so far.  Returns
    ``(encoding, conflict)``; ``conflict`` is True when a static edge
    closed a cycle against facts the solver had already derived."""
    known = KnownGraph(graph.num_vertices)
    ki = known.induced_adjacency()          # grown in step with `known`
    enc = SIEncoding(graph.num_vertices,
                     [[] for _ in range(graph.num_vertices)])
    edges = list(graph.known_edges)
    rng.shuffle(edges)
    constraints = graph_constraints(graph)
    edge_cuts = _cuts(rng, len(edges), k)
    cons_cuts = _cuts(rng, len(constraints), k)
    done = 0
    for edge_cut, cons_cut in zip(edge_cuts, cons_cuts):
        for edge in edges[done:edge_cut]:
            if not known.add(edge):
                continue
            for u, v in known.induced_by(edge):
                if v in ki[u]:
                    continue
                ki[u].add(v)
                if enc.solver.add_static_edge(u, v) is not None:
                    return enc, True
        done = edge_cut
        enc.encode(constraints[:cons_cut], known, lambda u, v: v in ki[u])
    return enc, False


def assert_parity(history, seed, *, prune, compact=True):
    graph, violations = build_polygraph(history, compact=compact)
    if violations:
        return None
    if prune and not prune_constraints(graph).ok:
        return None
    reference = encode_polygraph(graph)
    if reference.static_cycle:
        return None
    expected = solve_under_contract(reference, encode_polygraph(graph))
    if not expected:
        assert_valid_witness(
            reference.violation_cycle(graph.known_edges,
                                      graph_constraints(graph)), graph)
    rng = random.Random(seed)
    for k in (1, 2, 5):
        twin_rng = random.Random()
        twin_rng.setstate(rng.getstate())
        enc, conflict = encode_in_slices(graph, rng, k)
        twin, _conflict = encode_in_slices(graph, twin_rng, k)
        verdict = False if conflict else solve_under_contract(enc, twin)
        assert verdict == expected, f"k={k}"
        if not conflict and not verdict:
            assert_valid_witness(
                enc.violation_cycle(graph.known_edges,
                                    graph_constraints(graph)), graph)
    return expected


class TestSlicedEncodingMatchesOneShot:
    @pytest.mark.parametrize("template", sorted(ANOMALY_TEMPLATES))
    @pytest.mark.parametrize("prune", [True, False])
    def test_anomaly_corpus(self, template, prune):
        for seed in range(3):
            history = make_anomaly(template, seed=seed, padding_txns=6)
            assert_parity(history, seed, prune=prune)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_histories(self, seed):
        history = random_history(
            random.Random(seed), sessions=4, txns_per_session=4,
            max_ops=4, keys=4, read_initial_prob=0.2, abort_prob=0.0,
        )
        assert_parity(history, seed, prune=False)
        assert_parity(history, seed, prune=False, compact=False)
        assert_parity(history, seed, prune=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_contended_workloads_stay_satisfiable(self, seed):
        history = generate_history(
            WorkloadParams(sessions=5, txns_per_session=8, ops_per_txn=5,
                           keys=6, read_proportion=0.5),
            seed=seed, isolation="snapshot",
        ).history
        assert assert_parity(history, seed, prune=True) in (True, None)
        assert assert_parity(history, seed, prune=False) is True

    def test_both_verdicts_are_exercised(self):
        """Guard the guard: the sweep above must reach the solver on
        both a satisfiable and an unsatisfiable instance."""
        assert assert_parity(long_fork_history(), 0, prune=False) is False
        assert assert_parity(lost_update_history(), 0, prune=True) is False
        assert assert_parity(write_skew_history(), 0, prune=False) is True


def _re_encode(enc, graph):
    """Call the encoder again exactly as ``encode_polygraph`` did."""
    known = KnownGraph.from_edges(graph.num_vertices, graph.known_edges)
    ki = known.induced_adjacency()
    enc.encode(graph_constraints(graph), known, lambda u, v: v in ki[u])


class TestSecondCallAddsOnlyTheDelta:
    def test_re_encoding_the_same_constraints_is_a_no_op(self):
        graph, _ = build_polygraph(long_fork_history())
        enc = encode_polygraph(graph)
        before = enc.stats()
        _re_encode(enc, graph)
        assert enc.stats() == before

    def test_resolve_pins_the_choice_variable(self):
        graph, _ = build_polygraph(write_skew_history())
        enc = encode_polygraph(graph)
        constraints = graph_constraints(graph)
        for ident, either, _orelse in constraints:
            enc.resolve(ident, True)
        assert enc.solver.solve()
        edges = enc.resolved_edges(enc.solver, graph.known_edges,
                                   constraints)
        for _ident, either, _orelse in constraints:
            assert set(either) <= set(edges)

    def test_state_round_trip_keeps_the_tables(self):
        import json

        graph, _ = build_polygraph(long_fork_history())
        enc = encode_polygraph(graph)
        state = json.loads(json.dumps(enc.export_state()))
        ki = KnownGraph.from_edges(
            graph.num_vertices, graph.known_edges).induced_adjacency()
        back = SIEncoding.import_state(state, graph.num_vertices, ki)
        def sizes(encoding):
            stats = encoding.stats()
            del stats["static_induced_edges"]   # a build-time counter
            return stats

        assert sizes(back) == sizes(enc)
        assert back.choice_var == enc.choice_var
        assert back.dep_var == enc.dep_var and back.rw_var == enc.rw_var
        _re_encode(back, graph)                     # nothing new to add
        assert sizes(back) == sizes(enc)
        assert back.solver.solve() == enc.solver.solve() is False


#: (vars, clauses) of the batch encoder at f8d5e43 — see the module
#: docstring.  Counts are independent of PYTHONHASHSEED.
PINNED_GENERATED = {
    1: {"pruned": (117, 243), "unpruned": (5264, 17669),
        "noncompact": (5686, 18513)},
    2: {"pruned": (104, 199), "unpruned": (4415, 14994),
        "noncompact": (4834, 15832)},
    3: {"pruned": (47, 74), "unpruned": (5212, 17800),
        "noncompact": (5675, 18726)},
}


def _counts(history, *, prune, compact=True):
    graph, _ = build_polygraph(history, compact=compact)
    if prune:
        assert prune_constraints(graph).ok
    stats = encode_polygraph(graph).stats()
    return stats["vars"], stats["clauses"]


class TestOneShotIsTheReferenceClauseSet:
    def test_canonical_histories(self):
        assert _counts(long_fork_history(), prune=False) == (24, 32)
        assert _counts(long_fork_history(), prune=False,
                       compact=False) == (30, 44)
        assert _counts(lost_update_history(), prune=True) == (5, 6)
        assert _counts(write_skew_history(), prune=True) == (0, 0)

    @pytest.mark.parametrize("seed", sorted(PINNED_GENERATED))
    def test_generated_workloads(self, seed):
        history = generate_history(
            WorkloadParams(sessions=6, txns_per_session=12, ops_per_txn=6,
                           keys=8, read_proportion=0.5),
            seed=seed, isolation="snapshot",
        ).history
        pinned = PINNED_GENERATED[seed]
        assert _counts(history, prune=True) == pinned["pruned"]
        assert _counts(history, prune=False) == pinned["unpruned"]
        assert _counts(history, prune=False,
                       compact=False) == pinned["noncompact"]
