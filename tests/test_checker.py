"""Catalog tests for the full PolySI checker: every canonical anomaly and
every canonical non-anomaly, including the paper's own figures."""

import pytest

from repro.core.checker import CheckResult, PolySIChecker
from repro.core.history import ABORTED, HistoryBuilder, R, W

from _helpers import (
    KERNELS,
    batch_on_kernel,
    build,
    causality_history,
    long_fork_history,
    lost_update_history,
    serializable_history,
    write_skew_history,
)


def verdict(history, **options) -> CheckResult:
    return PolySIChecker(**options).check(history)


class TestValidHistories:
    def test_serializable_history_passes(self):
        assert verdict(serializable_history()).satisfies_si

    def test_write_skew_allowed_under_si(self):
        """The defining difference from serializability (Section 2.1)."""
        assert verdict(write_skew_history()).satisfies_si

    def test_single_transaction(self):
        assert verdict(build([W("x", 1), R("x", 1)])).satisfies_si

    def test_read_only_history(self):
        assert verdict(build([R("x", None)], [R("x", None)])).satisfies_si

    def test_chain_of_rmws(self):
        h = build(
            [W("x", 1)],
            [R("x", 1), W("x", 2)],
            [R("x", 2), W("x", 3)],
            [R("x", 3)],
        )
        assert verdict(h).satisfies_si

    def test_concurrent_blind_writes_ok(self):
        assert verdict(build([W("x", 1)], [W("x", 2)])).satisfies_si

    def test_init_reads_with_later_writes(self):
        h = build([R("x", None)], [W("x", 1)], [R("x", 1)])
        assert verdict(h).satisfies_si


class TestAnomalies:
    def test_long_fork_detected(self):
        res = verdict(long_fork_history())
        assert not res.satisfies_si
        assert res.cycle is not None

    def test_lost_update_detected(self):
        res = verdict(lost_update_history())
        assert not res.satisfies_si

    def test_causality_violation_detected(self):
        res = verdict(causality_history())
        assert not res.satisfies_si

    def test_read_skew_detected(self):
        h = build(
            [W("x", 0), W("y", 0)],
            [R("x", 0), R("y", 0), W("x", 1), W("y", 1)],
            [R("x", 1), R("y", 0)],
        )
        assert not verdict(h).satisfies_si

    def test_cyclic_information_flow_detected(self):
        h = build([R("y", 2), W("x", 1)], [R("x", 1), W("y", 2)])
        res = verdict(h)
        assert not res.satisfies_si
        assert res.decided_by == "encoding"  # known-edge cycle

    def test_aborted_read_detected(self):
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)], status=ABORTED)
        b.txn(1, [R("x", 1)])
        res = verdict(b.build())
        assert not res.satisfies_si
        assert res.decided_by == "axioms"
        assert res.anomalies[0].axiom == "AbortedReads"

    def test_intermediate_read_detected(self):
        h = build([W("x", 1), W("x", 2)], [R("x", 1)])
        res = verdict(h)
        assert res.decided_by == "axioms"
        assert res.anomalies[0].axiom == "IntermediateReads"

    def test_non_repeatable_read_detected(self):
        h = build([W("x", 1)], [W("x", 2)], [R("x", 1), R("x", 2)])
        res = verdict(h)
        assert not res.satisfies_si
        assert res.decided_by == "axioms"

    def test_monotonic_session_violation(self):
        h = build(
            (0, [W("x", 1)]),
            (1, [R("x", 1), W("x", 2)]),
            (2, [R("x", 2)]),
            (2, [R("x", 1)]),
        )
        assert not verdict(h).satisfies_si

    def test_stale_session_read_own_write(self):
        # A session must observe its own writes.
        h = build((0, [W("x", 1)]), (0, [R("x", None)]))
        assert not verdict(h).satisfies_si


class TestCheckerOptions:
    @pytest.mark.parametrize("options", [
        {"prune": False},
        {"compact": False},
        {"prune": False, "compact": False},
    ])
    def test_variants_agree_on_catalog(self, options):
        cases = [
            (serializable_history(), True),
            (write_skew_history(), True),
            (long_fork_history(), False),
            (lost_update_history(), False),
            (causality_history(), False),
        ]
        checker = PolySIChecker(**options)
        for history, expected in cases:
            assert checker.check(history).satisfies_si == expected

    def test_timings_present(self):
        res = verdict(serializable_history())
        assert {"axioms", "construct", "prune"} <= set(res.timings)
        # The serial checker asks the fixpoint's closure; it no longer
        # decomposes the graph.
        assert "decompose" not in res.timings
        # Pruning resolves every constraint here, so the fast path skips
        # encode+solve entirely and decides statically.
        assert res.decided_by == "static"
        assert "encode" not in res.timings
        assert "solve" not in res.timings
        assert res.total_time >= 0

    def test_timings_include_solve_when_constraints_survive(self):
        # Two blind writers of one key: pruning cannot order them, so the
        # constraint reaches the solver.
        res = verdict(build([W("x", 1)], [W("x", 2)]))
        assert res.satisfies_si
        assert res.decided_by == "solving"
        assert {"axioms", "construct", "prune", "encode", "solve"} <= set(
            res.timings
        )

    def test_fast_path_reports_skip_count(self):
        # Two disjoint-key serializable islands: no constraint survives
        # pruning, so the solver never runs.
        b = HistoryBuilder()
        b.txn(0, [W("x", 1)])
        b.txn(1, [R("x", 1), W("x", 2)])
        b.txn(2, [W("y", 1)])
        b.txn(3, [R("y", 1), W("y", 2)])
        res = verdict(b.build())
        assert res.satisfies_si
        assert res.decided_by == "static"
        assert res.stats["solver_vertices"] == 0
        assert "components" not in res.stats
        assert "solver_skipped_components" not in res.stats
        # A third island of two blind writers: its constraint reaches
        # the solver, and only its two vertices do.
        b.txn(4, [W("z", 1)])
        b.txn(5, [W("z", 2)])
        res = verdict(b.build())
        assert res.satisfies_si
        assert res.decided_by == "solving"
        assert res.polygraph.num_vertices == 6
        assert res.stats["solver_vertices"] == 2

    def test_describe_valid(self):
        assert "satisfies" in verdict(serializable_history()).describe()

    def test_describe_violation_mentions_cycle(self):
        text = verdict(long_fork_history()).describe()
        assert "RW" in text and "violates" in text

    def test_long_fork_witness_matches_figure_3e(self):
        """The witness cycle should be the 4-transaction WR/RW alternation
        of Figure 3(e)."""
        res = verdict(long_fork_history())
        labels = [e[2] for e in res.cycle]
        assert sorted(labels) == ["RW", "RW", "WR", "WR"]


class TestClosureAnswersAcyclicity:
    """After a successful fixpoint the pruning closure is the exact
    closure of the final known induced graph, so a clean diagonal *is*
    the acyclicity answer: a constraint-free graph is decided on the
    spot, and the encoder neither re-derives the known graph nor runs
    ``is_acyclic`` — it builds the solver over the cycle core.  A dirty
    diagonal (or ``prune=False``) derives the known graph from the typed
    edges, walks it, and takes every vertex as the core.  Forcing the
    diagonal dirty therefore reproduces Algorithm 1 as written, and both
    must report the same verdict, stage, witness, pruning counters and
    clause set."""

    @staticmethod
    def flow_cycle(b, tag, s0, s1):
        """G1c on two fresh keys: a cycle of known WR edges."""
        b.txn(s0, [R(f"{tag}y", 1), W(f"{tag}x", 1)])
        b.txn(s1, [R(f"{tag}x", 1), W(f"{tag}y", 1)])

    @staticmethod
    def surviving_constraint(b, tag, s0, s1):
        """Two blind writers of one key: nothing orders them, so the
        constraint survives pruning and reaches the solver."""
        b.txn(s0, [W(f"{tag}z", 1)])
        b.txn(s1, [W(f"{tag}z", 2)])

    def cyclic_only_in_a_pure_component(self):
        b = HistoryBuilder()
        self.flow_cycle(b, "p", 0, 1)
        self.surviving_constraint(b, "c", 2, 3)
        return b.build()

    def cyclic_only_in_the_constrained_component(self):
        b = HistoryBuilder()
        # The cycle's first member also feeds a reader that races a
        # blind writer, tying the constraint into the cyclic component.
        b.txn(0, [R("y", 1), W("x", 1), W("w", 1)])
        b.txn(1, [R("x", 1), W("y", 1)])
        b.txn(2, [R("w", 1), W("z", 1)])
        b.txn(3, [W("z", 2)])
        b.txn(4, [W("q", 1)])               # a pure component besides
        b.txn(5, [R("q", 1)])
        return b.build()

    def clean_and_mixed(self):
        b = HistoryBuilder()
        self.surviving_constraint(b, "c", 0, 1)
        b.txn(2, [W("q", 1)])
        b.txn(3, [R("q", 1)])
        return b.build()

    def clean_without_constraints(self):
        b = HistoryBuilder()
        b.txn(0, [W("q", 1)])
        b.txn(1, [R("q", 1), W("q", 2)])
        b.txn(2, [R("q", 2)])
        return b.build()

    @staticmethod
    def fingerprint(result):
        # What the two paths may differ in is how much of the known
        # graph the solver was handed (``solver_vertices``, the static
        # substrate's size) and whether a constraint-free graph needed
        # the encoder's walk to be called acyclic; nothing else.
        encoding = result.encoding.stats() if result.encoding else {}
        return {
            "satisfies_si": result.satisfies_si,
            "decided_by": result.decided_by,
            "cycle": result.cycle,
            "stats": {k: v for k, v in result.stats.items()
                      if k != "solver_vertices"},
            "pruning": result.prune_result.as_dict(),
            "encoding": {k: encoding.get(k, 0) for k in (
                "vars", "clauses", "induced_edges", "aux_vars")},
            "solver": {k: v for k, v in result.solver_stats.items()
                       if not k.endswith("seconds")},
            "stages": sorted(set(result.timings) - {"encode"}),
        }

    CASES = {
        "cyclic_only_in_a_pure_component": (False, "encoding", False),
        "cyclic_only_in_the_constrained_component":
            (False, "encoding", False),
        "clean_and_mixed": (True, "solving", True),
        "clean_without_constraints": (True, "static", True),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_outcome_as_the_graph_walking_path(
            self, case, kernel, monkeypatch):
        batch_on_kernel(monkeypatch, kernel)
        ok, stage, clean = self.CASES[case]
        history = getattr(self, case)()
        checker = PolySIChecker()
        shortcut = checker.check(history)
        assert shortcut.stats["closure_backend"] == kernel
        assert shortcut.satisfies_si is ok
        assert shortcut.decided_by == stage
        assert shortcut.prune_result.ok
        assert shortcut.prune_result.known_acyclic is clean
        assert (shortcut.cycle is None) == ok

        monkeypatch.setattr(KERNELS[kernel], "has_cycle",
                            lambda self: True)
        walked = checker.check(history)
        assert walked.prune_result.known_acyclic is False
        assert self.fingerprint(walked) == self.fingerprint(shortcut)
        assert "decompose" not in walked.timings
        if walked.decided_by == "solving":
            assert (walked.stats["solver_vertices"]
                    == walked.polygraph.num_vertices
                    > shortcut.stats["solver_vertices"] > 0)

    def test_clean_diagonal_skips_every_later_acyclicity_check(
            self, monkeypatch):
        import repro
        import repro.core.encoding as encoding_module
        from repro.core.known import KnownGraph
        from repro.core.polygraph import GeneralizedPolygraph

        calls = []

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapped(*args):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(owner, name, wrapped)

        # The serial checker has one place left that walks the known
        # graph or derives it from the typed edges: the encoder.  The
        # fixpoint adopts the graph construction installed, and nothing
        # asks whether an edge is known, so no set of edges is built.
        counting(encoding_module, "is_acyclic")
        counting(KnownGraph, "from_edges")
        counting(GeneralizedPolygraph, "_edge_set")
        for case in ("clean_and_mixed", "clean_without_constraints"):
            assert verdict(getattr(self, case)()).satisfies_si
            assert repro.check(getattr(self, case)()).ok
        assert calls == []
        # Without pruning there is no closure to ask: the walk runs.
        assert verdict(self.clean_and_mixed(), prune=False).satisfies_si
        assert calls == ["from_edges", "is_acyclic"]
        calls.clear()
        # Nor can a dirty diagonal name a witness: the walk runs, over
        # the edges with the fixpoint's winners written in (deduplicated
        # through the set, built there).
        assert not verdict(
            self.cyclic_only_in_a_pure_component()).satisfies_si
        assert calls == ["_edge_set", "from_edges", "is_acyclic"]

    def test_violating_prune_establishes_nothing(self):
        result = verdict(causality_history())
        assert result.decided_by == "pruning"
        assert result.prune_result.known_acyclic is False
        assert "known_acyclic" not in result.prune_result.as_dict()

    def test_encode_polygraph_stands_alone(self):
        from repro.core.encoding import encode_polygraph
        from repro.core.polygraph import build_polygraph

        from repro.core.pruning import prune_constraints

        graph, _ = build_polygraph(self.clean_and_mixed())
        pruned = prune_constraints(graph)
        alone = encode_polygraph(graph)
        told = encode_polygraph(graph, pruned)
        assert not alone.static_cycle and not told.static_cycle
        assert alone.num_solver_vertices == graph.num_vertices == 4
        assert told.num_solver_vertices == 2
        sizes = ("vars", "clauses", "induced_edges", "aux_vars")
        assert ([alone.stats()[k] for k in sizes]
                == [told.stats()[k] for k in sizes])
        # A result whose state was dropped is no prune result at all.
        pruned.state = None
        assert encode_polygraph(graph, pruned).num_solver_vertices == 4
        cyclic, _ = build_polygraph(self.cyclic_only_in_a_pure_component())
        assert encode_polygraph(cyclic).static_cycle
        assert encode_polygraph(cyclic, prune_constraints(cyclic)).static_cycle
