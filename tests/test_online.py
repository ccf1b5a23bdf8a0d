"""Tests for the online incremental checker (repro.online).

The core property is *differential*: replaying any history through
:class:`OnlineChecker` must reach the same verdict as the batch
``PolySIChecker`` — for accepting and violating histories,
with and without micro-batched solving, and (given a declared session
universe) with windowed eviction.
"""

import pytest

from repro.core.checker import PolySIChecker
from repro.core.history import ABORTED, DuplicateValueError, HistoryBuilder, R, W
from repro.obs import MetricsRegistry, use_metrics
from repro.online import OnlineChecker, WindowPolicy
from repro.utils.closure import CYCLE, KNOWN, NEW, PyBitsetClosure
from repro.solver.monosat import AcyclicGraphSolver
from repro.storage.client import run_workload, stream_workload
from repro.storage.database import MVCCDatabase
from repro.workloads.corpus import known_anomaly_corpus
from repro.workloads.generator import WorkloadParams, generate_history, generate_workload

from _helpers import (
    build,
    causality_history,
    long_fork_history,
    lost_update_history,
    serializable_history,
    write_skew_history,
)

def assert_same_decision(history, online):
    """``online`` decided ``history`` the way the batch checker does:
    same verdict, the same layer deciding it (axioms, or a cycle — the
    two pipelines may find the same cycle at different stages), and on a
    cycle a closed typed walk with no two adjacent anti-dependencies."""
    batch = PolySIChecker().check(history)
    assert online.satisfies_si == batch.satisfies_si
    if batch.satisfies_si:
        return
    assert (online.decided_by == "axioms") == (batch.decided_by == "axioms")
    if online.decided_by == "axioms":
        return
    assert online.decided_by in ("pruning", "solving")
    assert bool(online.cycle) == bool(batch.cycle)
    cycle = online.cycle or []
    for edge, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert edge[1] == nxt[0]
        assert not (edge[2] == "RW" and nxt[2] == "RW")


CANONICAL = {
    "long_fork": (long_fork_history, False),
    "lost_update": (lost_update_history, False),
    "causality": (causality_history, False),
    "write_skew": (write_skew_history, True),
    "serializable": (serializable_history, True),
}


class TestDifferentialCanonical:
    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_matches_batch(self, name):
        make, expected = CANONICAL[name]
        history = make()
        assert PolySIChecker().check(history).satisfies_si == expected
        result = OnlineChecker().replay(history)
        assert result.satisfies_si == expected
        assert result.final

    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_matches_batch_microbatched(self, name):
        make, expected = CANONICAL[name]
        assert OnlineChecker(solve_every=4).replay(make()).satisfies_si \
            == expected

    def test_violation_carries_witness_cycle(self):
        result = OnlineChecker().replay(long_fork_history())
        assert not result.satisfies_si
        assert result.cycle, "cyclic violations should carry a witness"
        # The witness closes: consecutive edges chain head to tail.
        for (_, v, _, _), (u, _, _, _) in zip(result.cycle,
                                              result.cycle[1:]):
            assert v == u
        assert result.cycle[-1][1] == result.cycle[0][0]
        assert all(v in result.names for edge in result.cycle
                   for v in edge[:2])


class TestDifferentialCorpus:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_anomaly_corpus_replays(self, seed):
        for _name, history in known_anomaly_corpus(24, seed=seed):
            assert_same_decision(history, OnlineChecker().replay(history))

    @pytest.mark.parametrize("isolation", ["snapshot", "read_committed"])
    def test_generated_workloads(self, isolation):
        for seed in range(3):
            history = generate_history(
                WorkloadParams(sessions=4, txns_per_session=15,
                               ops_per_txn=5, keys=8, read_proportion=0.4),
                seed=seed, isolation=isolation,
            ).history
            batch = PolySIChecker().check(history).satisfies_si
            assert_same_decision(history, OnlineChecker().replay(history))
            for checker in (OnlineChecker(solve_every=8),
                            OnlineChecker(window=WindowPolicy(max_live=20,
                                                              gc_every=8),
                                          sessions=range(4))):
                assert checker.replay(history).satisfies_si == batch


class TestSolverKeptAcrossSolves:
    """One solver instance per compaction epoch: learned clauses, saved
    phases and the theory's order carry from solve to solve, and the
    verdict stays the batch checker's."""

    SESSIONS = 6

    def _prefix(self):
        """A valid contended stream, long enough for 100+ solves."""
        return generate_history(
            WorkloadParams(sessions=self.SESSIONS, txns_per_session=50,
                           ops_per_txn=5, keys=20, read_proportion=0.5),
            seed=3, isolation="snapshot").history

    def test_unwindowed_stream_builds_one_solver(self):
        history = self._prefix()
        checker = OnlineChecker()
        instances = set()
        for txn in history.transactions:
            checker.add(txn.session, txn.ops, status=txn.status)
            if checker._enc is not None:
                instances.add(id(checker._enc))
        result = checker.finish()
        assert_same_decision(history, result)
        assert result.satisfies_si
        assert result.stats["solves"] >= 100
        assert result.stats["solver_builds"] == len(instances) == 1
        # Counters cover the whole stream, not the last instance's share.
        assert result.stats["solver"]["decisions"] >= result.stats["solves"]
        assert result.stats["solver"]["theory_checks"] > 0

    def test_windowed_stream_builds_one_solver_per_compaction(self):
        history = self._prefix()
        checker = OnlineChecker(
            window=WindowPolicy(max_live=24, gc_every=8),
            sessions=range(self.SESSIONS))
        before = []
        registry = MetricsRegistry()
        with use_metrics(registry):
            for txn in history.transactions:
                result = checker.add(txn.session, txn.ops, status=txn.status)
                before.append(result.stats["solver"]["propagations"])
            result = checker.finish()
        assert result.satisfies_si
        gauges = registry.snapshot()["gauges"]
        assert gauges["online.solver_builds"] == result.stats["solver_builds"]
        for name, value in result.stats["solver"].items():
            assert gauges[f"solver.{name}"] == value, name
        compactions = result.stats["window"]["compactions"]
        assert compactions > 0
        assert 1 < result.stats["solver_builds"] <= compactions + 1
        # Cumulative: a rebuild never resets the counters, and the key
        # is there whether or not an instance is live.
        assert before == sorted(before)

    def test_known_edge_against_a_learned_root_level_edge(self):
        """After 100+ solves on one instance, a known edge closes a cycle
        through an edge only the *solver* knows is mandatory (a learned
        unit): ``add_static_edge`` reports it and the verdict latches
        without another solve.

        t -WW-> s composes with s -RW-> j into t -> j, and j -SO-> t: the
        search learns "not t -> s", which pins s -WW-> t at the root;
        pruning's rules never look at that composition.  Then n (after
        t in its session) reads the z that s overwrote: t -SO-> n -RW-> s."""
        history = self._prefix()
        a, b, c = self.SESSIONS, self.SESSIONS + 1, self.SESSIONS + 2
        gadget = [
            (a, [W("gy", 1), W("gz", 1)]),
            (b, [R("gy", 1), W("gy", 2)]),                          # j
            (b, [W("gx", 1)]),                                      # t
            (c, [R("gy", 1), R("gz", 1), W("gz", 2), W("gx", 2)]),  # s
            (b, [R("gz", 1)]),                                      # n
        ]
        checker = OnlineChecker()
        for txn in history.transactions:
            checker.add(txn.session, txn.ops, status=txn.status)
        for session, ops in gadget[:-1]:
            result = checker.add(session, ops)
        assert result.satisfies_si and result.stats["solves"] >= 100
        assert result.stats["solver_builds"] == 1
        final = checker.add(*gadget[-1])
        assert not final.satisfies_si
        assert final.decided_by == "solving"
        assert final.stats["solves"] == result.stats["solves"]

        builder = HistoryBuilder()
        for txn in history.transactions:
            builder.txn(txn.session, txn.ops, status=txn.status)
        for session, ops in gadget:
            builder.txn(session, ops)
        assert not PolySIChecker().check(builder.build()).satisfies_si


class TestStreaming:
    def test_add_reports_provisional_then_final(self):
        checker = OnlineChecker()
        r = checker.add(0, [W("x", 1)])
        assert r.satisfies_si and not r.final
        checker.add(1, [R("x", 1), W("y", 2)])
        final = checker.finish()
        assert final.satisfies_si and final.final

    def test_out_of_order_read_pends_then_resolves(self):
        checker = OnlineChecker()
        checker.add(1, [R("x", 7)])           # writer not seen yet
        r = checker.add(1, [R("x", 7)])
        assert r.satisfies_si
        assert r.stats["pending_reads"] == 2
        r = checker.add(0, [W("x", 7)])       # writer arrives
        assert r.stats["pending_reads"] == 0
        assert checker.finish().satisfies_si

    def test_pending_read_unjustified_at_finish(self):
        checker = OnlineChecker()
        checker.add(0, [R("x", 99)])
        final = checker.finish()
        assert not final.satisfies_si
        assert final.decided_by == "axioms"
        assert any(a.axiom == "UnjustifiedRead" for a in final.anomalies)

    def test_late_aborted_writer_flags_reader(self):
        checker = OnlineChecker()
        checker.add(0, [R("x", 5)])           # pends
        r = checker.add(1, [W("x", 5)], status=ABORTED)
        assert not r.satisfies_si
        assert any(a.axiom == "AbortedReads" for a in r.anomalies)

    def test_early_aborted_writer_flags_reader(self):
        checker = OnlineChecker()
        checker.add(1, [W("x", 5)], status=ABORTED)
        r = checker.add(0, [R("x", 5)])
        assert not r.satisfies_si
        assert any(a.axiom == "AbortedReads" for a in r.anomalies)

    def test_intermediate_read_flagged(self):
        checker = OnlineChecker()
        checker.add(0, [W("x", 1), W("x", 2)])
        r = checker.add(1, [R("x", 1)])
        assert not r.satisfies_si
        assert any(a.axiom == "IntermediateReads" for a in r.anomalies)

    def test_duplicate_value_raises(self):
        checker = OnlineChecker()
        checker.add(0, [W("x", 1)])
        with pytest.raises(DuplicateValueError):
            checker.add(1, [W("x", 1)])

    def test_violation_latches(self):
        checker = OnlineChecker()
        history = lost_update_history()
        for txn in history.transactions:
            checker.add(txn.session, txn.ops, status=txn.status)
        first = checker.result()
        assert not first.satisfies_si
        later = checker.add(3, [W("z", 1)])
        assert later is first  # latched verdict, new input ignored

    def test_extend_microbatch(self):
        checker = OnlineChecker()
        result = checker.extend([
            (0, [W("x", 1)]),
            (1, [R("x", 1), W("y", 2)]),
            (2, [R("y", 2)]),
        ])
        assert result.satisfies_si
        assert checker.finish().satisfies_si

    def test_stream_source_matches_run_workload(self):
        params = WorkloadParams(sessions=3, txns_per_session=6,
                                ops_per_txn=4, keys=6)
        spec = generate_workload(params, seed=5)
        streamed = list(stream_workload(MVCCDatabase(seed=5), spec, seed=5))
        run = run_workload(MVCCDatabase(seed=5), spec, seed=5)
        assert len(streamed) == len(run.history)
        committed = sum(1 for _s, _o, st in streamed if st == "committed")
        assert committed == run.committed


class TestWindowEviction:
    def test_window_requires_sessions(self):
        with pytest.raises(ValueError):
            OnlineChecker(window=WindowPolicy(max_live=8))

    def test_undeclared_session_rejected(self):
        checker = OnlineChecker(window=WindowPolicy(max_live=8),
                                sessions=[0, 1])
        checker.add(0, [W("x", 1)])
        with pytest.raises(ValueError):
            checker.add(5, [W("y", 1)])

    def test_no_eviction_until_all_sessions_commit(self):
        checker = OnlineChecker(window=WindowPolicy(max_live=2, gc_every=1),
                                sessions=[0, 1])
        for i in range(8):
            checker.add(0, [W("x", i)])
        # Session 1 has never committed: its first transaction may read
        # any version, so nothing is evictable yet.
        assert checker.live_transactions == 8

    def test_superseded_versions_evicted(self):
        checker = OnlineChecker(window=WindowPolicy(max_live=4, gc_every=1),
                                sessions=[0, 1])
        checker.add(1, [W("y", 0)])
        for i in range(12):
            # Session 0 overwrites x; session 1 reads the latest x, so
            # every version order resolves and old writers close over.
            checker.add(0, [W("x", i)])
            checker.add(1, [R("x", i)])
        result = checker.finish()
        assert result.satisfies_si
        assert result.stats["window"]["evicted"] > 0
        assert checker.live_transactions < 25

    def test_eviction_preserves_stale_read_violation(self):
        """A read of an evicted version is still reported as a violation
        (unjustified read instead of a cycle — same verdict)."""
        checker = OnlineChecker(window=WindowPolicy(max_live=2, gc_every=1),
                                sessions=[0, 1])
        checker.add(0, [W("x", 0)])
        for i in range(1, 10):
            checker.add(0, [W("x", i)])
            checker.add(1, [R("x", i)])
        assert ("x", 0) not in checker._writer_index, (
            "the superseded x=0 version should have been evicted"
        )
        assert checker.live_transactions < 19
        checker.add(1, [R("x", 0)])  # stale read of the evicted version
        final = checker.finish()
        assert not final.satisfies_si

    def test_batch_agrees_stale_read_is_violation(self):
        """The windowed verdict above matches the unwindowed world."""
        b = HistoryBuilder()
        b.txn(0, [W("x", 0)])
        for i in range(1, 10):
            b.txn(0, [W("x", i)])
            b.txn(1, [R("x", i)])
        b.txn(1, [R("x", 0)])
        assert not PolySIChecker().check(b.build()).satisfies_si

    def test_compaction_keeps_checking_correct(self):
        policy = WindowPolicy(max_live=4, gc_every=1, compact_fraction=0.1)
        checker = OnlineChecker(window=policy, sessions=[0, 1])
        checker.add(1, [W("y", 0)])
        for i in range(20):
            checker.add(0, [W("x", i)])
            checker.add(1, [R("x", i)])
        result = checker.finish()
        assert result.satisfies_si
        assert result.stats["window"]["compactions"] > 0
        # Violations are still caught after compaction remapped vertices:
        # both transactions read x=19 then overwrite x (a lost update).
        checker.add(0, [R("x", 19), W("x", 100)])
        checker.add(1, [R("x", 19), W("x", 101)])
        final = checker.finish()
        assert not final.satisfies_si


class TestIncrementalClosure:
    def test_insert_and_query(self):
        c = PyBitsetClosure(4)
        assert c.insert(0, 1) == NEW
        assert c.insert(1, 2) == NEW
        assert c.has(0, 2) and not c.has(2, 0)
        assert c.insert(0, 2) == KNOWN
        assert c.insert(2, 0) == CYCLE

    def test_ancestors_updated(self):
        c = PyBitsetClosure(5)
        c.insert(0, 1)
        c.insert(2, 3)
        c.insert(1, 2)          # joins the two chains
        assert c.has(0, 3)
        assert list(c.successors(0)) == [1, 2, 3]

    def test_self_loop_is_cycle(self):
        c = PyBitsetClosure(2)
        assert c.insert(1, 1) == CYCLE

    def test_compact_preserves_transitive_paths(self):
        c = PyBitsetClosure(4)
        c.insert(0, 1)
        c.insert(1, 2)
        c.insert(2, 3)
        mapping = c.compact([0, 1, 3])   # evict vertex 2
        assert mapping == [0, 1, -1, 2]
        assert c.num_vertices == 3
        assert c.has(0, 2)               # old 0 ~> old 3, through evicted 2
        assert c.has(1, 2)
        assert not c.has(2, 0)


class TestIncrementalSolver:
    def test_add_vertex_and_static_edge(self):
        s = AcyclicGraphSolver(2, static_adj=[[1], []])
        v = s.add_vertex()
        assert v == 2
        assert s.add_static_edge(1, 2) is None
        assert s.add_static_edge(2, 0) == []   # closes a static cycle

    def test_static_edge_conflict_reports_var_edges(self):
        s = AcyclicGraphSolver(3)
        e = s.new_var()
        s.add_edge(e, 1, 2)
        s.add_clause([e])                      # edge 1->2 is a fact
        assert s.solve()
        conflict = s.add_static_edge(2, 1)
        assert conflict == [e]

    def test_resolve_after_adding_clauses(self):
        """Solve / add clauses / solve again on one instance, keeping
        learned state — the online checker's usage pattern."""
        s = AcyclicGraphSolver(3)
        a, b = s.new_var(), s.new_var()
        s.add_edge(a, 0, 1)
        s.add_edge(b, 1, 0)
        s.add_clause([a, b])
        assert s.solve()
        s.add_clause([a])
        assert s.solve()
        assert s.model_value(a)
        s.add_clause([b])                      # now both edges: a cycle
        assert not s.solve()


class TestOnlineCLI:
    def test_watch_healthy_exit_zero(self, capsys):
        from repro.cli import main
        code = main(["watch", "--sessions", "3", "--txns", "6",
                     "--keys", "8", "--report-every", "0"])
        assert code == 0
        assert "satisfies snapshot isolation" in capsys.readouterr().out

    def test_watch_faulty_exit_one(self, capsys):
        from repro.cli import main
        code = main(["watch", "--sessions", "4", "--txns", "15",
                     "--keys", "6", "--profile", "mysql-galera-sim",
                     "--report-every", "0"])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_check_stream_flag(self, tmp_path):
        from repro.cli import main
        from repro.histories.codec import dump_history
        ok = tmp_path / "ok.json"
        bad = tmp_path / "bad.json"
        dump_history(serializable_history(), str(ok))
        dump_history(long_fork_history(), str(bad))
        assert main(["check", str(ok), "--mode", "online"]) == 0
        assert main(["check", str(bad), "--mode", "online"]) == 1
        assert main(["check", str(ok), "--mode", "online",
                     "--solve-every", "4"]) == 0


class TestDocsDeliverables:
    """The documentation satellite is a deliverable; pin its presence."""

    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md"])
    def test_doc_exists_and_mentions_online(self, name):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", name)
        assert os.path.exists(path), f"{name} missing"
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert "online" in text.lower()
        assert len(text) > 1000
