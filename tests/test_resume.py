"""Resume equivalence: snapshot/restore never changes a verdict.

The soundness contract of DESIGN.md S14, pinned as properties:

- **Snapshot/restore identity** — an :class:`OnlineChecker` restored
  from ``snapshot()`` at *any* transaction boundary and fed the rest of
  the stream reaches the same verdict, the same anomaly set, and the
  same known-edge count as the uninterrupted checker — on random
  histories, on the known-anomaly corpus, under windowed eviction, and
  from checkpoints whose config names the python closure kernel (the
  rows are kernel-independent; restore continues on numpy).
- **Journal + checkpoint recovery** — a :class:`PersistentCheck`
  interrupted at any point and reopened on the same state directory
  converges to the uninterrupted verdict, replaying only the log tail
  past the newest checkpoint.
- A latched violation is never checkpointed, and the journaled log
  alone re-derives the violation (``run_persistent_check(path)``).
- **Checkpoint bytes** — ``tests/data/checkpoint_digests_5e09023.json``
  holds, for three daemon-shaped streams fed in 64-event slices, the
  sha256 of every post-slice ``snapshot()`` (``timings`` aside) as
  commit ``5e09023`` wrote it; every one must be the same today.

Regenerate the digests (only from the build the file is named after)::

    PYTHONPATH=src python tests/test_resume.py OUT.json
"""

import hashlib
import json
import os
import random
import sys

import pytest

import repro
from repro.api import CheckerError
from repro.histories.codec import history_to_events
from repro.online import OnlineChecker, WindowPolicy
from repro.store import PersistentCheck, run_persistent_check
from repro.utils.closure_np import NumpyBitsetClosure
from repro.workloads import WorkloadParams, generate_history
from repro.workloads.corpus import known_anomaly_corpus
from repro.workloads.random_histories import random_history

from _helpers import decision_vars, lost_update_history, simulated


def _events_for(history):
    return history_to_events(history)


def _drive(checker, events):
    """Feed all events; returns the final result (violations latch, so
    feeding past one is harmless and mirrors the service's behavior)."""
    result = checker.result()
    for event in events:
        result = checker.add(event[0], event[1], status=event[2])
    return checker.finish()


def _fingerprint(checker, result):
    anomalies = sorted(type(a).__name__ for a in result.anomalies)
    return {
        "verdict": result.satisfies_si,
        "decided_by": result.decided_by if not result.satisfies_si else None,
        "anomalies": anomalies,
        "accepted": result.stats.get("accepted"),
        "known_edges": len(checker._known_edges),
    }


def _resumed_fingerprint(events, split, **checker_kwargs):
    """Run ``events`` with a snapshot/restore break after ``split``."""
    first = OnlineChecker(**checker_kwargs)
    for event in events[:split]:
        result = first.add(event[0], event[1], status=event[2])
        if not result.satisfies_si:
            return None  # violated before the split: nothing to restore
    state = first.snapshot()
    second = OnlineChecker.restore(state)
    result = _drive(second, events[split:])
    return _fingerprint(second, result)


def _random_events(seed, *, sessions=4, txns=5, abort_prob=0.1):
    """Unconstrained fuzz events — roughly half violate SI."""
    history = random_history(
        random.Random(seed), sessions=sessions, txns_per_session=txns,
        max_ops=4, keys=6, read_initial_prob=0.2, abort_prob=abort_prob,
    )
    return _events_for(history)


def _valid_events(seed, *, sessions=3, txns=6):
    """Events from an executed snapshot-isolation workload — satisfiable."""
    history = generate_history(
        WorkloadParams(sessions=sessions, txns_per_session=txns,
                       ops_per_txn=4, keys=8, read_proportion=0.5),
        seed=seed, isolation="snapshot",
    ).history
    return _events_for(history)


class TestSnapshotRestoreEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_every_third_boundary(self, seed):
        events = _random_events(seed)
        baseline = OnlineChecker()
        fingerprint = _fingerprint(baseline, _drive(baseline, events))
        for split in range(1, len(events), 3):
            resumed = _resumed_fingerprint(events, split)
            if resumed is None:
                break
            assert resumed == fingerprint, f"seed={seed} split={split}"

    def test_anomaly_corpus_resumes_to_the_same_violation(self):
        for index, (name, history) in enumerate(
                known_anomaly_corpus(18, seed=3)):
            events = _events_for(history)
            baseline = OnlineChecker()
            fingerprint = _fingerprint(baseline, _drive(baseline, events))
            assert fingerprint["verdict"] is False, name
            for split in (1, len(events) // 2, len(events) - 1):
                if split < 1:
                    continue
                resumed = _resumed_fingerprint(events, split)
                if resumed is None:
                    continue  # the violation latched before this split
                assert resumed == fingerprint, f"#{index} {name} @{split}"

    def test_windowed_checker_resumes_identically(self):
        events = _random_events(11, sessions=4, txns=8)
        kwargs = dict(window=WindowPolicy(max_live=8, gc_every=4),
                      sessions=range(4))
        baseline = OnlineChecker(**kwargs)
        fingerprint = _fingerprint(baseline, _drive(baseline, events))
        for split in range(2, len(events), 5):
            resumed = _resumed_fingerprint(events, split, **kwargs)
            if resumed is None:
                break
            assert resumed == fingerprint, f"split={split}"

    @pytest.mark.parametrize("written", ["python", "numpy"])
    def test_snapshot_names_its_kernel_and_restore_ignores_it(self, written):
        """A checkpoint still names the kernel (``"numpy"``), so a build
        that reads the field can restore it; restore does not read it,
        so one naming the python kernel continues on numpy: int rows
        are the interchange format."""
        events = _events_for(lost_update_history())
        split = max(1, len(events) // 2)
        first = OnlineChecker()
        for event in events[:split]:
            first.add(event[0], event[1], status=event[2])
        state = first.snapshot()
        assert state["config"]["closure_backend"] == "numpy"
        state["config"]["closure_backend"] = written
        second = OnlineChecker.restore(state)
        assert isinstance(second._ki, NumpyBitsetClosure)
        result = _drive(second, events[split:])
        assert result.stats["closure_backend"] == "numpy"
        baseline = OnlineChecker()
        expected = _drive(baseline, events)
        assert result.satisfies_si == expected.satisfies_si is False
        assert (sorted(type(a).__name__ for a in result.anomalies)
                == sorted(type(a).__name__ for a in expected.anomalies))

    @pytest.mark.parametrize("windowed", [False, True])
    def test_resumed_solver_decides_choices_only_and_is_kept(self, windowed):
        """The restored instance is the one the stream goes on with — a
        new one is built only after a compaction — and its search never
        decides a derived variable: between two conflicts (or restarts)
        each choice is decided at most once."""
        events = _valid_events(5, sessions=5, txns=14)
        kwargs = (dict(window=WindowPolicy(max_live=12, gc_every=4),
                       sessions=range(5)) if windowed else {})
        baseline = OnlineChecker(**kwargs)
        expected = _drive(baseline, events)
        choices = 0

        def feed(checker, part):
            nonlocal choices
            for event in part:
                checker.add(event[0], event[1], status=event[2])
                if checker._enc is not None:
                    choices = max(choices, len(checker._enc.choice_var))

        split = len(events) // 2
        first = OnlineChecker(**kwargs)
        feed(first, events[:split])
        assert first.unresolved_constraints and first._enc is not None
        second = OnlineChecker.restore(first.snapshot())
        restored = second._enc
        assert decision_vars(restored.solver) == set(
            restored.choice_var.values())
        feed(second, events[split:])
        result = second.finish()
        assert _fingerprint(second, result) == _fingerprint(baseline, expected)
        stats, solver = result.stats, result.stats["solver"]
        assert stats["solver_builds"] == expected.stats["solver_builds"]
        assert stats["solver_builds"] <= stats["window"]["compactions"] + 1
        if windowed:
            assert stats["window"]["compactions"] > 0
        else:
            assert second._enc is restored
        assert 0 < solver["decisions"] <= choices * (
            solver["conflicts"] + solver["restarts"] + stats["solves"])

    def test_snapshot_refuses_a_latched_violation(self):
        checker = OnlineChecker()
        result = _drive(checker, _events_for(lost_update_history()))
        assert result.satisfies_si is False
        with pytest.raises(ValueError):
            checker.snapshot()


@pytest.mark.parametrize("build", ["f8d5e43", "80ea5ae", "d90a0f0"])
class TestCheckpointWrittenByAnEarlierBuild:
    """``tests/data/checkpoint_<build>.json`` is
    ``OnlineChecker.snapshot()`` output written by that commit
    mid-stream, plus the rest of the stream and the verdict that build
    reached after restoring it.

    - ``f8d5e43`` — the last build whose online checker carried its own
      SAT encoder: eight unresolved constraints and a live solver
      (learned clauses, an and-gate, emitted-term tables).  The shared
      encoder must accept that payload as is.
    - ``80ea5ae`` — the last build that pruned one ``has()`` call per
      Dep-predecessor: a windowed checker after its first compaction,
      four unresolved constraints, a second compaction in the tail.
      The Dep-predecessor masks pruning now reads are derived state and
      must come back from the persisted known edges alone.
    - ``d90a0f0`` — the last build whose search decided every variable:
      eleven unresolved constraints, two learned clauses and three
      and-gates.  Which variables the search decides (and which way
      first) is derived state too: it must come back as exactly the
      choice variables although the payload says nothing about it."""

    @staticmethod
    def _fixture(build):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", f"checkpoint_{build}.json")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def test_restores_and_finishes_with_the_same_verdict(self, build):
        from repro.core.history import Operation

        fixture = self._fixture(build)
        assert fixture["state"]["unresolved"]
        assert fixture["state"]["solver"]["clauses"]
        if build == "80ea5ae":
            assert fixture["state"]["window_stats"]["compactions"]
        else:
            assert fixture["state"]["solver"]["and_cache"]
        if build == "d90a0f0":
            assert fixture["state"]["solver"]["learned"]
        checker = OnlineChecker.restore(fixture["state"])
        assert checker._known.pred_mask == [
            sum(1 << p for p in preds) for preds in checker._known.dep_preds]
        assert decision_vars(checker._enc.solver) == set(
            checker._enc.choice_var.values())
        for session, ops, status in fixture["tail"]:
            checker.add(session, [Operation(*op) for op in ops],
                        status=status)
        final = checker.finish()
        expect = fixture["expect"]
        assert final.satisfies_si == expect["satisfies_si"]
        assert final.stats["known_edges"] == expect["known_edges"]
        assert final.stats["accepted"] == expect["accepted"]

    def test_a_python_written_checkpoint_continues_on_numpy(self, build):
        fixture = self._fixture(build)
        assert fixture["state"]["config"]["closure_backend"] == "python"
        checker = OnlineChecker.restore(fixture["state"])
        assert isinstance(checker._ki, NumpyBitsetClosure)
        assert checker.result().stats["closure_backend"] == "numpy"
        assert checker.snapshot()["config"]["closure_backend"] == "numpy"

    def test_payload_shape_is_unchanged(self, build):
        from repro.online.checker import STATE_VERSION

        fixture = self._fixture(build)["state"]
        assert STATE_VERSION == fixture["v"] == 1
        again = OnlineChecker.restore(fixture).snapshot()
        assert set(again) == set(fixture)
        assert set(again["solver"]) == set(fixture["solver"])
        for table in ("dep_var", "rw_var", "choice_var", "and_cache",
                      "emitted_branch", "emitted_terms", "edges"):
            assert (sorted(map(repr, again["solver"][table]))
                    == sorted(map(repr, fixture["solver"][table]))), table
        # A restore re-adds learned clauses as ordinary ones.
        assert (sorted(map(repr, again["solver"]["clauses"]))
                == sorted(map(repr, fixture["solver"]["clauses"]
                              + fixture["solver"]["learned"])))


class TestPersistentCheck:
    def test_interrupted_run_converges_to_uninterrupted_verdict(
            self, tmp_path):
        events = _valid_events(21)
        baseline = OnlineChecker()
        expected = _fingerprint(baseline, _drive(baseline, events))

        split = len(events) // 2
        with PersistentCheck(str(tmp_path / "s"),
                             checkpoint_every=4) as first:
            first.feed_events(events[:split])
        # "Crash": the first driver goes away without finish();
        # reopening recovers from the newest checkpoint + tail replay.
        with PersistentCheck(str(tmp_path / "s"),
                             checkpoint_every=4) as second:
            assert second.recovered_events == split
            assert second.resumed_from > 0  # a checkpoint was used
            assert second.replayed == split - second.resumed_from
            second.feed_events(events[split:])
            result = second.finish()
            got = _fingerprint(second.checker, result)
        assert got == expected
        persistence = result.stats["persistence"]
        assert persistence["journaled_events"] == len(events)

    def test_resume_false_replays_the_whole_log(self, tmp_path):
        events = _valid_events(22)
        with PersistentCheck(str(tmp_path / "s"),
                             checkpoint_every=3) as first:
            first.feed_events(events)
            first.finish()
        with PersistentCheck(str(tmp_path / "s"), resume=False) as again:
            assert again.resumed_from == 0
            assert again.replayed == len(events)
            assert again.finish().satisfies_si

    def test_checkpoint_zero_disables_periodic_checkpoints(self, tmp_path):
        events = _valid_events(23)
        with PersistentCheck(str(tmp_path / "s"),
                             checkpoint_every=0) as check:
            check.feed_events(events)
            assert check.store.checkpoints() == []
            check.finish()  # the final checkpoint still lands
            assert check.store.checkpoints() == [len(events)]

    def test_violation_is_never_checkpointed_but_stays_journaled(
            self, tmp_path):
        events = _events_for(lost_update_history())
        with PersistentCheck(str(tmp_path / "s"),
                             checkpoint_every=1) as check:
            result = check.feed_events(events)
            assert result.satisfies_si is False
            check.finish()
            journaled = check.store.total_events
            checkpoints = check.store.checkpoints()
        assert journaled == len(events)
        # Only checkpoints from before the latch may exist; the offline
        # recheck of the journal alone re-derives the violation.
        result = run_persistent_check(str(tmp_path / "s"))
        assert result.satisfies_si is False
        for count in checkpoints:
            assert count < journaled

    def test_offline_recheck_of_a_clean_journal(self, tmp_path):
        events = _valid_events(24)
        with PersistentCheck(str(tmp_path / "s")) as check:
            check.feed_events(events)
            check.finish()
        result = run_persistent_check(str(tmp_path / "s"))
        assert result.satisfies_si is True
        assert result.stats["persistence"]["resumed_from"] == len(events)
        assert result.stats["persistence"]["replayed"] == 0


class TestFacadeAndCli:
    def test_facade_state_dir_round_trip(self, tmp_path):
        events = _valid_events(31)
        from repro.histories.codec import history_from_events

        history = history_from_events(events)
        state = str(tmp_path / "s")
        report = repro.check(history, mode="online", state_dir=state,
                             checkpoint_every=8)
        assert report.ok
        persistence = report.stats["persistence"]
        assert persistence["journaled_events"] == len(events)
        # Subject None: the journaled log itself is the history.
        again = repro.check(None, mode="online", state_dir=state)
        assert again.ok
        assert again.stats["persistence"]["resumed_from"] == len(events)

    def test_state_dir_is_online_only(self, tmp_path):
        with pytest.raises(CheckerError):
            repro.check(lost_update_history(), mode="parallel",
                        state_dir=str(tmp_path / "s"))

    def test_negative_checkpoint_every_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            repro.check(lost_update_history(), mode="online",
                        state_dir=str(tmp_path / "s"), checkpoint_every=-1)

    def test_cli_check_accepts_a_state_directory(self, tmp_path, capsys):
        from repro.cli import main

        events = _events_for(lost_update_history())
        state = str(tmp_path / "s")
        with PersistentCheck(state) as check:
            check.feed_events(events)
            check.finish()
        assert main(["check", state]) == 1
        out = capsys.readouterr().out
        assert "state dir" in out

    def test_rechecking_a_history_on_its_state_dir_appends_nothing(
            self, tmp_path):
        """A re-check of the history a journal holds skips it; any other
        subject is refused before a byte is appended, so the journal
        stays checkable."""
        from repro.cli import main
        from repro.core.history import HistoryBuilder, R, W
        from repro.store import SegmentStore

        def history(*txns):
            builder = HistoryBuilder()
            for session, ops in txns:
                builder.txn(session, ops)
            return builder.build()

        state = str(tmp_path / "s")
        three = history((0, [W("x", 1)]), (1, [R("x", 1), W("y", 2)]),
                        (0, [R("y", 2)]))
        # The second check restores the first one's final checkpoint,
        # which already describes the stream's end: nothing to write.
        for written in (1, 0):
            report = repro.check(three, mode="online", state_dir=state)
            assert report.ok
            persistence = report.stats["persistence"]
            assert persistence["journaled_events"] == 3
            assert persistence["checkpoints_written"] == written
        assert repro.check(None, mode="online", state_dir=state).ok
        assert main(["check", state]) == 0
        with pytest.raises(CheckerError, match="different stream"):
            repro.check(history((0, [W("z", 1)])), mode="online",
                        state_dir=state)
        with SegmentStore(state, readonly=True) as store:
            assert store.total_events == 3

    def test_a_stream_ending_on_a_checkpoint_position_counts_both(
            self, tmp_path):
        """The final checkpoint is written even where a periodic one
        just was (the count a tenant reports is unchanged); only a run
        that checked nothing past its restored checkpoint skips it."""
        events = _events_for(lost_update_history())[:2]
        state = str(tmp_path / "s")
        with PersistentCheck(state, checkpoint_every=2) as check:
            check.feed_events(events)
            assert check.finish().stats["persistence"][
                "checkpoints_written"] == 2
        with PersistentCheck(state, checkpoint_every=2) as check:
            assert check.resumed_from == 2
            assert check.finish().stats["persistence"][
                "checkpoints_written"] == 0

    def test_a_journal_line_spelled_otherwise_still_matches(self, tmp_path):
        """The prefix match compares events, not bytes: a line another
        writer spelled with spaces and reordered keys is still the
        subject's event."""
        from repro.histories.codec import event_to_json
        from repro.store import SegmentStore

        events = _events_for(lost_update_history())
        state = str(tmp_path / "s")
        with SegmentStore.create(state) as store:
            record = json.loads(event_to_json(events[0]))
            store.append_line(json.dumps(dict(reversed(record.items()))))
            assert store.total_events == 1
        with PersistentCheck(state) as check:
            rest = list(check.unjournaled(events))
        assert rest == events[1:]

    def test_cli_watch_state_dir_resumes_without_rejournaling(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.store import SegmentStore

        state = str(tmp_path / "s")
        argv = ["watch", "--sessions", "3", "--txns", "4", "--seed", "5",
                "--report-every", "0", "--state-dir", state,
                "--checkpoint-every", "6"]
        assert main(argv) == 0
        with SegmentStore(state, readonly=True) as store:
            journaled = store.total_events
        assert journaled > 0
        capsys.readouterr()
        assert main(argv) == 0  # same flags + seed: resumes, no re-append
        out = capsys.readouterr().out
        assert f"resumed from {state}" in out
        with SegmentStore(state, readonly=True) as store:
            assert store.total_events == journaled


#: The checkpoint-digest streams: a tenant under a window small enough
#: for two compactions, one without a window, and the windowed one
#: restored from its own snapshot after ``DIGEST_SPLIT`` slices.
DIGEST_SHAPE = dict(sessions=6, ops_per_txn=8, read_proportion=0.7,
                    keys=120, distribution="uniform")
DIGEST_STREAMS = {"windowed": (21, 48), "unwindowed": (22, None)}
DIGEST_EVENTS, DIGEST_SLICE, DIGEST_SPLIT = 320, 64, 2
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "checkpoint_digests_5e09023.json")


def checkpoint_digest(checker):
    """sha256 of the checker's snapshot as JSON, wall-clock timings
    aside — what a checkpoint carries, byte for byte."""
    state = checker.snapshot()
    del state["timings"]
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def checkpoint_digests():
    """Per stream: the digest after every slice (the restored stream:
    right after its restore, then after every slice it continues with)
    and the compactions its window ran."""
    out = {}
    for name, (seed, max_live) in DIGEST_STREAMS.items():
        events = simulated(seed, DIGEST_EVENTS, **DIGEST_SHAPE)
        checker = OnlineChecker(
            solve_every=8, sessions=range(DIGEST_SHAPE["sessions"]),
            window=WindowPolicy(max_live) if max_live else None)
        slices = [events[at:at + DIGEST_SLICE]
                  for at in range(0, len(events), DIGEST_SLICE)]
        digests = []
        for number, batch in enumerate(slices, 1):
            assert checker.extend(batch).satisfies_si
            digests.append(checkpoint_digest(checker))
            if number == DIGEST_SPLIT:
                state = json.loads(json.dumps(checker.snapshot()))
        out[name] = {"digests": digests, "compactions":
                     checker.result().stats["window"]["compactions"]}
        if max_live is None:
            continue
        restored = OnlineChecker.restore(state)
        digests = [checkpoint_digest(restored)]
        for batch in slices[DIGEST_SPLIT:]:
            assert restored.extend(batch).satisfies_si
            digests.append(checkpoint_digest(restored))
        out["restored"] = {"digests": digests, "compactions":
                           restored.result().stats["window"]["compactions"]}
    return out


def test_checkpoint_bytes_match_the_build_that_pinned_them():
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert set(pinned) == {"windowed", "unwindowed", "restored"}
    assert pinned["windowed"]["compactions"] >= 2
    assert pinned["unwindowed"]["compactions"] == 0
    got = checkpoint_digests()
    for name, want in pinned.items():
        assert len(got[name]["digests"]) == len(want["digests"]), name
        for number, (mine, theirs) in enumerate(
                zip(got[name]["digests"], want["digests"])):
            assert mine == theirs, (name, number)
        assert got[name]["compactions"] == want["compactions"], name


def test_only_the_driver_touches_checkpoints():
    """``PersistentCheck`` is the one S14 driver: nothing else under
    ``src/`` writes or reads a checkpoint or restores a checker from
    one, and the service's tenant keeps no store of its own."""
    import ast

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "repro")
    calls = set()
    for folder, _dirs, names in os.walk(src):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                attr, owner = node.func.attr, node.func.value
                if (attr == "save_checkpoint"
                        or attr.startswith("latest_checkpoint")
                        or (attr == "restore" and isinstance(owner, ast.Name)
                            and owner.id == "OnlineChecker")):
                    calls.add((os.path.relpath(path, src), attr))
    assert calls == {("store/resume.py", "save_checkpoint"),
                     ("store/resume.py", "latest_checkpoint_payload"),
                     ("store/resume.py", "restore")}
    with open(os.path.join(src, "service", "tenants.py"),
              encoding="utf-8") as handle:
        tenants = handle.read()
    for name in ("SegmentStore", "OnlineChecker(", "_recover",
                 "_slice_limit", "_maybe_checkpoint", "_write_checkpoint"):
        assert name not in tenants, name


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(checkpoint_digests(), out, indent=1, sort_keys=True)
        out.write("\n")
