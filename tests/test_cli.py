"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.histories.codec import dump_history

from _helpers import (
    long_fork_history,
    serializable_history,
    write_skew_history,
)


class TestCheck:
    def test_valid_history_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump_history(serializable_history(), str(path))
        assert main(["check", str(path)]) == 0
        assert "satisfies" in capsys.readouterr().out

    def test_violation_exit_one(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump_history(long_fork_history(), str(path))
        assert main(["check", str(path)]) == 1
        assert "violates" in capsys.readouterr().out

    def test_explain_and_dot(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dot = tmp_path / "ce.dot"
        dump_history(long_fork_history(), str(path))
        assert main(["check", str(path), "--explain", "--dot", str(dot)]) == 1
        assert "anomaly class: long fork" in capsys.readouterr().out
        assert dot.read_text().startswith("digraph")

    def test_text_format(self, tmp_path):
        path = tmp_path / "h.txt"
        dump_history(serializable_history(), str(path), fmt="text")
        assert main(["check", str(path), "--format", "text"]) == 0

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/nonexistent/h.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_prune_flag(self, tmp_path):
        path = tmp_path / "h.json"
        dump_history(long_fork_history(), str(path))
        assert main(["check", str(path), "--no-prune"]) == 1


class TestGenerate:
    def test_generates_valid_history_file(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = main([
            "generate", "--sessions", "3", "--txns", "4", "--ops", "3",
            "--keys", "6", "-o", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["sessions"]) == 3
        # The generated file round-trips through check.
        assert main(["check", str(out)]) == 0

    def test_generate_with_fault_profile(self, tmp_path):
        out = tmp_path / "bad.json"
        found = False
        for seed in range(10):
            main([
                "generate", "--sessions", "5", "--txns", "8", "--keys", "5",
                "--profile", "mariadb-galera-sim", "--seed", str(seed),
                "-o", str(out),
            ])
            if main(["check", str(out)]) == 1:
                found = True
                break
        assert found


class TestParallelFlags:
    """``audit --parallel`` is a pool over seeds; ``check`` has no
    worker flag (``--mode parallel`` and ``--workers`` are gone)."""

    def test_check_has_no_parallel_mode(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump_history(serializable_history(), str(path))
        with pytest.raises(SystemExit):
            main(["check", str(path), "--mode", "parallel"])
        assert "invalid choice: 'parallel'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_audit_parallel_rejects_bad_values(self, capsys, value):
        with pytest.raises(SystemExit):
            main(["audit", "--profile", "mariadb-galera-sim",
                  "--parallel", value])
        assert "must be >= 1" in capsys.readouterr().err

    def test_audit_parallel_finds_violation(self, capsys):
        code = main([
            "audit", "--profile", "mariadb-galera-sim", "--runs", "15",
            "--sessions", "5", "--txns", "8", "--keys", "5",
            "--parallel", "2",
        ])
        assert code == 1
        assert "violation found" in capsys.readouterr().out

    def test_audit_parallel_reports_same_seed_as_serial(self, capsys):
        args = ["audit", "--profile", "mariadb-galera-sim", "--runs", "15",
                "--sessions", "5", "--txns", "8", "--keys", "5"]
        main(args)
        serial_out = capsys.readouterr().out
        main(args + ["--parallel", "3"])
        parallel_out = capsys.readouterr().out
        serial_line = [l for l in serial_out.splitlines() if "run(s)" in l]
        parallel_line = [l for l in parallel_out.splitlines() if "run(s)" in l]
        assert serial_line == parallel_line


class TestFacadeFlags:
    """The façade-era interface: --isolation / --mode / --engine."""

    def _dump(self, tmp_path, history, name="h.json"):
        path = tmp_path / name
        dump_history(history, str(path))
        return str(path)

    def test_isolation_ser_engine_cobra(self, tmp_path, capsys):
        path = self._dump(tmp_path, write_skew_history())
        assert main(["check", path]) == 0                      # SI allows
        assert main(["check", path, "--isolation", "ser"]) == 1
        assert main(["check", path, "--isolation", "ser",
                     "--engine", "naive"]) == 1
        assert "violates serializability" in capsys.readouterr().out

    def test_isolation_causal(self, tmp_path, capsys):
        path = self._dump(tmp_path, serializable_history())
        assert main(["check", path, "--isolation", "causal"]) == 0
        assert "causal" in capsys.readouterr().out

    def test_mode_online(self, tmp_path, capsys):
        path = self._dump(tmp_path, long_fork_history())
        assert main(["check", path, "--mode", "online"]) == 1
        assert "violates" in capsys.readouterr().out

    def test_engine_alternatives_agree(self, tmp_path):
        path = self._dump(tmp_path, long_fork_history())
        for engine in ("polysi", "cobrasi", "dbcop", "naive"):
            assert main(["check", path, "--engine", engine]) == 1

    def test_unsupported_combo_exits_two(self, tmp_path, capsys):
        path = self._dump(tmp_path, serializable_history())
        assert main(["check", path, "--engine", "cobra"]) == 2
        err = capsys.readouterr().err
        assert "nearest supported alternative" in err

    def test_unsupported_option_exits_two(self, tmp_path, capsys):
        path = self._dump(tmp_path, serializable_history())
        assert main(["check", path, "--engine", "dbcop",
                     "--no-prune"]) == 2
        assert "dbcop" in capsys.readouterr().err

    def test_solve_every_is_ignored_outside_online(self, tmp_path, capsys):
        """Pre-2.0 scripts passing --solve-every outside online mode keep
        working: the flag is ignored with a note, not a hard error."""
        path = self._dump(tmp_path, serializable_history())
        assert main(["check", path, "--solve-every", "8"]) == 0
        captured = capsys.readouterr()
        assert "satisfies" in captured.out
        assert "--solve-every" in captured.err

    @pytest.mark.parametrize("flag", ["--stream", "--parallel", "--workers"])
    def test_removed_aliases_are_rejected(self, tmp_path, capsys, flag):
        """The pre-2.0 aliases and the component-shard worker count are
        gone; argparse must not accept them as abbreviations of anything
        either."""
        path = self._dump(tmp_path, serializable_history())
        with pytest.raises(SystemExit):
            main(["check", path, flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_engines_listing(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("polysi", "timestamp", "cobra", "cobrasi", "dbcop",
                     "naive"):
            assert name in out
        assert "si: batch, online, parallel, segmented" in out

    def test_engines_verbose_lists_options(self, capsys):
        assert main(["engines", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "options:" in out
        assert "max_states" in out

    def test_engines_verbose_scopes_each_option_by_its_readers(self, capsys):
        """The scope printed next to an option is the set of combos the
        registry forwards it to: exactly where setting it is no error."""
        assert main(["engines", "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        compact = next(line for line in lines
                       if line.strip().startswith("compact:"))
        initial = next(line for line in lines
                       if line.strip().startswith("initial_values:"))
        assert compact.endswith("[si/batch, si/parallel, si/segmented only]")
        assert initial.endswith("[si/batch, si/online only]")
        assert "segmented" not in initial.partition("[")[0]


class TestExitCodeContract:
    """Every command honors the documented 0/1/2 contract, and all
    errors leave through the same stderr path."""

    def test_satisfied_is_zero(self, tmp_path):
        path = tmp_path / "h.json"
        dump_history(serializable_history(), str(path))
        assert main(["check", str(path)]) == 0

    def test_violation_is_one(self, tmp_path):
        path = tmp_path / "h.json"
        dump_history(long_fork_history(), str(path))
        assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize("argv,needle", [
        (["check", "/nonexistent/h.json"], "error:"),
        (["collect", "--adapter", "dbapi"], "requires --driver"),
        (["collect", "--adapter", "dbapi", "--driver", "x"],
         "requires --dsn"),
    ])
    def test_errors_are_two_on_stderr(self, capsys, argv, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert captured.err.startswith("error:") or "note:" in captured.err

    def test_explain_requires_evidence_mode(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump_history(serializable_history(), str(path))
        assert main(["check", str(path), "--mode", "online",
                     "--explain"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAuditAndCorpus:
    def test_audit_finds_violation(self, capsys):
        code = main([
            "audit", "--profile", "mariadb-galera-sim", "--runs", "15",
            "--sessions", "5", "--txns", "8", "--keys", "5",
        ])
        assert code == 1
        assert "violation found" in capsys.readouterr().out

    def test_corpus_full_detection(self, capsys):
        assert main(["corpus", "--count", "27"]) == 0
        assert "27/27" in capsys.readouterr().out

    def test_profiles_listed(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "mariadb-galera-sim" in out
        assert "dgraph-sim" in out


class TestEnginesJson:
    """`repro engines --json`: the machine-readable registry listing,
    drift-guarded against the live registry."""

    def _payload(self, capsys):
        assert main(["engines", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_json_parses_and_names_match_registry(self, capsys):
        from repro.api import engine_names

        payload = self._payload(capsys)
        assert [e["name"] for e in payload["engines"]] == engine_names()

    def test_json_combos_match_supported_combos(self, capsys):
        """Every (isolation, mode, engine) triple in the JSON listing is
        exactly the registry's supported_combos() — the CLI cannot
        drift from the facade."""
        from repro.api import supported_combos

        payload = self._payload(capsys)
        listed = {
            (combo["isolation"], combo["mode"], engine["name"])
            for engine in payload["engines"]
            for combo in engine["combos"]
        }
        assert listed == set(supported_combos())

    def test_json_lists_option_names(self, capsys):
        payload = self._payload(capsys)
        by_name = {e["name"]: e for e in payload["engines"]}
        assert "workers" in by_name["polysi"]["options"]

    def test_text_listing_unchanged_by_flag_addition(self, capsys):
        """The human listing still renders without --json."""
        assert main(["engines"]) == 0
        assert "polysi" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_rejects_bad_queue_depth(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--queue-depth", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_collect_sink_requires_valid_url(self, capsys):
        assert main(["collect", "--sessions", "2", "--txns", "2",
                     "--sink", "gopher://x:1"]) == 2
        assert "bad sink URL" in capsys.readouterr().err

    def test_collect_sink_unreachable_daemon_is_error(self, capsys):
        # Port 1 on localhost is never listening.
        assert main(["collect", "--sessions", "2", "--txns", "2",
                     "--sink", "http://127.0.0.1:1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_collect_pushes_to_live_daemon(self, capsys):
        from repro.service import ReproService, ServiceConfig, ServiceClient

        service = ReproService(ServiceConfig(http_port=0, tcp_port=None))
        handle = service.start_in_thread()
        try:
            code = main(["collect", "--sessions", "3", "--txns", "3",
                         "--seed", "2",
                         "--sink", f"http://127.0.0.1:{handle.http_port}",
                         "--tenant", "cli"])
            assert code == 0
            out = capsys.readouterr().out
            assert "pushed" in out and "tenant 'cli'" in out
            verdicts = handle.drain()
            assert verdicts["cli"]["report"]["verdict"] == "satisfied"
        finally:
            handle.stop()
