"""Tests for the unified checking façade (repro.api).

One ``Checker`` / ``repro.check`` call per scenario, one ``Report``
type out, and registry-driven capability errors.
"""

import json

import pytest

from repro.api import (
    Checker,
    CheckerError,
    CheckOptions,
    EngineSpec,
    Report,
    UnknownEngineError,
    UnsupportedComboError,
    UnsupportedOptionError,
    adapt_result,
    check,
    default_engine,
    get_engine,
    list_engines,
    register_engine,
    supported_combos,
)
from repro.core.checker import CheckResult
from repro.extensions.segmented import run_segmented_workload
from repro.listappend import A, L, ListHistoryBuilder
from repro.storage.database import MVCCDatabase
from repro.timestamp import stamp_serial
from repro.workloads.generator import WorkloadParams, generate_workload

from _helpers import (
    causality_history,
    long_fork_history,
    lost_update_history,
    serializable_history,
    write_skew_history,
)


def _segmented_run():
    spec = generate_workload(
        WorkloadParams(sessions=3, txns_per_session=6, ops_per_txn=4,
                       keys=8),
        seed=1,
    )
    return run_segmented_workload(MVCCDatabase(seed=1), spec,
                                  snapshot_every=6, seed=1)


def _list_history():
    b = ListHistoryBuilder()
    b.txn(0, [A("x", 1)])
    b.txn(1, [A("x", 2), L("x", [1, 2])])
    return b.build()


class TestEveryRegisteredCombo:
    """repro.check(subject, isolation=I, mode=M, engine=E) returns a
    Report for every registered combination (the acceptance criterion)."""

    @pytest.mark.parametrize("isolation,mode,engine", supported_combos())
    def test_combo_returns_report(self, isolation, mode, engine):
        spec = get_engine(engine)
        kind = spec.input_kind(isolation, mode)
        subject = {
            "history": serializable_history,
            "segmented_run": _segmented_run,
            "list_history": _list_history,
            "timestamped_history": lambda: stamp_serial(
                serializable_history()),
        }[kind]()
        options = {"workers": 2} if mode in ("parallel", "segmented") else {}
        report = check(subject, isolation, mode, engine, **options)
        assert isinstance(report, Report)
        assert report.ok, (isolation, mode, engine)
        assert (report.isolation, report.mode, report.engine) == (
            isolation, mode, engine
        )
        assert report.verdict == "satisfied"
        assert "satisfies" in report.describe()
        json.loads(report.to_json())

    def test_to_json_serializes_non_string_stat_keys_deterministically(self):
        """Regression: stats may carry int-keyed dicts (per-segment
        maps, say); ``to_json`` must stringify and sort
        them instead of raising or depending on insertion order."""
        report = check(serializable_history())
        report.stats["per_shard"] = {3: {"txns": 5}, 1: {"txns": 7}}
        payload = json.loads(report.to_json())
        assert list(payload["stats"]["per_shard"]) == ["1", "3"]
        assert payload["stats"]["per_shard"]["1"] == {"txns": 7}
        # deterministic regardless of insertion order
        report.stats["per_shard"] = {1: {"txns": 7}, 3: {"txns": 5}}
        assert json.loads(report.to_json()) == payload


class TestVerdicts:
    def test_si_violation(self):
        report = check(long_fork_history())
        assert not report.ok
        assert report.verdict == "violated"
        assert report.cycle
        assert "violates" in report.describe()

    def test_isolation_hierarchy_on_write_skew(self):
        """Write skew: SI allows it, serializability does not."""
        history = write_skew_history()
        assert check(history).ok
        for engine in ("cobra", "dbcop", "naive"):
            assert not check(history, isolation="ser", engine=engine).ok

    def test_causal_and_ra_levels(self):
        assert not check(causality_history(), isolation="causal").ok
        assert check(serializable_history(), isolation="causal").ok
        assert check(serializable_history(), isolation="ra").ok

    def test_default_engine_per_isolation(self):
        assert default_engine("si") == "polysi"
        assert default_engine("ser") == "cobra"
        assert check(write_skew_history(), isolation="ser").engine == "cobra"

    def test_checker_is_reusable(self):
        checker = Checker()
        assert checker.check(serializable_history()).ok
        assert not checker.check(lost_update_history()).ok

    def test_native_result_is_attached(self):
        report = check(serializable_history())
        assert isinstance(report.native, CheckResult)


class TestReportEvidence:
    def test_interpret_returns_classified_counterexample(self):
        report = check(lost_update_history())
        example = report.interpret()
        assert example.classification == "lost update"
        assert report.counterexample is not None
        # Cached: repeated reads return the same interpretation object.
        assert report.counterexample is report.counterexample

    def test_interpret_on_satisfied_report_raises(self):
        from repro.interpret import InterpretationError

        with pytest.raises(InterpretationError):
            check(serializable_history()).interpret()

    def test_counterexample_none_for_oracle_engines(self):
        report = check(long_fork_history(), engine="dbcop")
        assert not report.ok
        assert report.counterexample is None

    def test_online_anomaly_evidence_interprets(self):
        """Online witnesses lose their polygraph, but anomaly-only
        evidence (axiom violations) still classifies."""
        from repro.core.history import ABORTED, HistoryBuilder, R, W

        b = HistoryBuilder()
        b.txn(0, [W("k", 1)], status=ABORTED)
        b.txn(1, [R("k", 1)])
        report = check(b.build(), mode="online")
        assert not report.ok
        assert report.counterexample is not None

    def test_online_cycle_evidence_does_not_interpret(self):
        report = check(causality_history(), mode="online")
        assert not report.ok
        if report.cycle and not report.anomalies:
            assert report.counterexample is None

    def test_segmented_report_carries_segment_stats(self):
        report = check(_segmented_run(), mode="segmented")
        assert report.stats["segments"] >= 1
        assert report.stats["failing_segment"] is None

    def test_json_payload_fields(self):
        payload = json.loads(check(long_fork_history()).to_json())
        assert payload["verdict"] == "violated"
        assert payload["isolation"] == "si"
        assert payload["engine"] == "polysi"
        assert payload["cycle"]


class TestRegistryErrors:
    def test_unsupported_combo_names_alternative(self):
        with pytest.raises(UnsupportedComboError) as exc:
            check(serializable_history(), isolation="si", engine="cobra")
        assert "cobrasi" in str(exc.value) or "polysi" in str(exc.value)

    def test_unsupported_mode_for_engine(self):
        with pytest.raises(UnsupportedComboError) as exc:
            Checker("si", "online", "dbcop")
        assert "batch" in str(exc.value)

    def test_unknown_engine(self):
        with pytest.raises(UnknownEngineError) as exc:
            Checker(engine="spanner")
        assert "polysi" in str(exc.value)

    def test_unknown_isolation_and_mode(self):
        with pytest.raises(CheckerError):
            Checker(isolation="read_committed")
        with pytest.raises(CheckerError):
            Checker(mode="streaming")

    def test_option_unknown_to_engine(self):
        with pytest.raises(UnsupportedOptionError) as exc:
            Checker(engine="dbcop", workers=4)
        assert "max_states" in str(exc.value)

    def test_option_scoped_to_other_mode(self):
        with pytest.raises(UnsupportedOptionError) as exc:
            Checker(solve_every=4)
        assert "online" in str(exc.value)

    def test_unknown_option(self):
        with pytest.raises(UnsupportedOptionError):
            Checker(frobnicate=True)

    def test_option_scoped_per_combo(self):
        """An option the engine reads in *some* combo is still rejected
        by combos that never forward it (no silent no-ops)."""
        with pytest.raises(UnsupportedOptionError) as exc:
            Checker(isolation="causal", prune=False)
        assert "causal" in str(exc.value)
        with pytest.raises(UnsupportedOptionError):
            Checker(engine="naive", max_txns=5)       # SER-only budget
        assert Checker("ser", engine="naive", max_txns=5).check(
            serializable_history()
        ).ok
        with pytest.raises(UnsupportedOptionError):
            Checker(mode="online", compact=False)     # batch-only switch

    def test_wrong_input_kind(self):
        with pytest.raises(CheckerError) as exc:
            check(serializable_history(), mode="segmented", workers=1)
        assert "SegmentedRun" in str(exc.value)

    def test_duplicate_registration_rejected(self):
        spec = get_engine("polysi")
        with pytest.raises(CheckerError):
            register_engine(spec)

    def test_bad_registration_rejected(self):
        bad = EngineSpec(
            name="test-bad", summary="", combos=frozenset({("si", "warp")}),
            options=frozenset(), runner=lambda *a: None,
        )
        with pytest.raises(CheckerError):
            register_engine(bad)

    def test_registration_validates_input_kinds(self):
        with pytest.raises(CheckerError):
            register_engine(EngineSpec(
                name="test-bad-input", summary="",
                combos=frozenset({("si", "batch")}),
                options=frozenset(), runner=lambda *a: None,
                inputs={("si", "segmented"): "segmented_run"},  # not a combo
            ))
        with pytest.raises(CheckerError):
            register_engine(EngineSpec(
                name="test-bad-kind", summary="",
                combos=frozenset({("si", "batch")}),
                options=frozenset(), runner=lambda *a: None,
                inputs={("si", "batch"): "hologram"},
            ))


class TestCheckOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckOptions(workers=0)
        with pytest.raises(ValueError):
            CheckOptions(solve_every=0)

    def test_changed_tracks_non_defaults(self):
        assert CheckOptions().changed() == {}
        assert CheckOptions(prune=False).changed() == {"prune": False}

    def test_prebuilt_options_object(self):
        options = CheckOptions(prune=False)
        report = Checker(options=options).check(long_fork_history())
        assert not report.ok

    def test_options_and_kwargs_conflict(self):
        with pytest.raises(CheckerError):
            Checker(options=CheckOptions(), prune=False)

    def test_workers_shorthand_does_not_mutate_caller_options(self):
        options = CheckOptions()
        Checker("si", "parallel", workers=2, options=options)
        assert options.workers is None

    def test_workers_shorthand_is_validated(self):
        with pytest.raises(ValueError):
            Checker("si", "parallel", workers=0)


class TestRegistryExtension:
    def test_registering_a_new_engine_makes_it_callable(self):
        from repro.api.registry import _REGISTRY

        spec = EngineSpec(
            name="test-always-ok",
            summary="test stub",
            combos=frozenset({("si", "batch")}),
            options=frozenset(),
            runner=lambda subject, isolation, mode, options: True,
        )
        register_engine(spec)
        try:
            report = check(long_fork_history(), engine="test-always-ok")
            assert report.ok and report.decided_by == "oracle"
        finally:
            del _REGISTRY["test-always-ok"]


class TestAdaptResult:
    def test_adapt_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            adapt_result(object(), isolation="si", mode="batch",
                         engine="polysi")

    def test_engine_listing_is_stable(self):
        names = [spec.name for spec in list_engines()]
        assert names == ["polysi", "timestamp", "cobra", "cobrasi",
                         "dbcop", "naive"]
