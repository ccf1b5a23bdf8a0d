"""API-surface snapshot: the façade contract may not drift silently.

These snapshots are the public contract of ``repro.api``.  If a test
here fails, either the change was unintentional (fix the code) or it is
a deliberate API change — then update the snapshot *and* record the
change in CHANGES.md in the same commit, because downstream users key
off these names.
"""

import dataclasses

import repro
import repro.api as api

SNAPSHOT_POLICY = (
    "API surface drifted: update this snapshot AND describe the change "
    "in CHANGES.md"
)

#: Everything repro.api exports.
EXPECTED_API_EXPORTS = sorted([
    "Checker",
    "CheckOptions",
    "Report",
    "EngineSpec",
    "CheckerError",
    "UnknownEngineError",
    "UnsupportedComboError",
    "UnsupportedOptionError",
    "MissingTimestampsError",
    "ISOLATION_LEVELS",
    "MODES",
    "check",
    "adapt_result",
    "default_engine",
    "describe_engines",
    "engine_names",
    "get_engine",
    "list_engines",
    "register_engine",
    "supported_combos",
])

#: Registered engine names, in registration order.
EXPECTED_ENGINES = ["polysi", "timestamp", "cobra", "cobrasi", "dbcop",
                    "naive"]

#: Every registered (isolation, mode, engine) capability triple.
EXPECTED_COMBOS = sorted([
    ("si", "batch", "polysi"),
    ("si", "online", "polysi"),
    ("si", "parallel", "polysi"),
    ("si", "segmented", "polysi"),
    ("causal", "batch", "polysi"),
    ("ra", "batch", "polysi"),
    ("listappend", "batch", "polysi"),
    ("si", "batch", "timestamp"),
    ("ser", "batch", "cobra"),
    ("si", "batch", "cobrasi"),
    ("si", "batch", "dbcop"),
    ("ser", "batch", "dbcop"),
    ("si", "batch", "naive"),
    ("ser", "batch", "naive"),
])

#: Every independently settable CheckOptions field (16: `closure`,
#: `check_axioms_first` and `strategy` each had one value in use — read
#: classification is construction — `early_cancel` / `max_shards`
#: went with component shards, and `closure_backend` went when each
#: checker came to own its closure kernel; `workers` / `oversubscribe`
#: size the segment pool).
EXPECTED_OPTION_FIELDS = sorted([
    "prune", "compact", "initial_values",
    "workers", "oversubscribe",
    "solve_every", "max_live", "sessions",
    "state_dir", "resume", "checkpoint_every",
    "gpu", "max_states", "max_orders", "max_txns",
    "trace",
])

#: Public methods and properties of ``Report`` (besides its fields).
EXPECTED_REPORT_METHODS = sorted([
    "counterexample", "describe", "interpret", "to_dict", "to_json",
    "total_time", "verdict",
])

#: The façade names re-exported at top level.
EXPECTED_TOP_LEVEL_FACADE = ["CheckOptions", "Checker", "Report", "api",
                             "check"]


def test_api_exports_snapshot():
    assert sorted(api.__all__) == EXPECTED_API_EXPORTS, SNAPSHOT_POLICY


def test_check_options_fields_snapshot():
    assert sorted(api.CheckOptions.field_names()) == EXPECTED_OPTION_FIELDS, (
        SNAPSHOT_POLICY)


def test_report_methods_snapshot():
    fields = {f.name for f in dataclasses.fields(api.Report)}
    methods = sorted(name for name in vars(api.Report)
                     if not name.startswith("_") and name not in fields)
    assert methods == EXPECTED_REPORT_METHODS, SNAPSHOT_POLICY


def test_registered_engine_names_snapshot():
    assert api.engine_names() == EXPECTED_ENGINES, SNAPSHOT_POLICY


def test_registered_combos_snapshot():
    assert sorted(api.supported_combos()) == EXPECTED_COMBOS, SNAPSHOT_POLICY


def test_top_level_facade_exports():
    missing = [name for name in EXPECTED_TOP_LEVEL_FACADE
               if name not in repro.__all__]
    assert missing == [], SNAPSHOT_POLICY


def test_version_is_2x():
    assert repro.__version__.startswith("2."), (
        "the façade redesign shipped as 2.0.0; do not regress the major"
    )


def test_every_export_resolves():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_option_schemas_name_real_fields():
    """Every option an engine registers is a CheckOptions field, and
    every spec documents at least one supported combo."""
    fields = api.CheckOptions.field_names()
    for spec in api.list_engines():
        assert spec.combos, spec.name
        assert spec.options <= fields, spec.name
