"""Table 2 + Section 5.2.2: finding violations in "production databases".

The production systems are simulated by fault profiles of the MVCC store
(DESIGN.md, substitution 2); for each profile the bench runs seeded
workloads until PolySI reports a violation, then classifies it with the
interpretation algorithm.  The reproduced claims:

- violations are found in every profiled system,
- the MariaDB-Galera analog exhibits *lost update* (Figure 5),
- the Dgraph / YugabyteDB analogs exhibit *causality violations*
  (Figures 12/13).
"""

import pytest

from repro.bench.harness import measure, render_table
from repro.bench.results import BenchReport
from repro.core.checker import PolySIChecker
from repro.interpret import interpret_violation
from repro.storage.faults import DATABASE_PROFILES
from repro.workloads.generator import WorkloadParams, generate_history

# The class API, bound once.
_check_si = PolySIChecker().check

PARAMS = WorkloadParams(
    sessions=6, txns_per_session=10, ops_per_txn=5, keys=8,
    distribution="uniform",
)
MAX_SEEDS = 40


def find_violation(profile_name: str):
    """Run seeded workloads against the profile until a violation appears;
    returns (seeds_used, CheckResult) or (MAX_SEEDS, None)."""
    faults = DATABASE_PROFILES[profile_name]["faults"]
    for seed in range(MAX_SEEDS):
        run = generate_history(PARAMS, seed=seed, faults=faults)
        result = _check_si(run.history)
        if not result.satisfies_si:
            return seed + 1, result
    return MAX_SEEDS, None


@pytest.mark.parametrize("profile", sorted(DATABASE_PROFILES))
def test_table2_violation_found(benchmark, profile):
    seeds, result = benchmark.pedantic(
        find_violation, args=(profile,), rounds=1, iterations=1
    )
    assert result is not None, f"no violation found for {profile}"
    example = interpret_violation(result)
    benchmark.extra_info["runs_until_violation"] = seeds
    benchmark.extra_info["anomaly"] = example.classification


def test_galera_analog_shows_lost_update():
    """The Figure 5 finding, reproduced end to end."""
    classifications = set()
    faults = DATABASE_PROFILES["mariadb-galera-sim"]["faults"]
    for seed in range(MAX_SEEDS):
        run = generate_history(PARAMS, seed=seed, faults=faults)
        result = _check_si(run.history)
        if not result.satisfies_si:
            classifications.add(interpret_violation(result).classification)
            if "lost update" in classifications:
                return
    raise AssertionError(f"lost update never classified: {classifications}")


def main():
    report = BenchReport("table2", config={
        "profiles": sorted(DATABASE_PROFILES), "max_seeds": MAX_SEEDS,
    })
    rows = []
    for profile in sorted(DATABASE_PROFILES):
        info = DATABASE_PROFILES[profile]
        m = measure(find_violation, profile)
        seeds, result = m.result
        report.add_point("find_violation", profile, seconds=m.seconds,
                         peak_mb=m.peak_mb, axis="profile")
        if result is None:
            rows.append([profile, info["kind"], info["release"], "none", "-"])
            report.count_verdict("none_found")
            continue
        example = interpret_violation(result)
        report.count_verdict("violation")
        report.note(f"anomaly_{profile}", example.classification)
        report.note(f"runs_until_violation_{profile}", seeds)
        rows.append([
            profile,
            info["kind"],
            info["release"],
            example.classification,
            f"{seeds} run(s)",
        ])
    print("\nTable 2: simulated databases and the violations PolySI found")
    print(render_table(
        ["database (simulated)", "kind", "release", "violation found", "after"],
        rows,
    ))
    print(f"results: {report.write()}")


if __name__ == "__main__":
    main()
