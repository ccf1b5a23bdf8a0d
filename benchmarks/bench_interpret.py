"""Interpretation-algorithm cost (Section 5.3).

The paper's interpretation pass is a 300-line post-processing step whose
cost is negligible next to checking; this bench confirms that and records
per-anomaly-class latencies for the counterexample pipeline
(restore -> resolve -> finalize -> classify -> DOT).
"""

import pytest

from repro.core.checker import PolySIChecker
from repro.interpret import interpret_violation
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly

# The class API, bound once.
_check_si = PolySIChecker().check

CYCLIC_CLASSES = [
    name for name in sorted(ANOMALY_TEMPLATES)
    if name not in ("aborted-read", "intermediate-read")
]


@pytest.mark.parametrize("name", CYCLIC_CLASSES)
def test_interpret_latency(benchmark, name):
    history = make_anomaly(name, seed=5, padding_txns=10)
    result = _check_si(history)
    assert not result.satisfies_si

    def run():
        example = interpret_violation(result)
        example.to_dot()
        return example

    example = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["classification"] = example.classification


def test_interpretation_cheaper_than_checking(benchmark):
    from repro.bench.harness import measure

    history = make_anomaly("long-fork", seed=6, padding_txns=20)
    check_time = measure(_check_si, history)
    result = check_time.result
    interpret_time = measure(interpret_violation, result)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["check_s"] = round(check_time.seconds, 4)
    benchmark.extra_info["interpret_s"] = round(interpret_time.seconds, 4)
    assert interpret_time.seconds < max(0.5, check_time.seconds * 20)


def main():
    from repro.bench.harness import measure, render_table
    from repro.bench.results import BenchReport

    report = BenchReport("interpret", config={"classes": CYCLIC_CLASSES})
    rows = []
    for name in CYCLIC_CLASSES:
        history = make_anomaly(name, seed=5, padding_txns=10)
        check_m = measure(_check_si, history)
        result = check_m.result
        assert not result.satisfies_si
        report.count_verdict("violation")
        interpret_m = measure(
            lambda: interpret_violation(result).to_dot()
        )
        report.add_point("check", name, seconds=check_m.seconds,
                         peak_mb=check_m.peak_mb, axis="anomaly_class")
        report.add_point("interpret+dot", name, seconds=interpret_m.seconds,
                         peak_mb=interpret_m.peak_mb, axis="anomaly_class")
        rows.append([name, f"{check_m.seconds:.4f}",
                     f"{interpret_m.seconds:.4f}"])
    print("\nInterpretation cost next to checking (seconds)")
    print(render_table(["anomaly class", "check", "interpret+dot"], rows))
    print(f"results: {report.write()}")


if __name__ == "__main__":
    main()
