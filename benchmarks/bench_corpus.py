"""Section 5.2.1: reproducing the corpus of known SI anomalies.

The paper replays 2477 anomalous histories collected from CockroachDB,
MySQL-Galera, and YugabyteDB releases; PolySI flags every one.  Our
regenerated corpus (see ``repro.workloads.corpus``) covers the anomaly
classes those reports contain; this bench checks the full 2477-history
sweep detects 100% and reports the throughput.

It also gates the verdict record: on the façade path (``repro.check``
then ``Report.to_json``), serialising a report may cost at most
``MAX_SERIALISE_SHARE`` of the check that produced it.
"""

import os
import time

import pytest

import repro
from repro.bench.harness import measure, render_table
from repro.bench.results import BenchReport
from repro.core.checker import PolySIChecker
from repro.interpret import interpret_violation
from repro.workloads.corpus import ANOMALY_TEMPLATES, known_anomaly_corpus
from repro.workloads.generator import WorkloadParams, generate_history

# The class API, bound once.
_check_si = PolySIChecker().check

#: Full paper-scale corpus by default; scale down via the environment for
#: quick runs.
CORPUS_SIZE = int(os.environ.get("REPRO_CORPUS_SIZE", "2477"))


#: CI gate: seconds in ``Report.to_json`` over seconds in ``repro.check``.
MAX_SERIALISE_SHARE = 0.15

#: The gate's corpus, shaped like the end-to-end ``corpus`` workload:
#: 2477 of every 3000 histories are known anomalies padded to about 45
#: transactions, the rest valid 48-transaction histories.
GATE_PADDING_TXNS = 40
GATE_VALID = WorkloadParams(sessions=6, txns_per_session=8, ops_per_txn=4,
                            read_proportion=0.5, keys=200,
                            distribution="uniform")


def gate_histories(count: int):
    anomalies = round(count * 2477 / 3000)
    histories = [h for _, h in known_anomaly_corpus(
        anomalies, seed=2023, padding_txns=GATE_PADDING_TXNS)]
    histories += [generate_history(GATE_VALID, seed=i,
                                   isolation="snapshot").history
                  for i in range(count - anomalies)]
    return histories


def serialise_share(histories, rounds: int = 3):
    """``(check_s, to_json_s)`` summed over ``histories`` on the façade
    path, each the best of ``rounds`` passes."""
    best_check = best_json = float("inf")
    for _ in range(rounds):
        check_s = json_s = 0.0
        for history in histories:
            t0 = time.perf_counter()
            report = repro.check(history)
            t1 = time.perf_counter()
            report.to_json()
            json_s += time.perf_counter() - t1
            check_s += t1 - t0
        best_check = min(best_check, check_s)
        best_json = min(best_json, json_s)
    return best_check, best_json


def sweep_corpus(count: int):
    detected = 0
    by_class: dict = {}
    for name, history in known_anomaly_corpus(count, seed=2023):
        result = _check_si(history)
        stats = by_class.setdefault(name, [0, 0])
        stats[1] += 1
        if not result.satisfies_si:
            detected += 1
            stats[0] += 1
    return detected, by_class


def test_corpus_full_detection(benchmark):
    detected, by_class = benchmark.pedantic(
        sweep_corpus, args=(CORPUS_SIZE,), rounds=1, iterations=1
    )
    assert detected == CORPUS_SIZE, by_class
    benchmark.extra_info["histories"] = CORPUS_SIZE
    benchmark.extra_info["detected"] = detected


@pytest.mark.parametrize("name", sorted(ANOMALY_TEMPLATES))
def test_corpus_class_checks_fast(benchmark, name):
    """Per-class single-history check latency."""
    from repro.workloads.corpus import make_anomaly

    history = make_anomaly(name, seed=11, padding_txns=6)
    result = benchmark.pedantic(
        _check_si, args=(history,), rounds=3, iterations=1
    )
    assert not result.satisfies_si


def main():
    m = measure(sweep_corpus, CORPUS_SIZE)
    detected, by_class = m.result
    report = BenchReport("corpus", config={
        "corpus_size": CORPUS_SIZE, "classes": sorted(by_class),
    })
    report.add_point("polysi", CORPUS_SIZE, seconds=m.seconds,
                     peak_mb=m.peak_mb, axis="histories")
    report.count_verdict("violation", detected)
    report.count_verdict("si", CORPUS_SIZE - detected)
    report.note("detection_rate", detected / CORPUS_SIZE if CORPUS_SIZE else 1.0)
    report.note("histories_per_second",
                round(CORPUS_SIZE / m.seconds, 1) if m.seconds else None)
    check_s, json_s = serialise_share(gate_histories(CORPUS_SIZE))
    share = json_s / check_s if check_s else 0.0
    report.note("facade_check_s", round(check_s, 4))
    report.note("facade_to_json_s", round(json_s, 4))
    report.note("serialise_share", round(share, 4))
    rows = []
    for name in sorted(by_class):
        found, total = by_class[name]
        rows.append([name, total, found, "100%" if found == total else "MISS"])
    print(f"\nSection 5.2.1: known-anomaly corpus ({CORPUS_SIZE} histories)")
    print(render_table(["anomaly class", "histories", "detected", "rate"], rows))
    print(f"total detected: {detected}/{CORPUS_SIZE}")
    print(f"Report.to_json {json_s:.3f}s / repro.check {check_s:.3f}s = "
          f"{share:.3f} (gate {MAX_SERIALISE_SHARE})")
    print(f"results: {report.write()}")
    assert share <= MAX_SERIALISE_SHARE, (
        f"serialising reports costs {share:.2f}x the check "
        f"(gate {MAX_SERIALISE_SHARE}x)")


if __name__ == "__main__":
    main()
