"""Tests for the known-anomaly corpus (the Section 5.2.1 experiment)."""

import pytest

from repro.core.checker import PolySIChecker
from repro.interpret import interpret_violation
from repro.workloads.corpus import (
    ANOMALY_TEMPLATES,
    known_anomaly_corpus,
    make_anomaly,
)

EXPECTED_CLASS = {
    "lost-update": "lost update",
    "long-fork": "long fork",
    "causality-violation": "causality violation",
    "read-skew": "read skew (G-single)",
    "aborted-read": "aborted read",
    "intermediate-read": "intermediate read",
    "monotonic-read-violation": "causality violation",
}


class TestTemplates:
    @pytest.mark.parametrize("name", sorted(ANOMALY_TEMPLATES))
    def test_every_template_violates_si(self, name):
        for seed in range(3):
            history = make_anomaly(name, seed=seed)
            result = PolySIChecker().check(history)
            assert not result.satisfies_si, (name, seed)

    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASS))
    def test_classification_matches_template(self, name):
        history = make_anomaly(name, seed=1)
        result = PolySIChecker().check(history)
        example = interpret_violation(result)
        assert example.classification == EXPECTED_CLASS[name], name

    @pytest.mark.parametrize("name", sorted(ANOMALY_TEMPLATES))
    def test_padding_does_not_hide_anomalies(self, name):
        history = make_anomaly(name, seed=2, padding_txns=12)
        assert not PolySIChecker().check(history).satisfies_si

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError):
            make_anomaly("quantum-entanglement")

    def test_distinct_seeds_distinct_histories(self):
        a = make_anomaly("lost-update", seed=1)
        b = make_anomaly("lost-update", seed=2)
        ops_a = [op for t in a.transactions for op in t.ops]
        ops_b = [op for t in b.transactions for op in t.ops]
        assert ops_a != ops_b


class TestCorpusStream:
    def test_corpus_yields_requested_count(self):
        items = list(known_anomaly_corpus(30, seed=1))
        assert len(items) == 30

    def test_corpus_cycles_all_classes(self):
        names = {name for name, _h in known_anomaly_corpus(20, seed=1)}
        assert names == set(ANOMALY_TEMPLATES)

    def test_corpus_sample_fully_detected(self):
        """A slice of the 2477-anomaly reproduction (the full sweep runs in
        ``benchmarks/bench_gates.py corpus``)."""
        missed = [
            name
            for name, history in known_anomaly_corpus(90, seed=7)
            if PolySIChecker().check(history).satisfies_si
        ]
        assert missed == []
