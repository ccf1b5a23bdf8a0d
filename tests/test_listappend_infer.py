"""List-append inference indexes each key's appenders and observers once.

:func:`rescan_polygraph` is the reference: it scans every appender and
every transaction once per key.  On generated list histories, clean and
faulty, and on Elle histories, ``build_list_polygraph`` must emit the
same known edges in the same order, the same constraints in the same
order and the same ``readers_from``.
"""

import pytest

from repro.core.polygraph import (
    Constraint,
    GeneralizedPolygraph,
    RW,
    SO,
    WR,
    WW,
)
from repro.listappend import (
    ListAppendChecker,
    build_list_polygraph,
    generate_list_history,
)
from repro.listappend.elle import parse_elle_history
from repro.storage.faults import FaultConfig
from repro.workloads.generator import WorkloadParams


def rescan_polygraph(history, register, init_vertex, num_vertices):
    """The polygraph of a history without axiom violations, built key by
    key with a scan of every appender and every transaction per key."""
    appender = {}
    longest = {}
    for txn in history.transactions:
        if not txn.committed:
            continue
        for key, values in txn.appends.items():
            for value in values:
                appender[(key, value)] = txn
        for key, observed in txn.external_reads.items():
            if len(observed) > len(longest.get(key, ())):
                longest[key] = tuple(observed)
    graph = GeneralizedPolygraph(register, num_vertices, init_vertex)
    for a, b in history.session_order_pairs():
        graph.add_known((a.tid, b.tid, SO, None))
    for key in {k for (k, _v) in appender}:
        chain = longest.get(key, ())
        chain_txns = []
        observed_values = set(chain)
        for value in chain:
            tid = appender[(key, value)].tid
            if not chain_txns or chain_txns[-1] != tid:
                chain_txns.append(tid)
        unobserved = sorted(
            {
                txn.tid
                for (k, value), txn in appender.items()
                if k == key and value not in observed_values
                and txn.tid not in chain_txns
            }
        )
        prev_vertex = init_vertex
        for tid in chain_txns:
            if prev_vertex is not None:
                graph.add_known((prev_vertex, tid, WW, key))
            prev_vertex = tid
        for tid in unobserved:
            if prev_vertex is not None:
                graph.add_known((prev_vertex, tid, WW, key))
            elif init_vertex is not None:
                graph.add_known((init_vertex, tid, WW, key))
        for i in range(len(unobserved)):
            for j in range(i + 1, len(unobserved)):
                graph.constraints.append(
                    Constraint(key, unobserved[i], unobserved[j]))
        for txn in history.transactions:
            if not txn.committed or key not in txn.external_reads:
                continue
            observed = txn.external_reads[key]
            if observed:
                tail_writer = appender[(key, observed[-1])].tid
                position = chain_txns.index(tail_writer)
            else:
                tail_writer = init_vertex
                position = -1
            if tail_writer != txn.tid:
                graph.add_known((tail_writer, txn.tid, WR, key))
                graph.readers_from.setdefault((tail_writer, key), []).append(
                    txn.tid)
            for later in chain_txns[position + 1:] + unobserved:
                if later != txn.tid:
                    graph.add_known((txn.tid, later, RW, key))
    return graph


def assert_matches_rescan(history):
    graph, violations, register = build_list_polygraph(history)
    if violations:
        assert graph.known_edges == [] and graph.constraints == []
        return False
    want = rescan_polygraph(history, register, graph.init_vertex,
                            graph.num_vertices)
    assert graph.known_edges == want.known_edges
    assert ([(c.key, c.pair) for c in graph.constraints]
            == [(c.key, c.pair) for c in want.constraints])
    assert list(graph.readers_from.items()) == list(
        want.readers_from.items())
    return True


PARAMS = WorkloadParams(sessions=5, txns_per_session=12, ops_per_txn=4,
                        keys=6, distribution="uniform")


@pytest.mark.parametrize("seed", range(4))
def test_generated_histories_match_the_rescan(seed):
    assert assert_matches_rescan(generate_list_history(PARAMS, seed=seed))


@pytest.mark.parametrize("faults", [
    FaultConfig(stale_snapshot_prob=0.3),
    FaultConfig(no_first_committer_wins=True),
], ids=["stale-snapshots", "lost-appends"])
def test_faulty_histories_match_the_rescan(faults):
    built = violated = 0
    for seed in range(5):
        history = generate_list_history(PARAMS, seed=seed, faults=faults)
        if assert_matches_rescan(history):
            built += 1
            violated += not ListAppendChecker().check(history).satisfies_si
    # Stale snapshots leave cycles the polygraph must carry; lost
    # appends already break a list prefix, so no polygraph is built.
    assert (violated > 0) if faults.stale_snapshot_prob else (built == 0)


ELLE_HISTORIES = [
    # tests/test_elle.py's sample: two observed appends, a failed one
    # and an indeterminate one.
    """
    {:type :ok,   :f :txn, :process 0, :value [[:append 5 1]]}
    {:type :ok,   :f :txn, :process 1, :value [[:append 5 2] [:r 5 [1 2]]]}
    {:type :ok,   :f :txn, :process 2, :value [[:r 5 [1]]]}
    {:type :fail, :f :txn, :process 2, :value [[:append 5 9]]}
    {:type :info, :f :txn, :process 3, :value [[:append 5 8]]}
    """,
    # A lost append: both writers read the empty list.
    """
    {:type :ok, :process 0, :value [[:r 7 nil] [:append 7 1]]}
    {:type :ok, :process 1, :value [[:r 7 nil] [:append 7 2]]}
    {:type :ok, :process 2, :value [[:r 7 [1 2]]]}
    """,
    # Unobserved appends on two keys leave constraints.
    """
    {:type :ok, :process 0, :value [[:append 1 1] [:append 2 1]]}
    {:type :ok, :process 1, :value [[:append 1 2] [:r 2 [1]]]}
    {:type :ok, :process 2, :value [[:append 1 3] [:append 2 2]]}
    {:type :ok, :process 3, :value [[:r 1 nil] [:r 2 nil]]}
    """,
]


@pytest.mark.parametrize("text", ELLE_HISTORIES)
def test_elle_histories_match_the_rescan(text):
    assert assert_matches_rescan(parse_elle_history(text))
