"""The online checker's closures, call by call, against the build that
inserted every induced known pair one at a time.

``tests/data/online_closure_74d322a.json`` holds, for the trail tenants
of ``test_online_worklist.py`` fed both one event per ``add`` and in
64-event ``extend`` slices (the service daemon's batch), a short hash of
the known induced graph's closure rows (``_ki``) and of the window's Dep
closure rows (``_dep_reach``) after every call, and the closure counters
at the end.  The checker now installs an arriving transaction's
in-pairs with one ``insert_into`` per arrival: every row must still be
identical after every call, inserts must count the same by outcome, and
lookups may only be fewer.

Regenerate (only from the build the file is named after)::

    PYTHONPATH=src python tests/test_online_closure_trail.py OUT.json
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core.history import R, W
from repro.online import OnlineChecker

from _helpers import KERNELS, online_on_kernel
from test_online_worklist import (
    TENANTS,
    TRAIL_SEEDS,
    tenant_checker,
    tenant_events,
)

HERE = os.path.dirname(os.path.abspath(__file__))
PARENT_FILE = os.path.join(HERE, "data", "online_closure_74d322a.json")
SLICE = 64
FEEDS = ("add", "extend")


def rows_sha(closure):
    if closure is None:
        return None
    return hashlib.sha256(repr(closure.int_rows()).encode()).hexdigest()[:12]


def closure_trail(name, seed, feed):
    """Per call: the two closures' row hashes and the insert counters;
    then the final ``stats["closure"]``."""
    events, sessions = tenant_events(name, seed)
    checker = tenant_checker(name, sessions)
    if feed == "add":
        calls = [[event] for event in events]
    else:
        calls = [events[at:at + SLICE] for at in range(0, len(events), SLICE)]
    rows = []
    for batch in calls:
        result = checker.extend(batch)
        counters = checker._ki.counters()
        rows.append([rows_sha(checker._ki), rows_sha(checker._dep_reach),
                     counters["inserts_new"], counters["inserts_known"],
                     counters["inserts_cycle"]])
        if not result.satisfies_si:
            break
    final = checker.finish()
    return {"trail": rows, "verdict": final.satisfies_si,
            "closure": final.stats["closure"]}


def all_closure_trails():
    return {f"{name}/{seed}/{feed}": closure_trail(name, seed, feed)
            for name in TENANTS for seed in TRAIL_SEEDS for feed in FEEDS}


if os.path.exists(PARENT_FILE):
    with open(PARENT_FILE, encoding="utf-8") as _handle:
        PARENT = json.load(_handle)
else:  # only while regenerating
    PARENT = {}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("tenant", sorted(PARENT))
def test_closure_rows_and_counters_match_the_per_pair_build(
        tenant, kernel, monkeypatch):
    online_on_kernel(monkeypatch, kernel)
    name, seed, feed = tenant.split("/")
    got = closure_trail(name, int(seed), feed)
    want = PARENT[tenant]
    assert len(got["trail"]) == len(want["trail"])
    for call, (mine, theirs) in enumerate(zip(got["trail"], want["trail"])):
        assert mine == theirs, (tenant, call)
    assert got["verdict"] == want["verdict"]
    for outcome in ("inserts_new", "inserts_known", "inserts_cycle",
                    "compacts"):
        assert got["closure"][outcome] == want["closure"][outcome], outcome
    assert got["closure"]["queries"] <= want["closure"]["queries"]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_an_insert_mid_arrival_keeps_the_per_pair_counts(kernel,
                                                          monkeypatch):
    """T5 reads k from T1 and the overwritten k2=1 from T2, and writes j,
    whose initial value T4 read.  Its pairs in arrive as T3 (through
    T4's RW), init, T1, T2; its RW to T3 then inserts T1 -> T3.  Had
    that insert gone in before T1's pair into T5, T1 would already
    reach T5 through T3 and count KNOWN.  So everything waiting is
    installed first, and the counts are the per-pair build's (commit
    ``74d322a``: 8 new, 1 known)."""
    online_on_kernel(monkeypatch, kernel)
    checker = OnlineChecker()
    for session, ops in [(0, [W("k", 1)]), (1, [W("k2", 1)]),
                         (2, [R("k2", 1), W("k2", 2)]), (2, [R("j", None)]),
                         (3, [R("k", 1), R("k2", 1), W("j", 5)])]:
        assert checker.add(session, ops).satisfies_si
    counters = checker._ki.counters()
    assert (counters["inserts_new"], counters["inserts_known"]) == (8, 1)
    assert checker._ki.int_rows() == [56, 56, 56, 48, 0, 0]


def test_the_closure_trails_cover_both_feeds_and_a_violation():
    assert len(PARENT) == len(TENANTS) * len(TRAIL_SEEDS) * len(FEEDS)
    assert not all(entry["verdict"] for entry in PARENT.values())
    assert all(entry["closure"]["compacts"] for entry in PARENT.values())


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(all_closure_trails(), out, indent=1, sort_keys=True)
        out.write("\n")
