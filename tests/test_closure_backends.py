"""Cross-kernel differential suite for the closure contract.

Batch pruning runs the int-bitset kernel and the online checker the
numpy one (DESIGN.md S10).  That both are the same closure is not a
proof — it is this file: both
:class:`~repro.utils.closure.ClosureBackend` kernels replay *identical*
operation scripts and must produce *identical observables* at every
step.  Three layers:

1. **Differential fuzz** — ~200 seeded random scripts (DAG-biased and
   cyclic, constructor-seeded and ``from_rows``-seeded) interleaving
   ``add_vertex`` / ``insert`` / ``insert_into`` / ``compact`` with the
   full query surface, replayed in lockstep against the numpy kernel
   with the python reference as the oracle.  ``int_rows`` / ``co_rows`` must be
   byte-identical integers, ``insert`` must return the same tri-state,
   queries the same answers, ``co_materialized`` the same laziness.
2. **Property-based invariants** — each kernel checked against the
   *abstract* contract, independent of any reference implementation:
   transitivity of the closure, idempotence of known inserts,
   ``reaches_any`` / ``successors`` consistency, and compaction
   preserving reachability among survivors.
3. **Each checker owns its kernel** — batch, segmented and the
   timestamp engine's fallback report ``python``, online checking
   ``numpy`` (service tenants: ``test_service.py``); nothing selects a
   kernel any more.
"""

import pathlib
import random

import pytest

import repro
from repro.api import UnsupportedOptionError
from repro.cli import main
from repro.core.polygraph import RW, build_polygraph
from repro.core.pruning import prune_constraints
from repro.histories.codec import dump_history
from repro.timestamp import map_timestamps, stamp_serial
from repro.utils.closure import CYCLE, KNOWN, NEW, PyBitsetClosure
from repro.utils.reachability import transitive_closure_bits
from repro.workloads.corpus import ANOMALY_TEMPLATES, make_anomaly
from repro.workloads.generator import WorkloadParams, generate_history

from _helpers import (
    KERNELS,
    prune_constraints_recompute,
    serializable_history,
)

BACKENDS = list(KERNELS)
OTHER_BACKENDS = [b for b in BACKENDS if b != "python"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return KERNELS[request.param]


def bits_of(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


# ---------------------------------------------------------------------------
# 1. Differential fuzz: identical scripts, identical observables.
# ---------------------------------------------------------------------------


def random_script(rng, *, cyclic: bool, seed_from_rows: bool):
    """One operation script: ``(op, args)`` tuples.  ``insert`` targets
    are forward-only (u < v) in DAG mode so cycles never form; cyclic
    mode draws unrestricted pairs."""
    n0 = rng.randrange(1, 10)
    script = [("init", n0, seed_from_rows)]
    for _ in range(rng.randrange(10, 40)):
        roll = rng.random()
        if roll < 0.08:
            script.append(("add_vertex",))
        elif roll < 0.47:
            script.append(("insert", rng.random(), rng.random(), cyclic))
        elif roll < 0.55:
            script.append(("insert_into", rng.random(),
                           [rng.random() for _ in range(rng.randrange(6))],
                           cyclic))
        elif roll < 0.62:
            script.append(("compact", rng.random()))
        else:
            script.append(("query", rng.random(), rng.random()))
    return script


class Replayer:
    """Drives one backend through a script, returning an observable per
    step — the differential harness compares these across backends."""

    def __init__(self, backend_cls, rng_seed):
        self.cls = backend_cls
        self.rng = random.Random(rng_seed)
        self.closure = None

    def step(self, op):
        kind = op[0]
        if kind == "init":
            _, n0, seed_from_rows = op
            if seed_from_rows:
                edges = [(u, v) for u in range(n0) for v in range(u + 1, n0)
                         if self.rng.random() < 0.3]
                adj = [set() for _ in range(n0)]
                for u, v in edges:
                    adj[u].add(v)
                rows = transitive_closure_bits(n0, adj).rows
                self.closure = self.cls.from_rows(rows)
            else:
                self.closure = self.cls(n0)
            return ("init", self.closure.int_rows())
        c = self.closure
        n = c.num_vertices
        if kind == "add_vertex":
            return ("add_vertex", c.add_vertex())
        if kind == "insert":
            _, r1, r2, cyclic = op
            if n == 0:
                return ("insert", None)
            u = int(r1 * n)
            v = int(r2 * n)
            if not cyclic and u >= v:
                if u == v:
                    return ("insert", None)
                u, v = v, u
            return ("insert", c.insert(u, v), c.co_materialized)
        if kind == "insert_into":
            # Whenever some vertex reaches nothing, it may take a batch
            # of in-pairs at once (in DAG mode only from lower ids).
            _, r, draws, cyclic = op
            sinks = [x for x, row in enumerate(c.int_rows()) if not row]
            if not sinks:
                return ("insert_into", None)
            v = sinks[int(r * len(sinks))]
            sources = [int(d * n) for d in draws]
            if not cyclic:
                sources = [u for u in sources if u < v]
            return ("insert_into", c.insert_into(v, sources),
                    c.co_materialized)
        if kind == "compact":
            _, r = op
            live = [v for v in range(n)
                    if self.rng.random() < 0.3 + 0.6 * r]
            mapping = c.compact(live)
            return ("compact", mapping, c.int_rows(), c.co_materialized)
        # query: the full read surface at one (u, v) pair.
        _, r1, r2 = op
        if n == 0:
            return ("query", None)
        u = int(r1 * n)
        v = int(r2 * n)
        mask = (1 << v) | (1 << (n - 1 - v))
        return (
            "query",
            c.has(u, v),
            c.has_edge(u, v),
            c.reaches_any(u, mask),
            c.row(u),
            c.has_cycle(),
            sorted(c.successors(u)),
            sorted(c.successors_direct(u)),
            c.int_rows(),
            c.co_rows,
            c.counters(),
        )


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("seed_from_rows", [False, True])
@pytest.mark.parametrize("block", range(5))
def test_differential_fuzz(cyclic, seed_from_rows, block):
    """~200 scripts x the numpy kernel vs the python reference,
    observable by observable.  (5 blocks x 10 seeds x 4 script shapes.)"""
    for seed in range(block * 10, block * 10 + 10):
        rng = random.Random((seed, cyclic, seed_from_rows).__hash__())
        script = random_script(rng, cyclic=cyclic,
                               seed_from_rows=seed_from_rows)
        ref = Replayer(PyBitsetClosure, rng_seed=seed)
        others = [(name, Replayer(KERNELS[name], seed))
                  for name in OTHER_BACKENDS]
        for step_no, op in enumerate(script):
            want = ref.step(op)
            for name, replayer in others:
                got = replayer.step(op)
                assert got == want, (name, seed, step_no, op)


def sequential_pair(backend_cls, seed, from_rows):
    """Two identical closures over a random graph, constructor-seeded or
    ``from_rows``-seeded (backward rows lazy), with a fresh vertex."""
    out = []
    for _ in range(2):
        rng = random.Random(seed)
        n = rng.randrange(2, 90)
        c = build_random(PyBitsetClosure if from_rows else backend_cls,
                         rng, n, rng.randrange(3 * n), dag=rng.random() < 0.5)
        if from_rows:
            c = backend_cls.from_rows(c.int_rows())
        c.add_vertex()
        out.append(c)
    return out, rng


@pytest.mark.parametrize("from_rows", [False, True])
def test_insert_into_is_sequential_insert(backend, from_rows):
    """``insert_into(v, sources)`` into a vertex that reaches nothing ends
    exactly as ``insert(u, v)`` for each source in order: outcomes,
    rows, backward rows and their laziness, direct edges, counters."""
    for seed in range(60):
        (batched, stepped), rng = sequential_pair(backend, seed, from_rows)
        n = batched.num_vertices
        sinks = [x for x, row in enumerate(batched.int_rows()) if not row]
        v = rng.choice(sinks)
        sources = [rng.randrange(n) for _ in range(rng.randrange(12))]
        if rng.random() < 0.3:
            sources.append(v)                 # a self-loop is a cycle
        assert batched.insert_into(v, sources) == [
            stepped.insert(u, v) for u in sources], seed
        assert batched.co_materialized == stepped.co_materialized
        assert batched.counters() == stepped.counters()
        assert batched.int_rows() == stepped.int_rows(), seed
        assert batched.co_rows == stepped.co_rows, seed
        for u in range(n):
            assert (list(batched.successors_direct(u))
                    == list(stepped.successors_direct(u))), (seed, u)


def test_insert_into_needs_a_sink(backend):
    c = backend(3)
    c.insert(1, 2)
    with pytest.raises(ValueError):
        c.insert_into(1, [0])
    assert c.insert_into(2, []) == []
    assert c.insert_into(2, [0, 1, 0]) == [NEW, KNOWN, KNOWN]
    assert c.counters()["inserts_known"] == 2


def test_differential_rows_after_dense_inserts():
    """Dense eager construction: every backend's final rows and co_rows
    must be byte-identical ints, and match the batch closure."""
    rng = random.Random(99)
    n = 40
    edges = sorted({(rng.randrange(n), rng.randrange(n))
                    for _ in range(300)})
    adj = [set() for _ in range(n)]
    closures = {name: KERNELS[name](n) for name in BACKENDS}
    for u, v in edges:
        adj[u].add(v)
        returns = {name: c.insert(u, v) for name, c in closures.items()}
        assert len(set(returns.values())) == 1, (u, v, returns)
    want = transitive_closure_bits(n, adj).rows
    # Strict closure: drop self-bits the cyclic members gained... they
    # are *kept* by the kernel; the batch closure keeps them too for
    # SCC members, so rows agree exactly.
    for name, c in closures.items():
        assert c.int_rows() == want, name
        assert c.co_rows == closures["python"].co_rows, name


# ---------------------------------------------------------------------------
# 2. Property-based invariants against the abstract contract.
# ---------------------------------------------------------------------------


def build_random(backend_cls, rng, n, m, *, dag=False):
    c = backend_cls(n)
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if dag:
            if u == v:
                continue
            if u > v:
                u, v = v, u
        c.insert(u, v)
    return c


class TestContractInvariants:
    def test_transitivity(self, backend):
        rng = random.Random(5)
        c = build_random(backend, rng, 18, 45)
        rows = c.int_rows()
        for u in range(18):
            for v in bits_of(rows[u]):
                # Everything v reaches, u reaches through v.
                assert rows[v] & ~rows[u] == 0, (u, v)

    def test_insert_idempotent_once_known(self, backend):
        rng = random.Random(6)
        c = build_random(backend, rng, 14, 30)
        rows, co = c.int_rows(), c.co_rows
        for u in range(14):
            for v in bits_of(rows[u]):
                if u == v:
                    continue
                assert c.insert(u, v) in (KNOWN, CYCLE)
        assert c.int_rows() == rows
        assert c.co_rows == co

    def test_insert_tristate_meaning(self, backend):
        c = backend(3)
        assert c.insert(0, 1) == NEW
        assert c.insert(1, 2) == NEW
        assert c.insert(0, 2) == KNOWN   # already implied
        assert c.insert(2, 0) == CYCLE   # closes the loop
        assert c.insert(0, 0) == CYCLE   # self-loop
        for u in range(3):
            for v in range(3):
                assert c.has(u, v)       # one big SCC

    def test_a_cycle_outranks_an_implied_edge(self, backend):
        """``insert`` asks whether the edge closes a cycle before whether
        ``u`` already reaches ``v``: on a cyclic closure an implied edge
        that closes a cycle is CYCLE, and counted as one."""
        built = backend(3)
        assert built.insert(0, 1) == NEW
        assert built.insert(1, 0) == CYCLE
        assert built.insert(1, 2) == NEW
        rows = built.int_rows()
        for c in (built, backend.from_rows(rows)):
            before = c.counters()
            assert c.insert(0, 1) == CYCLE     # implied, and closes 0-1-0
            assert c.insert(1, 1) == CYCLE
            assert c.insert(0, 2) == KNOWN     # implied, no way back
            assert c.int_rows() == rows
            after = c.counters()
            assert after["inserts_cycle"] - before["inserts_cycle"] == 2
            assert after["inserts_known"] - before["inserts_known"] == 1

    def test_reaches_any_matches_successors(self, backend):
        rng = random.Random(7)
        c = build_random(backend, rng, 16, 40)
        for u in range(16):
            succ = set(c.successors(u))
            assert succ == set(bits_of(c.int_rows()[u]))
            for probe in range(8):
                mask = rng.getrandbits(16)
                assert c.reaches_any(u, mask) == bool(
                    succ & set(bits_of(mask))
                ), (u, mask)

    def test_successors_direct_subset_of_closure(self, backend):
        rng = random.Random(8)
        c = build_random(backend, rng, 16, 40, dag=True)
        for u in range(16):
            assert set(c.successors_direct(u)) <= set(c.successors(u))
            for v in c.successors_direct(u):
                assert c.has_edge(u, v)

    def test_compact_preserves_live_reachability(self, backend):
        rng = random.Random(9)
        for trial in range(10):
            c = build_random(backend, rng, 15, 35)
            before = c.int_rows()
            live = sorted(rng.sample(range(15), rng.randrange(1, 15)))
            mapping = c.compact(live)
            for old_u in live:
                for old_v in live:
                    want = bool(before[old_u] >> old_v & 1)
                    got = c.has(mapping[old_u], mapping[old_v])
                    assert got == want, (trial, old_u, old_v)

    def test_out_of_range_queries(self, backend):
        c = backend(2)
        c.insert(0, 1)
        for fn in (c.has, c.has_edge):
            with pytest.raises(IndexError):
                fn(2, 0)
            assert fn(0, 99) is False
        with pytest.raises(IndexError):
            c.reaches_any(2, 1)
        with pytest.raises(IndexError):
            c.row(2)
        with pytest.raises(IndexError):
            c.insert(0, 2)

    def test_row_is_the_int_row(self, backend):
        """``row(u)`` is ``int_rows()[u]`` — a plain int whichever
        backend holds it — and answers ``has``/``reaches_any`` by
        arithmetic, through growth and compaction."""
        rng = random.Random(11)
        c = build_random(backend, rng, 70, 160)   # two uint64 words
        c.add_vertex()
        c.insert(3, 70)
        for round_no in range(2):
            rows = c.int_rows()
            for u in range(c.num_vertices):
                row = c.row(u)
                assert type(row) is int and row == rows[u]
                for v in range(c.num_vertices):
                    assert bool(row >> v & 1) == c.has(u, v)
            c.compact(sorted(rng.sample(range(c.num_vertices), 40)))

    def test_lookups_count_once_each(self, backend):
        """``queries`` counts closure lookups issued — ``has``,
        ``reaches_any``, ``row`` — not what the caller derives from
        them, identically on every backend."""
        c = backend(4)
        c.insert(0, 1)
        c.has(0, 1)
        c.reaches_any(0, 0b1110)
        assert c.counters()["queries"] == 2
        row = c.row(0)
        assert row >> 1 & 1 and not row & 0b1100    # free: no lookups
        assert c.counters()["queries"] == 3
        c.has_cycle()
        c.int_rows()
        assert c.counters()["queries"] == 3

    def test_has_cycle_reads_the_diagonal(self, backend):
        c = backend(130)                              # three uint64 words
        for u in range(129):
            c.insert(u, u + 1)
        assert not c.has_cycle()
        assert c.insert(129, 64) == CYCLE
        assert c.has_cycle()
        assert [u for u in range(130) if c.has(u, u)] == list(range(64, 130))
        # Evicting the cycle's members leaves an acyclic closure.
        c.compact(range(64))
        assert not c.has_cycle()
        assert not backend(0).has_cycle()
        assert not backend.from_rows([0b10, 0b00]).has_cycle()   # 0 -> 1
        assert backend.from_rows([0b01]).has_cycle()             # 0 -> 0

    def test_int_rows_is_the_portable_serialization(self, backend):
        rng = random.Random(10)
        c = build_random(backend, rng, 12, 25)
        reseeded = PyBitsetClosure.from_rows(c.int_rows())
        assert reseeded.int_rows() == c.int_rows()
        assert reseeded.co_rows == c.co_rows


# ---------------------------------------------------------------------------
# 3. Each checker owns its kernel.
# ---------------------------------------------------------------------------


def assert_witness_valid(cycle):
    """A witness must be a closed cycle with no adjacent RW edges."""
    assert cycle
    for edge, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert edge[1] == nxt[0], cycle
    labels = [e[2] for e in cycle]
    for a, b in zip(labels, labels[1:] + labels[:1]):
        assert not (a == RW and b == RW), cycle


def small_history(seed=2):
    params = WorkloadParams(sessions=4, txns_per_session=15,
                            ops_per_txn=5, keys=50)
    return generate_history(params, seed=seed).history


class TestEndToEndParity:
    @pytest.mark.parametrize("name", sorted(ANOMALY_TEMPLATES))
    def test_anomaly_corpus_batch(self, name):
        for seed in (0, 3):
            history = make_anomaly(name, seed=seed, padding_txns=5)
            report = repro.check(history)
            assert not report.ok, name
            assert report.stats["closure_backend"] == "python"
            if report.cycle:
                assert_witness_valid(report.cycle)

    def test_valid_workload_all_modes(self):
        history = small_history()
        for mode, kernel in (("batch", "python"), ("online", "numpy")):
            report = repro.check(history, mode=mode)
            assert report.ok, mode
            assert report.stats["closure_backend"] == kernel

    def test_online_anomaly_parity(self):
        history = make_anomaly("lost-update", seed=1, padding_txns=4)
        report = repro.check(history, mode="online")
        assert not report.ok
        assert report.stats["closure_backend"] == "numpy"
        assert repro.check(history).ok == report.ok

    def test_prune_counters_identical(self):
        """The incremental fixpoint on the python kernel and the
        recompute-per-iteration reference agree counter for counter."""
        for name in ("long-fork", "lost-update", "read-skew"):
            history = make_anomaly(name, seed=5, padding_txns=8)
            graph, violations = build_polygraph(history)
            if violations:
                continue
            reference, _ = build_polygraph(history)
            assert (prune_constraints(graph).as_dict()
                    == prune_constraints_recompute(reference).as_dict())


class TestEachCheckerOwnsItsKernel:
    def test_batch_reports_python(self):
        assert repro.check(small_history(4)).stats[
            "closure_backend"] == "python"

    def test_segmented_reports_python(self):
        from repro.extensions.segmented import run_segmented_workload
        from repro.storage.database import MVCCDatabase
        from repro.workloads.generator import generate_workload

        spec = generate_workload(
            WorkloadParams(sessions=3, txns_per_session=6, ops_per_txn=4,
                           keys=8), seed=1)
        run = run_segmented_workload(MVCCDatabase(seed=1), spec,
                                     snapshot_every=6, seed=1)
        report = repro.check(run, mode="segmented")
        assert report.stats["closure_backend"] == "python"

    def test_timestamp_fallback_reports_python(self):
        stamped = stamp_serial(serializable_history())
        victim = next(t for t in stamped.transactions if t.committed).tid
        partial = map_timestamps(
            stamped,
            lambda t: None if t.tid == victim
            else (t.start_ts, t.commit_ts) if t.timestamped else None,
        )
        report = repro.check(partial, engine="timestamp")
        assert report.decided_by == "fallback"
        assert report.stats["closure_backend"] == "python"

    def test_online_reports_numpy(self):
        report = repro.check(small_history(4), mode="online")
        assert report.stats["closure_backend"] == "numpy"

    def test_facade_rejects_the_option(self):
        with pytest.raises(UnsupportedOptionError, match="closure_backend"):
            repro.check(small_history(4), closure_backend="numpy")

    def test_cli_rejects_the_flag(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump_history(serializable_history(), str(path))
        with pytest.raises(SystemExit) as exited:
            main(["check", str(path), "--closure-backend", "numpy"])
        assert exited.value.code == 2
        assert "--closure-backend" in capsys.readouterr().err

    def test_no_source_reads_the_environment_variable(self):
        src = pathlib.Path(repro.__file__).parent
        readers = [str(path.relative_to(src)) for path in src.rglob("*.py")
                   if "REPRO_CLOSURE_BACKEND" in path.read_text()]
        assert readers == []
