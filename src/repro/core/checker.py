"""The PolySI checking pipeline (paper Section 4, Algorithm 1).

``CheckSI(H)``:

1. axioms — reject histories failing Int / AbortedReads /
   IntermediateReads (plus unjustified and future reads found while
   matching reads to writers);
2. construct — build the generalized polygraph;
3. prune — resolve constraints whose branches would close undesired
   cycles (optional, on by default);
4. encode — SAT-encode the induced SI graph;
5. solve — MonoSAT-style acyclicity solving.

The result records the verdict, any anomalies, a concrete witness cycle
on violation, and per-stage wall-clock timings plus structural statistics
(used by the Figure 9 / Table 3 / Figure 10 experiments).
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..obs import get_logger, trace_span
from ..utils.closure import resolve_closure_backend
from ..utils.reachability import is_acyclic
from .axioms import AxiomViolation, check_axioms
from .encoding import SIEncoding, encode_polygraph, graph_constraints
from .history import History
from .known import KnownGraph
from .polygraph import Edge, GeneralizedPolygraph, build_polygraph
from .pruning import PruneResult, find_known_cycle, prune_constraints

__all__ = [
    "CheckResult",
    "PolySIChecker",
    "check_snapshot_isolation",
    "static_induced_cycle",
]

log = get_logger("core.checker")

class CheckResult:
    """Verdict and evidence for one history."""

    def __init__(self) -> None:
        self.satisfies_si: bool = True
        #: Non-cyclic anomalies (axiom violations), if any.
        self.anomalies: List[AxiomViolation] = []
        #: A concrete undesired cycle (typed edges) on violation, or None.
        self.cycle: Optional[List[Edge]] = None
        #: Which stage decided: axioms | pruning | solving | trivial.
        self.decided_by: str = "trivial"
        #: The polygraph *before* pruning (input to interpretation).
        self.polygraph: Optional[GeneralizedPolygraph] = None
        self.prune_result: Optional[PruneResult] = None
        self.encoding: Optional[SIEncoding] = None
        #: Stage timings in seconds: construct / prune / encode / solve.
        self.timings: dict = {}
        self.solver_stats: dict = {}
        #: Structural counters: component decomposition, solver-skip fast
        #: path, and (for parallel checking) shard/worker accounting.
        self.stats: dict = {}

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        if self.satisfies_si:
            return "history satisfies snapshot isolation"
        if self.anomalies:
            lines = [f"history violates SI ({self.decided_by}):"]
            lines += [f"  - {a!r}" for a in self.anomalies]
            return "\n".join(lines)
        names = self.polygraph.vertex_name if self.polygraph else str
        parts = []
        if self.cycle:
            for u, v, label, key in self.cycle:
                suffix = f"({key})" if key is not None else ""
                parts.append(f"{names(u)} -{label}{suffix}-> {names(v)}")
        return "history violates SI (%s): cycle %s" % (
            self.decided_by,
            "; ".join(parts),
        )

    def to_json(self) -> str:
        """Machine-readable verdict (for CI pipelines and tooling).

        Includes the verdict, stage, timings, anomaly summaries, the
        witness cycle (with transaction names), and the structural
        statistics of pruning/encoding when available.
        """
        import json

        names = self.polygraph.vertex_name if self.polygraph else str
        payload: dict = {
            "satisfies_si": self.satisfies_si,
            "decided_by": self.decided_by,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "anomalies": [
                {"axiom": a.axiom, "txn": getattr(a.txn, "name", None),
                 "key": repr(a.key), "detail": a.detail}
                for a in self.anomalies
            ],
        }
        if self.cycle:
            payload["cycle"] = [
                {"from": names(u), "to": names(v), "type": label,
                 "key": repr(key) if key is not None else None}
                for u, v, label, key in self.cycle
            ]
        if self.stats:
            payload["stats"] = self.stats
        if self.prune_result is not None:
            payload["pruning"] = self.prune_result.as_dict()
        if self.encoding is not None:
            payload["encoding"] = self.encoding.stats()
        if self.solver_stats:
            payload["solver"] = self.solver_stats
        return json.dumps(payload, indent=2)

    def __repr__(self) -> str:
        verdict = "SI" if self.satisfies_si else f"VIOLATION({self.decided_by})"
        return f"CheckResult({verdict}, {self.timings})"


class PolySIChecker:
    """The PolySI checker with the paper's two optimizations as switches.

    Parameters
    ----------
    prune:
        Apply constraint pruning before encoding (Figure 10's "w/o P"
        ablation sets this False).
    compact:
        Use generalized (compacted) constraints; False decomposes them
        into classic per-reader constraints (Figure 10's "w/o C+P").
    closure_backend:
        Incremental-closure backend for pruning: a registered name
        (``"python"``, ``"numpy"``) or None to honour
        ``REPRO_CLOSURE_BACKEND`` / auto-selection (see
        :func:`repro.utils.closure.resolve_closure_backend`).  The
        resolved name is reported in ``result.stats["closure_backend"]``.
    check_axioms_first:
        Skip the axiom stage when False (for harnesses that already
        validated the history).
    initial_values:
        Optional map key -> value considered initial for this history
        (used by segmented checking; see
        :mod:`repro.extensions.segmented`).
    """

    def __init__(
        self,
        *,
        prune: bool = True,
        compact: bool = True,
        closure_backend: Optional[str] = None,
        check_axioms_first: bool = True,
        initial_values: Optional[dict] = None,
    ):
        self.prune = prune
        self.compact = compact
        # Resolve eagerly: an unknown name fails at construction, and
        # every shard / stage of one check uses the same backend even
        # if the environment changes mid-run.
        self.closure_backend: str = resolve_closure_backend(
            closure_backend).name
        self.check_axioms_first = check_axioms_first
        self.initial_values = initial_values

    def check(self, history: History) -> CheckResult:
        """Run the full pipeline on ``history``."""
        result = CheckResult()
        # Reported even on axiom-decided histories, so facade callers
        # always see which kernel a forced backend resolved to.
        result.stats["closure_backend"] = self.closure_backend
        graph = self.construct(history, result)
        if graph is None:
            return result
        return self.check_polygraph(graph, result)

    def construct(
        self, history: History, result: CheckResult
    ) -> Optional[GeneralizedPolygraph]:
        """The pre-cycle stages: axioms plus polygraph construction.

        Returns the polygraph to analyze, or None when the history is
        already decided (axiom or construction anomalies — ``result``
        then carries the verdict).  Shared by :meth:`check` and the
        parallel checking engine, which shards the returned polygraph.
        """
        if self.check_axioms_first:
            t0 = time.perf_counter()
            with trace_span("axioms", txns=len(history)) as span:
                anomalies = check_axioms(history)
                span.set(violations=len(anomalies))
            result.timings["axioms"] = time.perf_counter() - t0
            if anomalies:
                result.satisfies_si = False
                result.anomalies = anomalies
                result.decided_by = "axioms"
                return None

        t0 = time.perf_counter()
        with trace_span("construct", txns=len(history)) as span:
            graph, construction_anomalies = build_polygraph(
                history, compact=self.compact,
                initial_values=self.initial_values
            )
            span.set(vertices=graph.num_vertices,
                     constraints=len(graph.constraints))
        result.timings["construct"] = time.perf_counter() - t0
        result.polygraph = graph.copy()
        if construction_anomalies:
            result.satisfies_si = False
            result.anomalies = construction_anomalies
            result.decided_by = "axioms"
            return None
        return graph

    def check_polygraph(
        self, graph: GeneralizedPolygraph, result: Optional[CheckResult] = None
    ) -> CheckResult:
        """The cycle-analysis stages (prune / decompose / encode / solve)
        on an already-built polygraph.

        Components of the polygraph with no unresolved constraints cannot
        contribute a model-dependent cycle: they only need one acyclicity
        check of their known induced graph, so they are skipped by the
        encode+solve stages entirely (``result.stats`` reports the skip
        count).  Also the per-shard worker body of the parallel engine,
        which feeds reconstructed component fragments through it.
        """
        if result is None:
            result = CheckResult()

        result.stats["closure_backend"] = self.closure_backend
        # Whether pruning's closure already showed the known induced
        # graph acyclic; then no later stage needs to ask again, for the
        # whole graph or for any sub-polygraph of it.
        known_acyclic = False
        if self.prune:
            t0 = time.perf_counter()
            with trace_span("prune", backend=self.closure_backend) as span:
                prune_result = prune_constraints(
                    graph, backend=self.closure_backend)
                span.set(iterations=prune_result.iterations,
                         pruned=prune_result.pruned)
            result.timings["prune"] = time.perf_counter() - t0
            result.prune_result = prune_result
            if not prune_result.ok:
                result.satisfies_si = False
                result.decided_by = "pruning"
                result.cycle = prune_result.violation_cycle
                log.info("violation decided by pruning (%d iterations)",
                         prune_result.iterations)
                return result
            log.debug("pruned %d/%d constraints in %d iteration(s)",
                      prune_result.pruned, prune_result.constraints_before,
                      prune_result.iterations)
            known_acyclic = prune_result.known_acyclic

        # Serial fast path: constraint-free components never reach the
        # solver.  Every edge (known or constrained) is intra-component,
        # so a cycle lives entirely inside one component and the verdict
        # is the conjunction of per-part verdicts.
        t0 = time.perf_counter()
        with trace_span("decompose") as span:
            components, constraints_of = graph.constrained_components()
            constrained = [bool(cons) for cons in constraints_of]
            skipped = constrained.count(False)
            span.set(components=len(components), skipped=skipped)
        result.stats["components"] = len(components)
        result.stats["solver_skipped_components"] = skipped
        result.timings["decompose"] = time.perf_counter() - t0

        if skipped and skipped < len(components) and not known_acyclic:
            # Mixed graph: acyclicity-check the pure part on its own so
            # the encoding only ever sees constrained components.
            t0 = time.perf_counter()
            with trace_span("decompose", part="pure"):
                pure_vertices = [
                    v for ci, comp in enumerate(components)
                    if not constrained[ci] for v in comp
                ]
                pure, pure_old = graph.subgraph(pure_vertices)
                cycle = static_induced_cycle(pure)
            result.timings["decompose"] += time.perf_counter() - t0
            if cycle is not None:
                result.satisfies_si = False
                result.decided_by = "encoding"
                result.cycle = _map_cycle(cycle, pure_old)
                return result

        if not graph.constraints:
            # Pure known graph: one acyclicity check decides everything.
            t0 = time.perf_counter()
            with trace_span("decompose", part="static"):
                cycle = (None if known_acyclic
                         else static_induced_cycle(graph))
            result.timings["decompose"] += time.perf_counter() - t0
            if cycle is not None:
                result.satisfies_si = False
                result.decided_by = "encoding"
                result.cycle = cycle
                return result
            result.satisfies_si = True
            result.decided_by = "static"
            return result

        enc_graph, enc_old = graph, None
        if skipped:
            t0 = time.perf_counter()
            with trace_span("decompose", part="constrained"):
                constrained_vertices = [
                    v for ci, comp in enumerate(components)
                    if constrained[ci] for v in comp
                ]
                enc_graph, enc_old = graph.subgraph(constrained_vertices)
            result.timings["decompose"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        with trace_span("encode") as span:
            encoding = encode_polygraph(enc_graph, known_acyclic=known_acyclic)
            span.set(**encoding.stats())
        result.timings["encode"] = time.perf_counter() - t0
        result.encoding = encoding
        if encoding.static_cycle:
            # The known induced graph is already cyclic: a violation exists
            # independently of how the remaining constraints resolve.
            result.satisfies_si = False
            result.decided_by = "encoding"
            result.cycle = _map_cycle(
                find_known_cycle(enc_graph.known_edges), enc_old)
            return result

        t0 = time.perf_counter()
        with trace_span("solve") as span:
            acyclic = encoding.solver.solve()
            span.set(acyclic=acyclic, **encoding.solver.stats.as_dict())
        result.timings["solve"] = time.perf_counter() - t0
        result.solver_stats = encoding.solver.stats.as_dict()
        result.decided_by = "solving"
        log.debug("solver verdict: %s (%d conflicts)",
                  "acyclic" if acyclic else "cyclic",
                  encoding.solver.stats.conflicts)
        if acyclic:
            result.satisfies_si = True
            return result

        result.satisfies_si = False
        t0 = time.perf_counter()
        with trace_span("explain"):
            result.cycle = _map_cycle(
                encoding.violation_cycle(enc_graph.known_edges,
                                         graph_constraints(enc_graph)),
                enc_old)
        result.timings["explain"] = time.perf_counter() - t0
        return result


def static_induced_cycle(graph: GeneralizedPolygraph) -> Optional[List[Edge]]:
    """A concrete undesired cycle in the *known* induced graph
    ``KI = Dep ∪ (Dep ; AntiDep)`` of ``graph``, or None when acyclic.

    Ignores constraints entirely — this is the whole check a polygraph
    (or component fragment) with no unresolved constraints needs, and
    the static part of what :func:`encode_polygraph` would verify.
    """
    known = KnownGraph.from_edges(graph.num_vertices, graph.known_edges)
    if is_acyclic(graph.num_vertices, known.induced_adjacency()):
        return None
    return find_known_cycle(graph.known_edges)


def _map_cycle(
    cycle: Optional[List[Edge]], old_of_new: Optional[List[int]]
) -> Optional[List[Edge]]:
    """Translate a subgraph-local witness cycle back to parent vertex ids
    (identity when the check ran on the parent graph itself)."""
    if cycle is None or old_of_new is None:
        return cycle
    return [(old_of_new[u], old_of_new[v], label, key)
            for u, v, label, key in cycle]


def check_snapshot_isolation(history: History, **options) -> CheckResult:
    """Deprecated alias for the façade: use ``repro.check(history)``
    instead, which returns the unified :class:`repro.api.Report` (this
    wrapper keeps returning the native :class:`CheckResult`)."""
    from ..deprecation import warn_deprecated

    warn_deprecated("check_snapshot_isolation()", "repro.check(history)")
    return PolySIChecker(**options).check(history)
