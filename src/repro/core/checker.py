"""The PolySI checking pipeline (paper Section 4, Algorithm 1).

``CheckSI(H)``:

1. axioms — index every transaction's writes (Int, UniqueValue);
2. construct — match every read against them (AbortedReads,
   IntermediateReads, unjustified and future reads, known edges) and
   generate the constraints;
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

from ..obs import counter as obs_counter, get_logger, trace_span
from ..utils.gcpause import collector_paused
from .axioms import AxiomViolation
from .encoding import SIEncoding, encode_polygraph, graph_constraints
from .history import History
from .polygraph import (
    Edge,
    GeneralizedPolygraph,
    index_history,
    match_history,
)
from . import pruning
from .pruning import PruneResult, find_known_cycle, prune_constraints

__all__ = [
    "CheckResult",
    "PolySIChecker",
]

log = get_logger("core.checker")


def _built_edges(constraints) -> int:
    """Typed branch edges built so far for ``constraints``: encode
    builds them for the constraints that reach the solver."""
    return sum(cons.built_edges for cons in constraints)


def _pruning_built_edges(graph: GeneralizedPolygraph,
                         pruned: PruneResult, written: int) -> int:
    """Typed branch edges pruning built: the winners' the promotion log
    wrote since ``written`` (only if something read the known edges: a
    witness search), and the witness constraint's own — counted without
    walking, or building, the constraints."""
    witness = pruned.violation_constraint
    return (graph.branch_edges_written - written
            + (witness.built_edges if witness is not None else 0))


def _publish_branch_edges(built: int) -> int:
    if built:
        obs_counter("polygraph.branch_edges").inc(built)
    return built


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
        #: Structural counters: the closure kernel and how many
        #: vertices the solver was built over.
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
        return json.dumps(payload, default=repr)

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
        initial_values: Optional[dict] = None,
    ):
        self.prune = prune
        self.compact = compact
        self.initial_values = initial_values

    @collector_paused
    def check(self, history: History) -> CheckResult:
        """Run the full pipeline on ``history`` (construct, prune,
        encode, solve), with the cyclic collector paused throughout."""
        result = CheckResult()
        # Reported even on axiom-decided histories: the provenance of
        # every batch verdict names pruning's kernel.
        result.stats["closure_backend"] = pruning.KERNEL.name
        graph = self.construct(history, result)
        if graph is None:
            return result
        return self.check_polygraph(graph, result)

    def construct(
        self, history: History, result: CheckResult
    ) -> Optional[GeneralizedPolygraph]:
        """The pre-cycle stages: one pass of the polygraph builder,
        timed as its two halves (module docstring, stages 1 and 2).

        Returns the polygraph to analyze, or None when the history is
        already decided (``result`` then carries the anomalies, grouped
        by axiom).
        """
        t0 = time.perf_counter()
        with trace_span("axioms", txns=len(history)) as span:
            builder, graph = index_history(history, self.initial_values)
            span.set(violations=len(builder.anomalies))
        result.timings["axioms"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        with trace_span("construct", txns=len(history)) as span:
            anomalies = match_history(builder, graph, self.compact)
            span.set(vertices=graph.num_vertices,
                     constraints=graph.num_constraints,
                     violations=len(anomalies))
        result.timings["construct"] = time.perf_counter() - t0
        if anomalies:
            result.satisfies_si = False
            result.anomalies = anomalies
            result.decided_by = "axioms"
            return None
        result.polygraph = graph.copy()
        return graph

    @collector_paused
    def check_polygraph(
        self, graph: GeneralizedPolygraph,
        result: Optional[CheckResult] = None,
    ) -> CheckResult:
        """The cycle-analysis stages (prune / encode / solve) on an
        already-built polygraph.

        Everything after the fixpoint asks the state it ended with
        (:attr:`PruneResult.state`) instead of deriving the known graph
        again: a clean closure diagonal with no constraint left is the
        verdict ``static``, and otherwise the solver is built over the
        cycle core only (:func:`encode_polygraph`).  The state is
        dropped before this returns: no result may pin the closure rows.
        """
        if result is None:
            result = CheckResult()
        result.stats["closure_backend"] = pruning.KERNEL.name
        result.stats["solver_vertices"] = 0
        pruned: Optional[PruneResult] = None
        if self.prune:
            t0 = time.perf_counter()
            with trace_span("prune", backend=pruning.KERNEL.name) as span:
                written = graph.branch_edges_written
                pruned = prune_constraints(graph)
                span.set(iterations=pruned.iterations, pruned=pruned.pruned,
                         branch_edges=_publish_branch_edges(
                             _pruning_built_edges(graph, pruned, written)))
            result.timings["prune"] = time.perf_counter() - t0
            result.prune_result = pruned
            if not pruned.ok:
                result.satisfies_si = False
                result.decided_by = "pruning"
                result.cycle = pruned.violation_cycle
                log.info("violation decided by pruning (%d iterations)",
                         pruned.iterations)
                return result
            log.debug("pruned %d/%d constraints in %d iteration(s)",
                      pruned.pruned, pruned.constraints_before,
                      pruned.iterations)
        try:
            return self._encode_and_solve(graph, result, pruned)
        finally:
            if pruned is not None:
                pruned.state = None

    def _encode_and_solve(
        self, graph: GeneralizedPolygraph, result: CheckResult,
        pruned: Optional[PruneResult],
    ) -> CheckResult:
        if graph.constraints or not (pruned and pruned.known_acyclic):
            t0 = time.perf_counter()
            with trace_span("encode") as span:
                before = _built_edges(graph.constraints)
                encoding = encode_polygraph(graph, pruned)
                span.set(solver_vertices=encoding.num_solver_vertices,
                         branch_edges=_publish_branch_edges(
                             _built_edges(graph.constraints) - before),
                         **encoding.stats())
            result.timings["encode"] = time.perf_counter() - t0
            result.encoding = encoding
            if encoding.static_cycle:
                # The known induced graph is already cyclic: a violation
                # exists however the remaining constraints resolve.
                result.satisfies_si = False
                result.decided_by = "encoding"
                result.cycle = find_known_cycle(graph.known_edges)
                return result
        if not graph.constraints:
            # The known induced graph is all there is, and it is
            # acyclic: nothing for the solver to decide.
            result.satisfies_si = True
            result.decided_by = "static"
            return result
        result.stats["solver_vertices"] = encoding.num_solver_vertices

        t0 = time.perf_counter()
        with trace_span("solve") as span:
            acyclic = encoding.solver.solve()
            span.set(acyclic=acyclic, **encoding.solver.stats.as_dict())
        result.timings["solve"] = time.perf_counter() - t0
        result.solver_stats = encoding.solver.stats.as_dict()
        result.satisfies_si = acyclic
        result.decided_by = "solving"
        log.debug("solver verdict: %s (%d conflicts)",
                  "acyclic" if acyclic else "cyclic",
                  encoding.solver.stats.conflicts)
        if not acyclic:
            t0 = time.perf_counter()
            with trace_span("explain"):
                result.cycle = encoding.violation_cycle(
                    graph.known_edges, graph_constraints(graph))
            result.timings["explain"] = time.perf_counter() - t0
        return result
