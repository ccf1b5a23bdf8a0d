"""Batch workloads: history files in, verdicts out, in a checking child."""

from __future__ import annotations

import os
import statistics
import time
from contextlib import ExitStack
from typing import List, Optional, Tuple

from inputs import (
    BatchInput,
    build_batch,
    digest_of,
    traced_units_for,
    units_for,
)
from procs import Child
from spans import SpanLog

#: Set-up is repeated and its median reported, so that one slow fork or
#: page-cache miss does not read as a regression.
SETUP_REPEATS = 3

#: Histories between two speed probes in the checking child.
PROBE_EVERY = {"general_rh": 1, "general_rw": 1, "corpus": 250}
#: What one speed probe takes on the 2-core box the workloads were sized
#: on, in a quiet moment.  A pass is reported as ``wall x PROBE_NOMINAL_S
#: / mean probe``: seconds at that reference speed.  The VM's speed
#: drifts by tens of percent over minutes, and the drift is per core, so
#: only a probe interleaved with the checking, in its thread, follows it
#: (a pass total then repeats to ~2 % where the raw wall repeats to ~8 %).
PROBE_NOMINAL_S = 0.040

#: Replayed stages whose sum should account for the traced verdict time.
STAGES = ("codec.load", "axioms", "construct", "prune", "decompose",
          "encode", "solve", "interpret")


def _set_up(workload: str, seed: int, units: int, job: str, seconds: float,
            limit: int, work_dir: str) -> Tuple[BatchInput, Child]:
    """Generate the input, write it, start and warm up the child."""
    data = build_batch(workload, seed, units)
    path = os.path.join(work_dir, "input.jsonl")
    with open(path, "wb") as handle:
        handle.write(data.canonical_bytes())
    child = Child({"job": job, "workload": workload, "input": path,
                   "units": limit, "seconds": seconds,
                   "probe_every": PROBE_EVERY[workload],
                   "parallel": workload == "general_rh"}, work_dir)
    return data, child


def _judge(seed: int, data: BatchInput,
           verdicts: List[list]) -> Tuple[list, int]:
    """Units whose verdict or class differs from the construction's, and
    how many of those got the verdict right but the class wrong."""
    wrong, misclassified = [], 0
    for index, (got, expected) in enumerate(zip(verdicts, data.expected)):
        if tuple(got) != expected:
            misclassified += got[0] == expected[0]
            wrong.append({"seed": seed, "index": index,
                          "expected": list(expected), "got": got})
    return wrong, misclassified


def measure(workload: str, seed: int, seconds: float, work_dir: str,
            pin: Optional[str] = None) -> dict:
    units = units_for(workload, seconds)
    setups = []
    with ExitStack() as stack:
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            data, child = _set_up(workload, seed, units, "batch", seconds,
                                  units, work_dir)
            setups.append(time.perf_counter() - start)
            stack.callback(child.discard)
            if repeat + 1 < SETUP_REPEATS:
                child.discard()
        digest = digest_of(data, pin)
        result = child.run()
    wrong, _ = _judge(seed, data, result["verdicts"])
    if not result["stable"]:
        wrong.append({"seed": seed, "index": None,
                      "got": "verdicts differ between passes"})
    calibrated = [wall * PROBE_NOMINAL_S / probe
                  for wall, probe in zip(result["passes"], result["probes"])]
    verdict_s = statistics.median(calibrated)
    return {
        "metrics": {
            "verdict_s": verdict_s,
            "histories_per_s": units / verdict_s,
            "ingest_eps": data.txns / verdict_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setups),
        },
        "attempted": units * len(result["passes"]),
        "wrong": wrong,
        "lost_events": 0,
        "detail": {
            "units": units, "txns": data.txns, "digest": digest,
            "passes": len(result["passes"]),
            "samples": {"verdict_s": calibrated, "wall_s": result["passes"],
                        "probe_s": result["probes"], "setup_s": setups},
            "closure_backend": result["closure_backend"],
            "numpy": result["numpy"],
        },
    }


def trace(workload: str, seed: int, seconds: float, work_dir: str,
          pin: Optional[str] = None) -> dict:
    units = units_for(workload, seconds)
    traced = traced_units_for(units)
    with ExitStack() as stack:
        data, child = _set_up(workload, seed, units, "batch-trace", seconds,
                              traced, work_dir)
        stack.callback(child.discard)
        digest = digest_of(data, pin)
        result = child.run()
    log = SpanLog(workload)
    log.extend(result["spans"])
    wrong, misclassified = _judge(seed, data, result["verdicts"])

    verdict_s = log.seconds("e2e.verdict")
    residual = verdict_s - sum(log.seconds(stage) for stage in STAGES)
    before = log.count("prune", "constraints_before")
    metrics = {
        "codec.load_s": log.seconds("codec.load"),
        "codec.bytes": log.count("codec.load", "bytes"),
        "axioms.s": log.seconds("axioms"),
        "construct.s": log.seconds("construct"),
        "construct.vertices": log.count("construct", "vertices"),
        "construct.constraints": log.count("construct", "constraints"),
        "prune.s": log.seconds("prune"),
        "prune.iterations": log.count("prune", "iterations"),
        "prune.constraints_after": log.count("prune", "constraints_after"),
        "prune.pruned_ratio": (log.count("prune", "pruned") / before
                               if before else 0.0),
        "closure.seed_s": log.seconds("closure.seed"),
        "decompose.s": log.seconds("decompose"),
        "encode.s": log.seconds("encode"),
        "encode.vars": log.count("encode", "vars"),
        "encode.clauses": log.count("encode", "clauses"),
        "solve.s": log.seconds("solve"),
        "solve.conflicts": log.count("solve", "conflicts"),
        "solve.decisions": log.count("solve", "decisions"),
        "interpret.s": log.seconds("interpret"),
        "interpret.misclassified": misclassified,
        "facade.residual_s": residual,
        "facade.residual_share": residual / verdict_s,
        "parallel.w2_verdict_s": log.seconds("parallel.w2_verdict"),
        "trace.overhead_pct": 100 * (verdict_s / result["untraced_s"] - 1),
        "trace.verdict_s": verdict_s,
        "trace.units": traced,
        "gate.wrong_verdicts": len(wrong),
        "gate.lost_events": 0,
    }
    return {
        "metrics": metrics, "attempted": traced, "wrong": wrong,
        "lost_events": 0, "spans": log.rows,
        "detail": {"units": units, "traced_units": traced,
                   "digest": digest,
                   "closure_backend": result["closure_backend"],
                   "numpy": result["numpy"]},
    }
