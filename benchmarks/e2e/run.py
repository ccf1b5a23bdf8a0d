#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark: file -> verdict and
stream -> verdict on five named workloads.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--selfcheck] [--out DIR]

Prints every metric by name with its unit, then one JSON object as the
last line (``correct``, ``attempted``, ``failed``, ``metrics``).  The
metric catalogue — names, units, directions, regression bounds — is
``BENCHMARK.json`` at the repository root; see ``README.md`` here.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"run.py: no checker to measure: {SRC}/repro is missing")
sys.path[:0] = [SRC, HERE]

import batch  # noqa: E402
import stream  # noqa: E402
from inputs import SIZES, InputsChanged, kind_of  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as _handle:
    PINS = json.load(_handle)

#: Exit codes beyond 0/1: set-up failures and changed inputs.
EXIT_WRONG, EXIT_INPUTS_CHANGED = 1, 3
#: A batch stage sum further than this from the traced verdict time
#: means the replay no longer follows the checker.
ATTRIBUTION_TOLERANCE = 0.15
SELFCHECK_RUNS = 3


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> dict:
    """One run of one workload; returns the contract's result object
    plus ``detail`` for the result file."""
    module = batch if kind_of(workload) == "batch" else stream
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    pinned = (seed, seconds) == (PINS["seed"], PINS["seconds"])
    try:
        run = (module.trace if trace else module.measure)(
            workload, seed, seconds, work_dir,
            PINS["sha256"][workload] if pinned else None)
    except InputsChanged as exc:
        print(f"inputs_changed: {workload} at seed {seed} {exc}; numbers "
              "would compare different inputs", file=sys.stderr)
        sys.exit(EXIT_INPUTS_CHANGED)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    catalogue = SPEC["per_layer" if trace else "end_to_end"]
    # A layer the workload never enters did no work there: 0, not absent.
    metrics = {m["name"]: {"value": run["metrics"].get(m["name"], 0),
                           "unit": m["unit"]} for m in catalogue}
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise RuntimeError(f"{workload}: {name} is not finite")
    failed = len(run["wrong"]) + run["lost_events"]
    detail = dict(run["detail"], workload=workload, seed=seed,
                  seconds=seconds, trace=trace, pinned=pinned,
                  wrong=run["wrong"], lost_events=run["lost_events"],
                  python=platform.python_version(),
                  numpy=run["detail"].get(
                      "numpy", importlib.metadata.version("numpy")),
                  nproc=os.cpu_count())
    if trace:
        path = os.path.join(out_dir, f"trace_{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed,
                       "spans": run["spans"]}, handle)
        detail["trace_file"] = path
    return {"correct": failed == 0, "attempted": run["attempted"],
            "failed": failed, "metrics": metrics, "detail": detail}


def report(result: dict) -> None:
    """Every metric by name with its unit, then what a reader needs to
    trust or reproduce the numbers."""
    detail = result["detail"]
    workload = detail["workload"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"\n== {workload}  seed={detail['seed']} "
          f"seconds={detail['seconds']:g} "
          f"{'traced' if detail['trace'] else 'untraced'} ==")
    for name, metric in result["metrics"].items():
        bound = f"  (bound {bounds[name]:.0%})" if name in bounds else ""
        print(f"  {name:<26}{metric['value']:>16.6g} {metric['unit']}{bound}")
    print(f"  wrong_verdicts = {len(detail['wrong'])} of "
          f"{result['attempted']} attempted; "
          f"lost_events = {detail['lost_events']}")
    for item in detail["wrong"]:
        print(f"  WRONG: {json.dumps(item)}")
    shown = {k: detail[k] for k in (
        "units", "traced_units", "passes", "events", "connections", "loop",
        "closure_backend", "python", "numpy", "nproc") if k in detail}
    print(f"  {json.dumps(shown)}")
    pin = "matches pin" if detail["pinned"] else "unpinned seed"
    print(f"  input sha256 {detail['digest']} ({pin})")
    if not detail["trace"]:
        return
    value = {name: metric["value"]
             for name, metric in result["metrics"].items()}
    if kind_of(workload) == "batch":
        share = value["facade.residual_share"]
        flag = ("  <-- stage sum misses the traced verdict time"
                if abs(share) > ATTRIBUTION_TOLERANCE else "")
        print(f"  facade.residual_share = {share:.1%}{flag}")
    else:
        print(f"  service.residual_share = "
              f"{value['service.residual_share']:.1%}, service.cpu_share = "
              f"{value['service.cpu_share']:.2f}")
    print(f"  spans: {detail['trace_file']}")


def save(result: dict, out_dir: str) -> None:
    """``result_<workload>.json`` (untraced) or ``layers_<workload>.json``
    (traced): metrics, raw samples and the environment record."""
    detail = result["detail"]
    kind = "layers" if detail["trace"] else "result"
    path = os.path.join(out_dir, f"{kind}_{detail['workload']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)


def selfcheck(workloads, seed: int, seconds: float, out_dir: str) -> int:
    """Two untraced sets on the same code must agree within each
    metric's own bound.  A set is SELFCHECK_RUNS runs per workload on
    consecutive seeds, reduced to the median per metric."""
    over = 0
    print(f"{'workload':<14}{'metric':<18}{'first':>14}{'second':>14}"
          f"{'spread':>9}{'bound':>8}")
    for workload in workloads:
        medians = []
        for _ in range(2):
            runs = [run_workload(workload, seed + i, seconds, False, out_dir)
                    for i in range(SELFCHECK_RUNS)]
            over += sum(run["failed"] for run in runs)
            medians.append({
                m["name"]: statistics.median(
                    run["metrics"][m["name"]]["value"] for run in runs)
                for m in SPEC["end_to_end"]})
        for metric in SPEC["end_to_end"]:
            first, second = (m[metric["name"]] for m in medians)
            spread = abs(first - second) / first
            mark = ""
            if spread > metric["bound"]:
                over += 1
                mark = "  OVER"
            print(f"{workload:<14}{metric['name']:<18}{first:>14.6g}"
                  f"{second:>14.6g}{spread:>9.1%}{metric['bound']:>8.0%}{mark}",
                  flush=True)
    print("selfcheck:", "FAILED" if over else "ok")
    return EXIT_WRONG if over else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*SIZES, "all"])
    parser.add_argument("--seed", type=int, default=PINS["seed"])
    parser.add_argument("--seconds", type=float, default=PINS["seconds"],
                        help="seconds one run measures; scales the number "
                             "of histories or tenants in the run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = list(SIZES) if args.workload == "all" else [args.workload]
    if args.selfcheck:
        return selfcheck(workloads, args.seed, args.seconds, args.out)
    status = 0
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), args.out)
        report(result)
        save(result, args.out)
        if not result["correct"]:
            status = EXIT_WRONG
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return status


if __name__ == "__main__":
    sys.exit(main())
