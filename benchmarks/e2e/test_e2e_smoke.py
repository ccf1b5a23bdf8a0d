"""Smoke test of the end-to-end benchmark (not part of tier-1:
``pytest benchmarks/e2e/test_e2e_smoke.py``).

Runs every workload at a twentieth of its size, untraced and traced,
and checks that every metric ``BENCHMARK.json`` names comes out finite
and that every verdict matched its by-construction answer.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int, out_dir: str) -> dict:
    seconds = SPEC["run_seconds"] / 20
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", str(seconds), "--trace",
         str(trace), "--out", out_dir],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, tmp_path):
    for trace, catalogue in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace, str(tmp_path))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[catalogue]}
        for metric in SPEC[catalogue]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]), metric["name"]
        if trace:
            assert os.path.isfile(tmp_path / f"trace_{workload}.json")
        else:
            for name, got in result["metrics"].items():
                assert got["value"] > 0, name
