"""Every example script must run cleanly end to end.

Examples are user-facing documentation; a broken example is a broken
deliverable.  Each runs in a subprocess with a generous timeout and must
exit 0 with its expected headline output.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

CASES = {
    "quickstart.py": ["lost update", "satisfies SI"],
    "audit_database.py": ["violation after", "no violation in"],
    "social_network.py": ["classification"],
    "list_append_elle.py": ["violation (correct!)"],
    "compare_checkers.py": ["sessions"],
    "collect_sqlite.py": ["satisfies SI", "anomaly class"],
    "online_monitoring.py": ["ms/txn amortized", "violation detected"],
}


def run_example(name: str) -> str:
    path = os.path.join(EXAMPLES_DIR, name)
    result = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert result.returncode == 0, (name, result.stderr[-2000:])
    return result.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_example_runs(name):
    stdout = run_example(name)
    for expected in CASES[name]:
        assert expected in stdout, (name, expected, stdout[-2000:])
