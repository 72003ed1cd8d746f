"""The benchmark's own self-check, run as part of the test suite.

The benchmark wraps library functions by name (see bench/spans.py), so
a rename that breaks it should fail here, not only when it is next run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
