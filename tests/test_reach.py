"""The reachability report passes, and its KEEP table names live functions."""

import subprocess
import sys

import reach


def test_every_function_no_entry_point_enters_has_a_keep_reason():
    # a child process keeps the self-check's gc.freeze() and sys.path
    # edits out of this one
    run = subprocess.run(
        [sys.executable, str(reach.ROOT / "tests" / "reach.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_every_keep_entry_names_a_function_defined_in_src():
    defined = set(reach.functions().values())
    assert sorted(set(reach.KEEP) - defined) == []
