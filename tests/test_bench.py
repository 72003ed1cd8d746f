"""The benchmark's own self-check, run as part of the test suite.

The benchmark wraps library functions by name (see bench/spans.py), so
a rename that breaks it should fail here, not only when it is next run.
The self-check runs once per test session, inside the reachability
report (see the entry_point_runs fixture).
"""


def test_benchmark_self_check_passes(entry_point_runs):
    run = entry_point_runs[1]["bench/run.py --self-check"]
    assert run["exit"] == 0, run["stdout"] + run["stderr"]
    assert "self-check passed" in run["stdout"]
