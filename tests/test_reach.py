"""The reachability report passes, and its KEEP table names live functions."""

import reach


def test_every_function_no_entry_point_enters_has_a_keep_reason(entry_point_runs):
    report, _ = entry_point_runs
    assert report.returncode == 0, report.stdout + report.stderr


def test_every_keep_entry_names_a_function_defined_in_src():
    defined = set(reach.functions().values())
    assert sorted(set(reach.KEEP) - defined) == []
