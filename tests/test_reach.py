"""The reachability report passes, its KEEP table names live functions,
and a KEEP name whose function an entry point enters fails the report."""

import reach


def test_every_function_no_entry_point_enters_has_a_keep_reason(entry_point_runs):
    report, _ = entry_point_runs
    assert report.returncode == 0, report.stdout + report.stderr


def test_every_keep_entry_names_a_function_defined_in_src():
    defined = set(reach.functions().values())
    assert sorted(set(reach.KEEP) - defined) == []


def test_a_keep_name_an_entry_point_enters_fails_the_report(monkeypatch, capsys):
    unentered = [(name, "src/lcdshare/x.py:1") for name in reach.KEEP]
    monkeypatch.setattr(reach, "never_entered", lambda entry_points: (unentered, {}))
    assert reach.main([]) == 0
    monkeypatch.setitem(reach.KEEP, "io_formats.write_shares", "a fake reason")
    assert reach.main([]) == 1
    assert "io_formats.write_shares is in KEEP but an entry point enters it" in capsys.readouterr().out
