"""Every demo script runs to completion against the package in src/.

The demos run once per test session, inside the reachability report
(see the entry_point_runs fixture), which also records which functions
they enter."""

import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, entry_point_runs):
    run = entry_point_runs[1][f"demos/{demo.name}"]
    assert run["exit"] == 0, run["stderr"]
    if demo.stem == "06_files_and_cli":
        assert "secret: 1,2,0,3,0,2" in run["stdout"].splitlines()
