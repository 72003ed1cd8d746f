"""Shared fixtures: reference codes, dealt share tables, golden files,
and one run of every entry point."""

import json
import pathlib
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import reach  # noqa: E402
import reference_data as refdata  # noqa: E402

from lcdshare import LinearCode, deal, make_ring, matrix, vector

DATA_DIR = pathlib.Path(__file__).parent / "data"


def build_code(inst):
    ring = make_ring(inst["p"], inst["e"])
    return LinearCode(
        ring=ring,
        n=inst["n"],
        k=inst["k"],
        G=matrix(ring, inst["G"]),
        H=matrix(ring, inst["H"]),
    )


def build_secret(inst):
    ring = make_ring(inst["p"], inst["e"])
    return vector(ring, inst["secret"])


def build_shares(inst):
    code = build_code(inst)
    secret = build_secret(inst)
    coeffs = [vector(code.ring, row) for row in inst["coefficients"]]
    shares, record = deal(
        code, secret, count=len(coeffs), seed=0, coefficients=coeffs
    )
    return code, secret, shares, record


@pytest.fixture(scope="session")
def z4_instance():
    return refdata.Z4_84


@pytest.fixture(scope="session")
def z4_code():
    return build_code(refdata.Z4_84)


@pytest.fixture(scope="session")
def z4_dealt():
    return build_shares(refdata.Z4_84)


@pytest.fixture(scope="session")
def f2_85_code():
    return build_code(refdata.F2_85)


@pytest.fixture(scope="session")
def f2_85_dealt():
    return build_shares(refdata.F2_85)


@pytest.fixture(scope="session")
def f2_84_code():
    return build_code(refdata.F2_84)


@pytest.fixture(scope="session")
def f2_84_dealt():
    return build_shares(refdata.F2_84)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def entry_point_runs(tmp_path_factory):
    """One run of the reachability report, which runs the six demos and
    bench/run.py --self-check: the report's own completed process, and
    each entry point's exit status and standard output and error, keyed
    as in reach.never_entered.  A child process keeps the self-check's
    gc.freeze() and sys.path edits out of this one."""
    runs = tmp_path_factory.mktemp("reach") / "runs.json"
    report = subprocess.run(
        [sys.executable, str(reach.ROOT / "tests" / "reach.py"), "--runs", str(runs)],
        capture_output=True, text=True, timeout=300,
    )
    assert runs.exists(), report.stdout + report.stderr
    return report, json.loads(runs.read_text(encoding="utf-8"))
