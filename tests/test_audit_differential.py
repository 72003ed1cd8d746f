"""The share audit against the reference verify_share it replaced.

verify_share runs on raw arrays against the code's cached [H^T | D]
block, verify_shares and the CLI verify run one column audit over all
shares; reference_audit.verify_share is the per-share check built from
RVector/RMatrix products.  On every code, candidate secret and share,
honest or tampered, all three must give the reference's verdict, or
raise its class with its message.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_audit as ref

from lcdshare import (
    Share,
    make_ring,
    matrix,
    parity_check_from_generator,
    random_code,
    random_lcd_code,
    vector,
    verify_share,
    verify_shares,
    write_code,
    write_secret,
    write_shares,
)
from lcdshare.cli import REMEDIES, main
from lcdshare.errors import BadParameters, DimensionMismatch, GenerationFailed, NotLcd
from lcdshare.io_formats import ShareFile
from lcdshare.linalg import RMatrix
from lcdshare.scheme import _deal_rows

RINGS = [(2, 1), (2, 2), (3, 2), (2, 8), (65521, 1), (2**31 - 1, 1)]
TAMPERING = ["none", "none", "x", "y", "unreduced", "non-codeword", "forged", "wrong length",
             "other ring"]
STORABLE = {"none", "x", "y", "non-codeword", "forged"}  # what a shares document can hold
SECRETS = ["dealt", "dealt", "other", "wrong length", "other ring"]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison covers any exception
        return type(exc), str(exc)


def other_ring(ring):
    return make_ring(3, 1) if ring.p != 3 else make_ring(2, 1)


def tamper(share, how, code, dealt, rng):
    """share changed the way `how` names; a forged share is a
    non-codeword with the x and y the dealt secret gives it, so that
    only the parity check can refuse it."""
    ring, n = code.ring, code.n
    bump = int(rng.integers(1, ring.m))
    if how == "forged" and 2 * code.k >= n:
        c = share.c.tolist()
        c[int(rng.integers(0, n))] += bump
        c = vector(ring, c)
        return Share(share.id, c, c @ dealt, (c @ code.dual_map) @ dealt)
    if how == "x":
        return Share(share.id, share.c, (share.x + bump) % ring.m, share.y)
    if how == "y":
        return Share(share.id, share.c, share.x, (share.y + bump) % ring.m)
    if how == "unreduced":
        return Share(share.id, share.c, share.x + ring.m, share.y - 3 * ring.m)
    if how in ("non-codeword", "forged"):
        c = share.c.tolist()
        c[int(rng.integers(0, n))] += bump
        return Share(share.id, vector(ring, c), share.x, share.y)
    if how == "wrong length":
        c = share.c.tolist()
        return Share(share.id, vector(ring, c[:-1] if n > 1 else c + c), share.x, share.y)
    if how == "other ring":
        return Share(share.id, vector(other_ring(ring), share.c.tolist()), share.x, share.y)
    return share


def candidate(kind, ring, n, dealt, rng):
    if kind == "dealt":
        return dealt
    if kind == "other":
        return vector(ring, rng.integers(0, ring.m, size=n))
    if kind == "wrong length":
        return vector(ring, rng.integers(0, ring.m, size=n + 1))
    return vector(other_ring(ring), rng.integers(0, 2, size=n))


@st.composite
def audits(draw):
    """A code (sometimes not LCD, sometimes with 2k < n), a candidate
    secret, and shares dealt from another secret, each tampered or not;
    the tampering of each share comes back alongside."""
    ring = make_ring(*draw(st.sampled_from(RINGS)))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**64 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    try:
        if draw(st.integers(0, 4)) == 0:  # a code that need not be LCD
            code = random_code(ring, n, k, seed)
        else:
            code = random_lcd_code(ring, n, k, seed, max_tries=200)
    except GenerationFailed:
        assume(False)
    dealt = vector(ring, rng.integers(0, ring.m, size=n))
    count = draw(st.integers(0, 8))
    shares = []
    if count:  # dealt without deal's checks, so a non-LCD code gets shares too
        coefficients = RMatrix(ring, rng.integers(0, ring.m, size=(count, k)))
        if 2 * k >= n:
            shares = _deal_rows(code, dealt, coefficients, first_id=1)
        else:  # codewords only: a code with 2k < n has no dual words to deal
            words = coefficients @ code.G
            shares = [Share(i + 1, words.row(i), 0, 0) for i in range(count)]
    hows = draw(st.lists(st.sampled_from(TAMPERING), min_size=count, max_size=count))
    shares = [tamper(s, how, code, dealt, rng) for s, how in zip(shares, hows)]
    secret_kind = draw(st.sampled_from(SECRETS))
    return code, candidate(secret_kind, ring, n, dealt, rng), secret_kind, shares, hows


def input_check(code, secret):
    """The reference's outcome on a share that cannot fail: ("ok", ...)
    unless the code or the secret is refused."""
    return outcome(ref.verify_share, code, secret, Share(1, vector(code.ring, [0] * code.n), 0, 0))


def cli_verify(code, secret, shares):
    """(exit code, stdout, stderr) of the verify command on documents
    holding code, secret and shares."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("a.code", "a.shares", "a.secret")]
        write_code(paths[0], code)
        write_shares(paths[1], ShareFile(code.ring, code.n, tuple(shares)))
        write_secret(paths[2], secret)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", "--code", str(paths[0]), "--shares", str(paths[1]),
                       "--secret", str(paths[2])])
    return rc, out.getvalue(), err.getvalue()


def expected_cli_run(check, shares, verdicts):
    if check[0] != "ok":
        name = check[0].__name__
        return 1, "", f"error: {name}: {check[1]}\nhint: {REMEDIES[name]}\n"
    out = "".join(f"share {s.id}: {'ok' if ok else 'FAIL'}\n" for s, ok in zip(shares, verdicts))
    failures = verdicts.count(False)
    if failures:
        return 1, out, f"error: {failures} share(s) failed verification\n"
    return 0, out, ""


@settings(max_examples=300, deadline=None)
@given(audits())
def test_audit_matches_the_reference(case):
    code, secret, secret_kind, shares, hows = case
    check = input_check(code, secret)
    expected = [outcome(ref.verify_share, code, secret, s) for s in shares]
    assert [outcome(verify_share, code, secret, s) for s in shares] == expected
    batch = outcome(verify_shares, code, secret, shares)
    if check[0] == "ok":
        verdicts = [verdict for _, verdict in expected]
        assert batch == ("ok", verdicts)
        if secret_kind == "dealt":  # an untouched share of the dealt secret passes
            assert all(ok for ok, how in zip(verdicts, hows) if how in ("none", "unreduced"))
    else:
        verdicts = [None] * len(shares)
        assert batch == check and all(e == check for e in expected)
    if secret_kind in ("dealt", "other"):  # a secret document the code accepts
        stored = [i for i, how in enumerate(hows) if how in STORABLE]
        kept = [shares[i] for i in stored]
        assert cli_verify(code, secret, kept) == expected_cli_run(
            check, kept, [verdicts[i] for i in stored]
        )


def _f2_code(generator):
    return parity_check_from_generator(matrix(make_ring(2, 1), generator))


# [2, 1] over F_2 generated by 11 is its own dual, so not LCD; [3, 1] has 2k < n.
REFUSED = {
    "not LCD": (_f2_code([[1, 1]]), NotLcd),
    "2k < n": (_f2_code([[1, 0, 1]]), BadParameters),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_codes_raise_as_the_reference(name):
    code, error = REFUSED[name]
    secret = vector(code.ring, [1] * code.n)
    share = Share(1, code.G.row(0), 1, 0)
    check = outcome(ref.verify_share, code, secret, share)
    assert check[0] is error
    assert outcome(verify_share, code, secret, share) == check
    assert outcome(verify_shares, code, secret, [share]) == check
    assert outcome(verify_shares, code, secret, []) == check
    assert cli_verify(code, secret, [share]) == expected_cli_run(check, [share], [])


def test_refused_secrets_raise_as_the_reference():
    code = random_lcd_code(make_ring(2, 2), 6, 4, seed=5)
    share = Share(1, code.G.row(0), 0, 0)
    for secret in [vector(code.ring, [1] * 5), vector(make_ring(3, 1), [1] * 6)]:
        check = outcome(ref.verify_share, code, secret, share)
        assert check[0] is DimensionMismatch
        assert outcome(verify_share, code, secret, share) == check
        assert outcome(verify_shares, code, secret, [share]) == check
        assert outcome(verify_shares, code, secret, []) == check
