"""One-pass recovery against the reference recover it replaced.

recover picks and solves the coefficient rows in one pass and rebuilds s
from the cached Q = (H H^T)^{-1}; reference_recover.recover row-selects
the codewords and solves the stacked n x n system.  On every share list,
honest, rank-deficient or tampered, both must return the same secret or
raise the same class with the same message, with one exception: recover
refuses picked y values that fit no common secret, where the reference
returns a point that fails a supplied share.  The row walk behind it,
which select_independent_rows now also uses, must pick exactly the rows
the reference's prefix elimination of mat^T picks.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_recover as ref

from lcdshare import (
    Share,
    make_ring,
    random_code,
    random_lcd_code,
    recover,
    select_independent_rows,
    solve_unique,
    stack_rows,
    vector,
    verify_shares,
)
from lcdshare.errors import (
    GenerationFailed,
    InvalidShare,
    NotEnoughIndependentRows,
    Singular,
)
from lcdshare.linalg import RMatrix, RVector, _pick_and_solve
from lcdshare.scheme import _deal_rows

RINGS = [(2, 1), (2, 2), (3, 2), (2, 8), (65521, 1), (2**31 - 1, 1)]
TAMPERING = ["none", "x", "y", "unreduced", "non-codeword", "foreign", "other ring"]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison covers any exception
        return type(exc), str(exc)


def random_matrix(ring, rng, rows, cols, nilpotent_share):
    """Uniform residues, with about nilpotent_share of them times p, so
    that rank-deficient blocks come up over every ring."""
    a = rng.integers(0, ring.m, size=(rows, cols), dtype=np.int64)
    return np.where(rng.random((rows, cols)) < nilpotent_share, a * ring.p % ring.m, a)


def coefficient_rows(ring, rng, count, k, shape):
    """count coefficient rows of length k: independent draws, rows
    confined to a (k-1)-dimensional span, or a few repeats of earlier
    rows up to a nilpotent multiple."""
    rows = random_matrix(ring, rng, count, k, 0.0)
    if shape == "deficient" and k > 1:
        rows = random_matrix(ring, rng, count, k - 1, 0.0) @ random_matrix(
            ring, rng, k - 1, k, 0.0
        ) % ring.m
    elif shape == "repeats" and count > 1:
        for i in rng.choice(np.arange(1, count), size=min(3, count - 1), replace=False):
            j = rng.integers(0, i)
            rows[i] = (rows[j] + ring.p * rows[rng.integers(0, count)]) % ring.m
    return [vector(ring, row) for row in rows]


def tamper(code, shares, how, rng):
    """Change one share, chosen at random, the way `how` names."""
    if how == "none" or not shares:
        return shares
    ring, n = code.ring, code.n
    i = int(rng.integers(0, len(shares)))
    s = shares[i]
    bump = int(rng.integers(1, ring.m))
    if how == "x":
        new = Share(s.id, s.c, (s.x + bump) % ring.m, s.y)
    elif how == "y":
        new = Share(s.id, s.c, s.x, (s.y + bump) % ring.m)
    elif how == "unreduced":
        new = Share(s.id, s.c, s.x + ring.m, s.y - 3 * ring.m)
    elif how == "non-codeword":
        c = s.c.tolist()
        c[int(rng.integers(0, n))] += bump
        new = Share(s.id, vector(ring, c), s.x, s.y)
    elif how == "foreign":
        new = Share(s.id, vector(ring, s.c.tolist()[:-1]), s.x, s.y)
    else:
        other = make_ring(3, 1) if ring.p != 3 else make_ring(2, 1)
        new = Share(s.id, vector(other, s.c.tolist()), s.x, s.y)
    return shares[:i] + [new] + shares[i + 1 :]


@st.composite
def recovery_inputs(draw):
    ring = make_ring(*draw(st.sampled_from(RINGS)))
    n = draw(st.integers(1, 8))
    k = draw(st.integers((n + 1) // 2, n))
    seed = draw(st.integers(0, 2**64 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    try:
        if draw(st.integers(0, 9)) == 0:  # sometimes a code that need not be LCD
            code = random_code(ring, n, k, seed)
        else:
            code = random_lcd_code(ring, n, k, seed, max_tries=200)
    except GenerationFailed:
        assume(False)
    count = draw(st.integers(max(k - 1, 0), k + 6))
    shape = draw(st.sampled_from(["independent", "deficient", "repeats"]))
    secret = vector(ring, rng.integers(0, ring.m, size=n))
    shares = []
    if count:  # dealt without deal's LCD check, so a non-LCD code gets shares too
        coefficients = stack_rows(coefficient_rows(ring, rng, count, k, shape))
        shares = _deal_rows(code, secret, coefficients, first_id=1)
        shares = [shares[i] for i in rng.permutation(count)]
    how = draw(st.sampled_from(TAMPERING))
    return code, secret, tamper(code, shares, how, rng), how


@settings(max_examples=400, deadline=None)
@given(recovery_inputs())
def test_recover_matches_the_reference(inputs):
    code, secret, shares, how = inputs
    new, old = outcome(recover, code, shares), outcome(ref.recover, code, shares)
    if new[0] is InvalidShare and new[1].endswith("their y values fit no common secret"):
        # the reference returned a point; refusing is right only if it
        # fails a supplied share
        assert old[0] == "ok" and not all(verify_shares(code, old[1], shares))
    else:
        assert new == old
    if new[0] == "ok" and how in ("none", "unreduced"):
        assert new[1] == secret


# ------------------------------------------------- the elimination routine


@st.composite
def systems(draw):
    ring = make_ring(*draw(st.sampled_from(RINGS)))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a = random_matrix(ring, rng, rows, cols, draw(st.sampled_from([0.0, 0.5, 0.9])))
    b = rng.integers(0, ring.m, size=rows, dtype=np.int64)
    return ring, a, b


@settings(max_examples=400, deadline=None)
@given(systems(), st.data())
def test_pick_and_solve_picks_the_rows_the_reference_selects(system, data):
    ring, a, b = system
    count = data.draw(st.integers(0, a.shape[0]))
    picks, _, _ = _pick_and_solve(ring, a, b[:, None], count)
    mat = RMatrix(ring, a)
    expected = outcome(ref.select_independent_rows, mat, count)
    assert outcome(select_independent_rows, mat, count) == expected
    if expected[0] == "ok":
        assert picks == expected[1]
    else:
        assert expected == (
            NotEnoughIndependentRows,
            f"only {len(picks)} independent rows found, needed {count}",
        )


@settings(max_examples=400, deadline=None)
@given(systems())
def test_pick_and_solve_solves_the_picked_rows(system):
    ring, a, b = system
    cols = a.shape[1]
    picks, x, _ = _pick_and_solve(ring, a, b[:, None], cols)
    assume(len(picks) == cols)
    square, rhs = RMatrix(ring, a[picks]), RVector(ring, b[picks])
    solution = RVector(ring, x[:, 0])
    assert solution == solve_unique(square, rhs) == ref.solve_unique(square, rhs)
    assert square @ solution == rhs


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_unique_matches_the_reference(system):
    ring, a, b = system
    size = min(a.shape)
    square, rhs = RMatrix(ring, a[:size, :size]), RVector(ring, b[:size])
    new = outcome(solve_unique, square, rhs)
    assert new == outcome(ref.solve_unique, square, rhs)
    assert new[0] in ("ok", Singular)
