"""Per-code cached data, the batched dealer and auditor, the vectorised
generator and the rank-only elimination."""

import dataclasses

import numpy as np
import pytest

from lcdshare import (
    LinearCode,
    RMatrix,
    Share,
    SplitMix64,
    codes,
    deal,
    deal_one,
    make_ring,
    random_lcd_code,
    recover,
    right_inverse,
    vector,
    verify_share,
    verify_shares,
)
from lcdshare.errors import DimensionMismatch, InvalidShare, ValidationError
from lcdshare.linalg import _rref

MASK = (1 << 64) - 1
MODULI = [2, 4, 256, 65521, 2**31 - 1, 3**19, 3 * 2**62, 2**63 + 1]
SEEDS = [0, 1, 0xDEADBEEF, MASK]


def reference_residues(seed, count, m):
    """SplitMix64 and rejection sampling, one Python int at a time."""
    state, out = seed & MASK, []
    bound = (1 << 64) - (1 << 64) % m
    while len(out) < count:
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z ^= z >> 31
        if z < bound:
            out.append(z % m)
    return out


@pytest.mark.parametrize("m", MODULI)
def test_residues_match_the_scalar_reference(m):
    for seed in SEEDS:
        got = SplitMix64(seed).residues(9000, m)  # several numpy blocks
        assert got == reference_residues(seed, 9000, m)
        assert all(type(v) is int for v in got)


@pytest.mark.parametrize("m", MODULI)
def test_residues_advance_the_state_by_the_draws_consumed(m):
    for seed in SEEDS:
        rng = SplitMix64(seed)
        split = rng.residues(37, m) + rng.residues(0, m) + rng.residues(4963, m)
        assert split == SplitMix64(seed).residues(5000, m)
        # the scalar path continues exactly where the block left off
        assert rng.residue(m) == reference_residues(seed, 5001, m)[-1]


def test_residues_reject_a_nonpositive_modulus():
    with pytest.raises(ValueError):
        SplitMix64(1).residues(3, 0)


@pytest.fixture(scope="module")
def z256_code():
    return random_lcd_code(make_ring(2, 8), n=16, k=10, seed=3)


def test_batched_deal_equals_deal_one_row_by_row(z256_code):
    code = z256_code
    secret = vector(code.ring, range(3, 3 + code.n))
    shares, record = deal(code, secret, count=50, seed=12)
    for (pid, l), share in zip(record.coefficients, shares):
        assert deal_one(code, secret, l, share_id=pid) == share


def test_dual_map_gives_the_dealt_dual_words(z256_code):
    code = z256_code
    assert code.G @ code.G_plus == RMatrix.identity(code.ring, code.k)
    _, record = deal(code, vector(code.ring, [0] * code.n), count=20, seed=5)
    for _, l in record.coefficients:
        truncated = vector(code.ring, l.tolist()[: code.n - code.k])
        assert (l @ code.G) @ code.dual_map == truncated @ code.H


def test_lcd_elimination_runs_once_per_code_object(z256_code, monkeypatch):
    calls = []
    original = codes.is_lcd

    def counting(code):
        calls.append(code)
        return original(code)

    monkeypatch.setattr(codes, "is_lcd", counting)
    g, h = z256_code.G, z256_code.H
    fresh = LinearCode(ring=g.ring, n=z256_code.n, k=z256_code.k, G=g, H=h)
    secret = vector(fresh.ring, range(fresh.n))
    shares, _ = deal(fresh, secret, count=1000, seed=9)
    assert all(verify_share(fresh, secret, share) for share in shares)
    assert recover(fresh, shares[:40]) == secret
    assert calls == [fresh]

    other = LinearCode(ring=g.ring, n=z256_code.n, k=z256_code.k, G=g, H=h)
    assert verify_share(other, secret, shares[0])
    assert len(calls) == 2


def test_gram_elimination_runs_once_per_code_object(z256_code, monkeypatch):
    g, h, n, k = z256_code.G, z256_code.H, z256_code.n, z256_code.k
    fresh = LinearCode(ring=g.ring, n=n, k=k, G=g, H=h)
    lcd_calls, eliminated = [], []
    is_lcd, rref = codes.is_lcd, codes._rref
    monkeypatch.setattr(codes, "is_lcd", lambda code: lcd_calls.append(code) or is_lcd(code))
    monkeypatch.setattr(
        codes, "_rref", lambda ring, a, **kw: eliminated.append(a.shape) or rref(ring, a, **kw)
    )
    secret = vector(fresh.ring, range(7, 7 + n))
    shares, _ = deal(fresh, secret, count=100, seed=6)
    for i in range(100):
        assert recover(fresh, shares[i:] + shares[:i]) == secret
    assert lcd_calls == [fresh]
    assert eliminated == [(n - k, n - k)]  # H H^T, once, for Q and the verdict


def test_code_data_is_read_only(z256_code):
    code = z256_code
    cached = (code.G_plus, code.dual_map, code.gram_inverse)
    for arr in (code.G.entries, code.H.entries) + tuple(mat.entries for mat in cached):
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.G = code.H
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.G.entries = code.H.entries


def test_recover_names_the_first_bad_share(z256_code):
    code = z256_code
    secret = vector(code.ring, [1] * code.n)
    shares, _ = deal(code, secret, count=12, seed=4)
    forged = list(shares)
    for i in (4, 7):
        bad = shares[i].c.tolist()
        bad[0] = (bad[0] + 1) % code.ring.m
        forged[i] = Share(shares[i].id, vector(code.ring, bad), shares[i].x, shares[i].y)
    with pytest.raises(InvalidShare, match=r"^share 5: c is not a codeword$"):
        recover(code, forged)


def test_recover_reports_shares_in_order(z256_code):
    code = z256_code
    secret = vector(code.ring, [1] * code.n)
    shares, _ = deal(code, secret, count=12, seed=4)
    bad = shares[2].c.tolist()
    bad[0] = (bad[0] + 1) % code.ring.m
    forged = Share(shares[2].id, vector(code.ring, bad), shares[2].x, shares[2].y)
    short = Share(shares[6].id, vector(code.ring, [0] * (code.n - 1)), 0, 0)
    mixed = list(shares)
    mixed[2], mixed[6] = forged, short
    with pytest.raises(InvalidShare, match=r"^share 3: c is not a codeword$"):
        recover(code, mixed)
    mixed[2] = shares[2]
    with pytest.raises(DimensionMismatch, match=r"^share 7 does not match the code$"):
        recover(code, mixed)
    mixed[9] = forged
    with pytest.raises(DimensionMismatch, match=r"^share 7 does not match the code$"):
        recover(code, mixed)


# ------------------------------------------------- rank-only elimination


@pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (3, 2), (65521, 1)])
def test_rank_only_elimination_finds_the_pivots_of_the_full_one(p, e):
    ring = make_ring(p, e)
    rng = np.random.default_rng(p * 10 + e)
    for trial in range(150):
        rows, cols = rng.integers(1, 20, size=2)
        a = rng.integers(0, ring.m, size=(rows, cols))
        if trial % 2:  # mostly nilpotent entries: multiples of p
            a = np.where(rng.random((rows, cols)) < 0.85, a * p % ring.m, a)
        _, U, pivots = _rref(ring, a, pivots_only=True)
        assert U is None
        assert pivots == _rref(ring, a)[2]


# ------------------------------------- one elimination per generated code


def test_generated_codes_take_g_plus_from_their_own_elimination(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat)
        return right_inverse(mat)

    monkeypatch.setattr(codes, "right_inverse", counting)
    for p, e in [(2, 1), (2, 2), (3, 2), (65521, 1)]:
        code = random_lcd_code(make_ring(p, e), n=12, k=7, seed=p + e)
        assert calls == []  # validate() took the G^+ of parity_check_from_generator
        seeded, fresh = code.G_plus.entries, right_inverse(code.G).entries
        assert seeded.dtype == fresh.dtype and np.array_equal(seeded, fresh)


def test_a_given_g_plus_must_be_a_right_inverse():
    code = random_lcd_code(make_ring(3, 2), n=10, k=6, seed=4)
    ring, n, k = code.ring, code.n, code.k
    rebuild = lambda G, G_plus: LinearCode(ring, n, k, G, code.H, _known_G_plus=G_plus)
    assert rebuild(code.G, code.G_plus).G_plus == code.G_plus

    off_by_one = code.G_plus.entries.copy()
    off_by_one[0, 0] = (off_by_one[0, 0] + 1) % ring.m
    short = code.G_plus.take_cols(range(k - 1))
    other_ring = RMatrix(make_ring(2, 2), code.G_plus.entries % 4)
    for wrong in [RMatrix(ring, off_by_one), short, other_ring, code.G_plus.T]:
        with pytest.raises(ValidationError, match="^G is not full row rank$"):
            rebuild(code.G, wrong)
    # a rank-deficient G has no right inverse, so no G^+ can vouch for it
    deficient = code.G.entries.copy()
    deficient[-1] = 3 * deficient[-1] % ring.m
    with pytest.raises(ValidationError, match="^G is not full row rank$"):
        rebuild(RMatrix(ring, deficient), code.G_plus)


# ------------------------------------------------------ batched audit


def test_batched_audit_equals_one_verify_share_per_share(z256_code):
    code = z256_code
    secret = vector(code.ring, range(5, 5 + code.n))
    shares, _ = deal(code, secret, count=30, seed=8)
    tampered = list(shares)
    s = shares[3]
    tampered[3] = Share(s.id, s.c, (s.x + 1) % code.ring.m, s.y)
    s = shares[11]
    tampered[11] = Share(s.id, s.c, s.x, (s.y + 255) % code.ring.m)
    s = shares[20]
    bad = s.c.tolist()
    bad[2] = (bad[2] + 1) % code.ring.m
    tampered[20] = Share(s.id, vector(code.ring, bad), s.x, s.y)
    s = shares[25]
    tampered[25] = Share(s.id, vector(code.ring, [0] * (code.n - 1)), s.x, s.y)
    tampered[26] = Share(s.id, s.c, s.x + code.ring.m, s.y - code.ring.m)
    expected = [verify_share(code, secret, share) for share in tampered]
    assert expected.count(False) == 4
    assert verify_shares(code, secret, tampered) == expected
    assert verify_shares(code, secret, []) == []
