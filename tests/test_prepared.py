"""Per-code cached data, the batched dealer and auditor, the vectorised
generator, and the codes that generation pins."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_recover as ref

from lcdshare import (
    LinearCode,
    RMatrix,
    Share,
    SplitMix64,
    codes,
    deal,
    deal_one,
    linalg,
    make_ring,
    random_lcd_code,
    recover,
    right_inverse,
    scheme,
    select_independent_rows,
    stack_rows,
    vector,
    verify_share,
    verify_shares,
)
from lcdshare.errors import (
    DimensionMismatch,
    GenerationFailed,
    InvalidShare,
    NotEnoughIndependentShares,
    ValidationError,
)

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
        assert rng.residues(1, m)[0] == reference_residues(seed, 5001, m)[-1]


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


@settings(max_examples=40, deadline=None)
@given(
    ring=st.sampled_from([(2, 1), (2, 2), (3, 2), (65521, 1)]),
    shape=st.sampled_from(["2k = n", "k = n", "n < 2k < 2n"]),
    size=st.integers(1, 4),
    count=st.integers(1, 10),
    seed=st.integers(0, 2**64 - 1),
)
def test_dealt_y_is_the_dual_word_dotted_with_the_secret(ring, shape, size, count, seed):
    """The paper's definition: y_i = c'_i . s with c'_i = l_i[:n-k] H."""
    ring = make_ring(*ring)
    n, k = {"2k = n": (2 * size, size), "k = n": (2 * size - 1, 2 * size - 1),
            "n < 2k < 2n": (2 * size + 1, size + 1)}[shape]
    try:
        code = random_lcd_code(ring, n, k, seed, max_tries=200)
    except GenerationFailed:
        assume(False)
    secret = vector(ring, np.random.default_rng(seed % 2**32).integers(0, ring.m, size=n))
    shares, record = deal(code, secret, count=count, seed=seed)
    for (pid, l), share in zip(record.coefficients, shares):
        assert share.id == pid and share.c == l @ code.G
        assert share.x == share.c @ secret
        assert share.y == (vector(ring, l.tolist()[: n - k]) @ code.H) @ secret


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
    """Validation runs the Gram walk, and only a code that it finds not
    LCD has H's rank walked apart; recoveries derive nothing again."""
    g, h, n, k, ring = z256_code.G, z256_code.H, z256_code.n, z256_code.k, z256_code.ring
    gram_walks, rank_checks, library_walks = [], [], []
    walk, full_rank, library_walk = (
        codes._pick_and_solve, codes.is_full_row_rank, linalg._pick_and_solve
    )
    monkeypatch.setattr(
        codes, "_pick_and_solve",
        lambda ring, a, b, count: gram_walks.append(a.shape) or walk(ring, a, b, count),
    )
    monkeypatch.setattr(
        codes, "is_full_row_rank", lambda mat: rank_checks.append(mat) or full_rank(mat)
    )
    monkeypatch.setattr(
        linalg, "_pick_and_solve",
        lambda *args: library_walks.append(args) or library_walk(*args),
    )
    fresh = LinearCode(ring=ring, n=n, k=k, G=g, H=h)
    assert fresh.lcd and "gram_inverse" in vars(fresh)
    assert gram_walks == [(n - k, n - k)] and rank_checks == []
    assert len(library_walks) == 1  # G^+, as no right inverse was passed

    seed = next(s for s in range(100) if not codes.random_code(ring, n, k, s).lcd)
    gram_walks.clear()
    rank_checks.clear()
    other = codes.random_code(ring, n, k, seed)
    assert not other.lcd
    assert gram_walks == [(n - k, n - k)] and rank_checks == [other.H]

    # H's last row times p still annihilates G but is all nilpotent, and
    # H H^T, no longer invertible, sends validation to H's rank
    deficient = h.entries.copy()
    deficient[-1] = deficient[-1] * ring.p % ring.m
    rank_checks.clear()
    with pytest.raises(ValidationError, match="^H is not full row rank$"):
        LinearCode(ring=ring, n=n, k=k, G=g, H=RMatrix(ring, deficient))
    assert len(rank_checks) == 1

    secret = vector(ring, range(7, 7 + n))
    shares, _ = deal(fresh, secret, count=100, seed=6)
    for calls in (gram_walks, rank_checks, library_walks):
        calls.clear()
    for i in range(100):
        assert recover(fresh, shares[i:] + shares[:i]) == secret
    # M^{-1} is built from the cached G^+ and Q with products alone
    assert "stacked_inverse" in vars(fresh)
    assert gram_walks == rank_checks == library_walks == []


def test_code_data_is_read_only(z256_code):
    code = z256_code
    cached = (code.G_plus, code.dual_map, code.gram_inverse, code.stacked_inverse)
    arrays = (code.G.entries, code.H.entries, code.audit_block)
    for arr in arrays + tuple(mat.entries for mat in cached):
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.G = code.H
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.G.entries = code.H.entries


STACKED_RINGS = [(2, 1), (2, 2), (3, 2), (2, 8), (65521, 1), (2**31 - 1, 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacked_inverse_inverts_g_over_h(data):
    ring = make_ring(*data.draw(st.sampled_from(STACKED_RINGS)))
    n = data.draw(st.integers(1, 8))
    shape = data.draw(st.sampled_from(["k = n", "n = 2k", "any"]))
    if shape == "n = 2k":
        n += n % 2
    k = n if shape == "k = n" else n // 2 if shape == "n = 2k" else data.draw(st.integers(1, n))
    try:
        code = random_lcd_code(ring, n, k, data.draw(st.integers(0, 2**64 - 1)), max_tries=200)
    except GenerationFailed:
        assume(False)
    stacked, inverse = stack_rows([code.G, code.H]), code.stacked_inverse
    assert stacked @ inverse == RMatrix.identity(ring, n)
    assert inverse @ stacked == RMatrix.identity(ring, n)


def test_only_verify_share_builds_the_audit_block(z256_code):
    g, h, n, k = z256_code.G, z256_code.H, z256_code.n, z256_code.k
    fresh = LinearCode(ring=g.ring, n=n, k=k, G=g, H=h)
    secret = vector(fresh.ring, range(2, 2 + n))
    shares, record = deal(fresh, secret, count=50, seed=3)
    assert deal_one(fresh, secret, record.coefficients[0][1]) == shares[0]
    assert recover(fresh, shares[5:30]) == secret
    assert all(verify_shares(fresh, secret, shares))
    assert "audit_block" not in vars(fresh)
    assert verify_share(fresh, secret, shares[0])
    block = vars(fresh)["audit_block"]
    assert block.shape == (n, 2 * n - k) and block.dtype == np.int64
    assert np.array_equal(block, np.hstack([h.entries.T, fresh.dual_map.entries]))


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


# ------------------------------------------------ one walk per recovery


def counted_recover(code, shares, monkeypatch):
    """recover's outcome, as the secret or the exception it raised, and
    the number of row walks it made."""
    walks, walk = [], scheme._pick_and_solve
    with monkeypatch.context() as patch:
        patch.setattr(scheme, "_pick_and_solve", lambda *a: walks.append(1) or walk(*a))
        try:
            return recover(code, shares), len(walks)
        except InvalidShare as exc:
            return exc, len(walks)


def test_recover_walks_once_and_refuses_a_contradictory_picked_y(z256_code, monkeypatch):
    code = z256_code
    secret = vector(code.ring, range(3, 3 + code.n))
    shares, _ = deal(code, secret, count=14, seed=8)
    assert counted_recover(code, shares, monkeypatch) == (secret, 1)
    s = shares[0]  # picked, as its coefficient row is not all nilpotent
    tampered = [Share(s.id, s.c, s.x, (s.y + 1) % code.ring.m)] + shares[1:]
    refusal, walks = counted_recover(code, tampered, monkeypatch)
    words = stack_rows([share.c for share in shares])
    picked = select_independent_rows(words @ code.G_plus, code.k)
    assert 0 in picked
    ids = ", ".join(str(shares[i].id) for i in picked)
    assert walks == 1 and isinstance(refusal, InvalidShare)
    assert str(refusal) == f"shares {ids}: their y values fit no common secret"
    # the old answer fits the tampered share, whose y it solved for, and
    # breaks another picked share instead
    old = ref.recover(code, tampered)
    assert verify_share(code, old, tampered[0])
    assert old != secret and not all(verify_shares(code, old, tampered))


def refusal_or_secret(recover, code, shares):
    try:
        return "ok", recover(code, shares)
    except NotEnoughIndependentShares as exc:
        return NotEnoughIndependentShares, str(exc)


def test_recover_matches_the_reference_on_the_benchmark_shape():
    ring = make_ring(2, 2)
    code = random_lcd_code(ring, n=32, k=16, seed=11)
    rng = np.random.default_rng(11)
    secret = vector(ring, rng.integers(0, ring.m, size=32))
    shares, _ = deal(code, secret, count=300, seed=12)
    for _ in range(40):
        subset = [shares[i] for i in rng.choice(300, size=20, replace=False)]
        new = refusal_or_secret(recover, code, subset)
        assert new == refusal_or_secret(ref.recover, code, subset)
        assert new[0] != "ok" or new[1] == secret


# ------------------------------------- one elimination per generated code


def test_generated_codes_take_g_plus_from_their_own_elimination(monkeypatch):
    drawn, walked = [], []

    def drawing(*args):
        generator = random_matrix(*args)
        drawn.append(generator.entries)
        return generator

    def counting(ring, a, b, count):
        walked.append(a)
        return pick_and_solve(ring, a, b, count)

    random_matrix, pick_and_solve = codes._random_matrix, linalg._pick_and_solve
    monkeypatch.setattr(codes, "_random_matrix", drawing)
    monkeypatch.setattr(linalg, "_pick_and_solve", counting)
    monkeypatch.setattr(codes, "_pick_and_solve", counting)
    for p, e in [(2, 1), (2, 2), (3, 2), (65521, 1)]:
        drawn.clear()
        walked.clear()
        code = random_lcd_code(make_ring(p, e), n=12, k=7, seed=p + e)
        for generator in drawn:  # one walk over G^T per draw, accepted or not
            assert sum(np.array_equal(a, generator.T) for a in walked) == 1
        seeded, fresh = code.G_plus.entries, right_inverse(code.G).entries
        assert seeded.dtype == fresh.dtype and np.array_equal(seeded, fresh)


# sha256 of the bytes of G, H and G^+ from random_lcd_code for the three
# benchmark shapes; a change of elimination must not change any of them.
GENERATED_DIGESTS = {
    (2, 8, 64, 40, 1): (
        "625aa16854cb955ec4bc3ede75bd2265164c53adfbe2a3ad9ad348db86ae776d",
        "c0e9afaf37884099f05b4eb8997998cc3fe93c53bc09d703b5fd27a747e22f5a",
        "75290477e9098f7f59a58300249c19d59d1c97dc78bf5d5baf1a3c271fd6a35e",
    ),
    (2, 8, 64, 40, 2): (
        "cc3a1fbc093ecaf037bcd40ae3d997ec828d319e3c4672f964cf4a49945149b0",
        "0f678c28adf207c8f1d3116ac90f8f0061e586117ffe812c68b8545e02b15741",
        "eeec4c32684205613579e8686b9b148b67c3e56dbdd26de0df80b49a99006b31",
    ),
    (2, 8, 64, 40, 3): (
        "14105bde45da37b2cc47a8bedacb62049d889a54c6b7a7cabf43d3903e08d9a9",
        "bdaa47f7bd9d48dc3b395e3b18e1d3fbdb390688ee5532be99e5d32908f70619",
        "6b85397fff3f2cf5f6a97736bc5081fe4f57ca3163be546f5b425ed15f790e63",
    ),
    (2, 2, 32, 16, 1): (
        "acd5f7a2aba3bb0e232553dd914eb8196c75f50578eeb4091f6c736d1d2d2e77",
        "6fb8f9bba4b7495ad1d8e440e0b389edd37a62a9312ed190543ee10012ed87b3",
        "2d33ff95794a662956ef028ac11490c297a9a0fcea8c36d0aae9d0a66510ea63",
    ),
    (2, 2, 32, 16, 2): (
        "951e94c4597e6b190305b4d4212c087edb335f27baee0833d52c5afdd0305081",
        "5f3b9adb1ac46343b9f11910fc506e9c4b7838be61548e3406065d5856929d41",
        "b553abc50239ce4517d32235cc210a3ac80d4a20a13c77f638cc9f5308c56f24",
    ),
    (2, 2, 32, 16, 3): (
        "e28e1cd4407740d2d655c6258e127dd6ed9fed4115b929a9dd722e45524d8ec1",
        "9a8f43f3f51a7fca7dcf91eaf5228424c0b1f759f8bf7a89ebf7daa5a2653c83",
        "fe51e33c58c071ba2409e6a1bd32d7cfc12469f462d03ca52551416365b5960d",
    ),
    (65521, 1, 64, 40, 1): (
        "b6a636b1231d8fff1537533761e8fbdb5b3006395aaa63d8c50b9146d35eb966",
        "d3807e8999e2bc3eae3eb83a73eba7e703c71e0ce6e8b14a470f0e6e64774290",
        "15f1902e24794b4701b00f6ec7c68082f30d221d4213a7c1d7fa0ebabded6c6e",
    ),
    (65521, 1, 64, 40, 2): (
        "031d29cf367a7b4a3444dcbebe8b7f718b08f43b3581240aadf4832b4a7fcd07",
        "2856e170f00df06e0b264dd2382f4f95329f73064588ef84ff2e1faede4d2d1c",
        "b51e343614fc8389b52f9c01138f9d83ee14a5d1f155ef7ab788da3cbb22e453",
    ),
    (65521, 1, 64, 40, 3): (
        "df764cb3713b968203ec35bed70da4cddf7f5f9636e47a7ab9c2ec3e2bef6019",
        "56857e7b6bac5f9a7f0a0c68e16b333c5e9c4c047c1e797b0a568f21bb922f04",
        "1776294b0ec7a5adf47c297c94e59041ff6ed15f3c7c127848b84db6f646a955",
    ),
}


@pytest.mark.parametrize("p, e, n, k, seed", sorted(GENERATED_DIGESTS))
def test_generated_codes_are_pinned(p, e, n, k, seed):
    code = random_lcd_code(make_ring(p, e), n, k, seed)
    digests = tuple(
        hashlib.sha256(mat.entries.tobytes()).hexdigest()
        for mat in (code.G, code.H, code.G_plus)
    )
    assert all(mat.entries.dtype == np.int64 for mat in (code.G, code.H, code.G_plus))
    assert digests == GENERATED_DIGESTS[p, e, n, k, seed]


def test_a_given_g_plus_must_be_a_right_inverse():
    """A handed-in G^+ is cached as it is: its only source,
    parity_check_from_generator, passes right_inverse(G)."""
    code = random_lcd_code(make_ring(3, 2), n=10, k=6, seed=4)
    ring, n, k = code.ring, code.n, code.k
    rebuild = lambda G, G_plus: LinearCode(ring, n, k, G, code.H, _known_G_plus=G_plus)
    assert rebuild(code.G, code.G_plus).G_plus == code.G_plus


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
