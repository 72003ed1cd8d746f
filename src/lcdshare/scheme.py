"""Multi-secret sharing on top of an LCD code.

The secret is a whole vector s in R^n.  Each participant i receives

    P_i = (c_i, x_i, y_i)   with   c_i = l_i G,
                                   x_i = c_i . s,
                                   y_i = c'_i . s,

where l_i is a dealer-chosen coefficient row, l'_i keeps the first
n - k coordinates of l_i, and c'_i = l'_i H lies in the dual code.
Any k participants whose codewords are independent can reconstruct s:
their c rows contribute k equations, and because the code is LCD the
dual-side rows c''_j rebuilt from l''_i = c_i G^+ contribute n - k
more, giving an invertible n x n system.

The scheme needs 2k >= n so that the truncation from l to l' removes
2k - n trailing coordinates and leaves exactly n - k of them.

recover never builds that n x n system.  With g = G s and h = H s,
x_i = l_i . g and y_i = l'_i . h = l_i . (h; 0), h padded with zeros:

1. one walk over the rows l_i = c_i G^+ of [L | x | y] picks the
   first k independent ones, P, and solves L_P [g | z] = [x_P | y_P];
   as L_P is invertible, z = (h; 0) for honest shares;
2. s = M^{-1} [g; h] is one product with the code's cached
   M^{-1} = [G^+ - H^T Q H G^+ | H^T Q], Q = (H H^T)^{-1}, which exists
   because the code is LCD: G s = g as G H^T = 0, and H s = h.

So some secret fits every picked share exactly when z is zero below
its first n - k entries; otherwise (a tampered y, say) recover raises
InvalidShare naming the picked ids.  When n = 2k there is no such
entry, and a tampered picked y goes unseen.

deal builds no dual words: c'_i = c_i D for the code's cached dual map
D = G^+[:, :n-k] H (as G G^+ = I), so x and y come from one C [s | D s].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .codes import LinearCode, _random_matrix, encode
from .errors import (
    BadParameters,
    DimensionMismatch,
    InvalidShare,
    NotEnoughIndependentShares,
    NotLcd,
)
from .linalg import RMatrix, RVector, _mod_matmul, _pick_and_solve, stack_rows
from .ring import RingSpec
from .rng import SplitMix64


@dataclass(frozen=True)
class Share:
    """One participant's holding: 1-based id, codeword, two residues."""

    id: int
    c: RVector
    x: int
    y: int


@dataclass(frozen=True)
class DealRecord:
    """Dealer-side audit trail: the seed and every coefficient row.

    coefficients holds (participant id, l_i) pairs in dealing order.
    """

    ring: RingSpec
    n: int
    k: int
    seed: int
    coefficients: tuple[tuple[int, RVector], ...]


def _check_code(code: LinearCode) -> None:
    if 2 * code.k < code.n:
        raise BadParameters(f"scheme needs 2k >= n, got k={code.k}, n={code.n}")
    if not code.lcd:
        raise NotLcd("the code is not LCD; secrets would not be recoverable")


def _check_scheme_inputs(code: LinearCode, secret: RVector) -> None:
    _check_code(code)
    if secret.ring != code.ring:
        raise DimensionMismatch("secret ring differs from the code ring")
    if len(secret) != code.n:
        raise DimensionMismatch(
            f"secret has length {len(secret)}, expected n={code.n}"
        )


def _xy(code: LinearCode, secret: RVector, words: np.ndarray) -> np.ndarray:
    """words [s | D s] for an (N, n) int64 block of codewords: each
    word's x = c . s and y = c . (D s), with D s computed once."""
    m, s = code.ring.m, secret.entries
    return _mod_matmul(words, np.column_stack([s, _mod_matmul(code.dual_map.entries, s, m)]), m)


def _deal_rows(
    code: LinearCode, secret: RVector, coefficients: RMatrix, first_id: int
) -> list[Share]:
    """Shares for every coefficient row at once: C = L G and
    [x | y] = C [s | D s], with ids counting up from first_id."""
    words = encode(code, coefficients)
    xy = _xy(code, secret, words.entries).tolist()
    return [
        Share(id=first_id + i, c=words.row(i), x=x, y=y)
        for i, (x, y) in enumerate(xy)
    ]


def deal_one(
    code: LinearCode, secret: RVector, coefficients: RVector, share_id: int = 1
) -> Share:
    """Produce a single share from an explicit coefficient row."""
    _check_scheme_inputs(code, secret)
    if share_id < 1:
        raise BadParameters(f"share id must be >= 1, got {share_id}")
    return _deal_rows(code, secret, stack_rows([coefficients]), share_id)[0]


def deal(
    code: LinearCode,
    secret: RVector,
    count: int,
    seed: int,
    coefficients: Optional[Sequence[RVector]] = None,
) -> tuple[list[Share], DealRecord]:
    """Deal `count` shares with ids 1..count.

    Coefficient rows are drawn uniformly from the seeded generator
    unless an explicit list overrides them; either way the seed is
    recorded, and SplitMix64 refuses one outside [0, 2^64).
    """
    _check_scheme_inputs(code, secret)
    if count < 1:
        raise BadParameters(f"count must be >= 1, got {count}")
    rng = SplitMix64(seed)
    if coefficients is not None:
        if len(coefficients) != count:
            raise BadParameters(
                f"{len(coefficients)} coefficient rows supplied for count={count}"
            )
        rows = stack_rows(list(coefficients))
    else:
        rows = _random_matrix(rng, code.ring, count, code.k)
    shares = _deal_rows(code, secret, rows, first_id=1)
    record = DealRecord(
        ring=code.ring,
        n=code.n,
        k=code.k,
        seed=seed,
        coefficients=tuple((i + 1, rows.row(i)) for i in range(count)),
    )
    return shares, record


def recover(code: LinearCode, shares: Sequence[Share]) -> RVector:
    """Reconstruct the secret from at least k independent shares.

    Rejects non-codeword shares, recomputes every coefficient row
    l_i = c_i G^+ (exact, as c_i = l_i G) and runs the steps in the
    module docstring: one walk over [L | x | y] for g and h, then
    s = M^{-1} [g; h].  Picked y values that fit no common secret raise
    InvalidShare.  Exactly k shares are consumed; extras beyond the
    selection only matter for auditing via verify_share.
    """
    _check_code(code)
    n, k, m = code.n, code.k, code.ring.m
    # shares fail in order: a non-codeword before the first foreign
    # share is reported as such, exactly as a per-share loop would
    fits = [share.c.ring == code.ring and len(share.c) == n for share in shares]
    first_foreign = fits.index(False) if False in fits else len(shares)
    words = np.array([share.c.entries for share in shares[:first_foreign]], dtype=np.int64)
    if first_foreign:
        bad = np.flatnonzero(_mod_matmul(words, code.H.entries.T, m).any(axis=1))
        if bad.size:
            raise InvalidShare(f"share {shares[bad[0]].id}: c is not a codeword")
    if first_foreign < len(shares):
        foreign = shares[first_foreign].id
        raise DimensionMismatch(f"share {foreign} does not match the code")
    if len(shares) < k:
        raise NotEnoughIndependentShares(
            f"{len(shares)} shares supplied, need at least k={k}"
        )
    coefficients = _mod_matmul(words, code.G_plus.entries, m)
    xy = np.array([(share.x % m, share.y % m) for share in shares], dtype=np.int64)
    picked, gz, _ = _pick_and_solve(code.ring, coefficients, xy, k)
    if len(picked) < k:
        raise NotEnoughIndependentShares(
            f"only {len(picked)} independent rows found, needed {k}"
        )
    if gz[n - k :, 1].any():
        ids = ", ".join(str(shares[i].id) for i in picked)
        raise InvalidShare(f"shares {ids}: their y values fit no common secret")
    gh = np.concatenate([gz[:, 0], gz[: n - k, 1]])
    return RVector(code.ring, _mod_matmul(code.stacked_inverse.entries, gh, m))


def verify_share(code: LinearCode, secret: RVector, share: Share) -> bool:
    """Audit one share against a candidate secret.

    True iff c is a codeword, x matches c . s, and y matches c . (D s)
    for the code's dual map D: for a codeword c = l G that is the dual
    word l[:n-k] H dotted with s, because c G^+ = l exactly.  One
    product with the code's cached block [H^T | D] gives c H^T and c D,
    and one more, [c; c D] s, gives both dot products.
    """
    _check_scheme_inputs(code, secret)
    c, m, r = share.c, code.ring.m, code.n - code.k
    if c.ring != code.ring or len(c) != code.n:
        return False
    sides = _mod_matmul(c.entries, code.audit_block, m)
    if np.count_nonzero(sides[:r]):
        return False
    x, y = _mod_matmul(np.array((c.entries, sides[r:])), secret.entries, m)
    return int(x) == share.x % m and int(y) == share.y % m


def _audit(code: LinearCode, secret: RVector, words: np.ndarray, x, y) -> np.ndarray:
    """verify_share's verdicts for the rows of an (N, n) int64 block of
    codewords in the code's ring, given their x and y values reduced
    mod m: the syndromes words H^T, and one product words [s | D s]
    against x and y, with D s computed once."""
    _check_scheme_inputs(code, secret)
    xy = _xy(code, secret, words)
    syndromes = _mod_matmul(words, code.H.entries.T, code.ring.m)
    return ~syndromes.any(axis=1) & (xy[:, 0] == x) & (xy[:, 1] == y)


def verify_shares(
    code: LinearCode, secret: RVector, shares: Sequence[Share]
) -> list[bool]:
    """verify_share for every share: False for a share whose codeword
    is in another ring or of another length, one _audit of the rest."""
    m = code.ring.m
    ok = np.array([s.c.ring == code.ring and len(s.c) == code.n for s in shares], dtype=bool)
    kept = [share for share, fit in zip(shares, ok) if fit]
    words = np.array([s.c.entries for s in kept], dtype=np.int64).reshape(-1, code.n)
    ok[ok] = _audit(code, secret, words, [s.x % m for s in kept], [s.y % m for s in kept])
    return ok.tolist()
