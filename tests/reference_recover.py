"""recover, select_independent_rows and solve_unique as they were before
recovery picked and solved the coefficient rows in one pass (and row
selection became the same walk), kept as the reference for the
differential tests in test_recover_differential.py.  recover row-selects
the codewords, then the truncated coefficient rows, and solves the
stacked n x n system with the full elimination and its transform; the
LCD check is the rank of the stacked (G over H), as is_lcd computed it.
lcdshare.scheme.recover must return the same secret or raise the same
class with the same message on every input.

_rref is the Gauss-Jordan elimination the library used before the row
walk became its only elimination.  Everything here eliminates with it,
so the differential tests (and test_elimination_differential.py) check
the walk against an independent routine rather than against itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lcdshare.codes import LinearCode
from lcdshare.errors import (
    BadParameters,
    DimensionMismatch,
    InvalidShare,
    LcdshareError,
    NotEnoughIndependentRows,
    NotEnoughIndependentShares,
    NotLcd,
    Singular,
)
from lcdshare.linalg import RMatrix, RVector, _mod_matmul, stack_rows, vector
from lcdshare.ring import RingSpec
from lcdshare.scheme import Share


class InternalSingular(LcdshareError):
    """The stacked recovery system was singular; impossible for a valid
    LCD code, so treated as evidence of corrupted inputs.  Raised only
    here: the library no longer defines it."""


def _rref(ring: RingSpec, a: np.ndarray, pivots_only: bool = False):
    """Reduced row echelon form using unit pivots only.

    Returns (E, U, pivots) with U @ a == E (mod m), U invertible, and
    pivots the list of pivot column indices in increasing order.  Rows
    that end without a pivot consist entirely of nilpotent entries.

    Pivot choice is deterministic: first eligible column, topmost unit
    entry within it.  The search reads only the rows below the pivots
    found so far, so with pivots_only the elimination skips U (returned
    as None) and the rows above each pivot, and yields the same pivots
    from a plain echelon form E.
    """
    m, p = ring.m, ring.p
    rows, cols = a.shape
    E = a.astype(np.int64, copy=True) % m
    U = None if pivots_only else np.eye(rows, dtype=np.int64)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(E[r:, c] % p != 0)[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            E[[r, i]] = E[[i, r]]
            if U is not None:
                U[[r, i]] = U[[i, r]]
        inv = ring.inverse(int(E[r, c]))
        E[r] = E[r] * inv % m
        if pivots_only:
            below = E[r + 1 :, c:]
            below[:] = (below - np.outer(below[:, 0], E[r, c:])) % m
        else:
            U[r] = U[r] * inv % m
            factors = E[:, c].copy()
            factors[r] = 0
            E = (E - np.outer(factors, E[r])) % m
            U = (U - np.outer(factors, U[r])) % m
        pivots.append(c)
        r += 1
    return E, U, pivots


def is_lcd(code: LinearCode) -> bool:
    """LCD test via invertibility of the stacked (G over H) matrix."""
    stacked = stack_rows([code.G, code.H])
    _, _, pivots = _rref(code.ring, stacked.entries, pivots_only=True)
    return len(pivots) == stacked.rows


def _check_code(code: LinearCode) -> None:
    if 2 * code.k < code.n:
        raise BadParameters(f"scheme needs 2k >= n, got k={code.k}, n={code.n}")
    if not is_lcd(code):
        raise NotLcd("the code is not LCD; secrets would not be recoverable")


def select_independent_rows(mat: RMatrix, count: int) -> list[int]:
    """Greedy lowest-index-first choice of `count` rows with full row
    rank; returns the lexicographically first such index set.  A row is
    taken iff it raises the unit rank of the rows above it, that is, iff
    its column of mat^T is a pivot column.

    Whether a column is a pivot depends only on the columns before it,
    so a prefix of the rows is eliminated first and doubled until it
    holds `count` pivots; a long stack of shares is rarely read whole.
    """
    if count < 0 or count > mat.rows:
        raise BadParameters(f"cannot select {count} rows from {mat.rows}")
    size = count
    while True:
        _, _, pivots = _rref(mat.ring, mat.entries[:size].T, pivots_only=True)
        if len(pivots) >= count or size >= mat.rows:
            break
        size = min(2 * size, mat.rows)
    if len(pivots) < count:
        raise NotEnoughIndependentRows(
            f"only {len(pivots)} independent rows found, needed {count}"
        )
    return pivots[:count]


def solve_unique(a: RMatrix, b: RVector) -> RVector:
    """Solve a @ x = b for square invertible a; the transform from the
    elimination is exactly a^{-1} when all pivots are units."""
    if a.ring != b.ring:
        raise DimensionMismatch(f"mixed rings {a.ring} and {b.ring}")
    if a.rows != a.cols:
        raise DimensionMismatch(f"system matrix must be square, got {a.shape}")
    if a.rows != len(b):
        raise DimensionMismatch(f"{a.shape} system with length-{len(b)} right side")
    _, U, pivots = _rref(a.ring, a.entries)
    if len(pivots) < a.rows:
        raise Singular(
            f"system matrix has unit rank {len(pivots)} < {a.rows}; "
            "no unique solution"
        )
    x = _mod_matmul(U, b.entries[:, None], a.ring.m)
    return RVector(a.ring, x[:, 0])



def recover(code: LinearCode, shares: Sequence[Share]) -> RVector:
    """Reconstruct the secret from at least k independent shares.

    Steps: reject non-codeword shares; greedily pick the first k whose
    codewords are independent; recompute l''_i = c_i G^+ and truncate
    each row to its first n - k coordinates; greedily pick n - k
    independent truncated rows and push them through H to get dual
    codewords; solve the stacked n x n system against the matching
    x and y values.  Exactly k shares are consumed; extras beyond the
    selection only matter for auditing via verify_share.
    """
    _check_code(code)
    n, k = code.n, code.k
    # shares fail in order: a non-codeword before the first foreign
    # share is reported as such, exactly as a per-share loop would
    fits = [share.c.ring == code.ring and len(share.c) == n for share in shares]
    first_foreign = fits.index(False) if False in fits else len(shares)
    if first_foreign:
        c_matrix = stack_rows([share.c for share in shares[:first_foreign]])
        bad = np.flatnonzero((c_matrix @ code.H.T).entries.any(axis=1))
        if bad.size:
            raise InvalidShare(f"share {shares[bad[0]].id}: c is not a codeword")
    if first_foreign < len(shares):
        foreign = shares[first_foreign].id
        raise DimensionMismatch(f"share {foreign} does not match the code")
    if len(shares) < k:
        raise NotEnoughIndependentShares(
            f"{len(shares)} shares supplied, need at least k={k}"
        )
    try:
        picked = select_independent_rows(c_matrix, k)
    except NotEnoughIndependentRows as exc:
        raise NotEnoughIndependentShares(str(exc)) from exc
    selected = [shares[i] for i in picked]

    words = c_matrix.take_rows(picked)
    truncated = (words @ code.G_plus).take_cols(range(n - k))
    try:
        dual_picks = select_independent_rows(truncated, n - k)
    except NotEnoughIndependentRows as exc:
        # impossible for a valid LCD code; inputs must be corrupted
        raise InternalSingular(str(exc)) from exc

    system = stack_rows([words, truncated.take_rows(dual_picks) @ code.H])
    values = [share.x for share in selected] + [selected[j].y for j in dual_picks]
    try:
        return solve_unique(system, vector(code.ring, values))
    except Singular as exc:
        raise InternalSingular(str(exc)) from exc

