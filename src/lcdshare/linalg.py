"""Exact linear algebra over Z_{p^e} with unit-pivot Gaussian elimination.

Because Z_{p^e} is a local ring, an entry can serve as a pivot exactly
when it is a unit (not divisible by p).  Elimination that only ever
pivots on units yields a well-defined rank:

    unit_rank(M) = number of unit pivots
                 = largest size of an invertible square submatrix
                 = classical rank of (M mod p) over the field F_p.

Full row rank in this sense is equivalent to having a right inverse,
and its failure is equivalent to the existence of a nonzero left null
vector; both directions are constructive here.

Vectors and matrices wrap immutable int64 numpy arrays in canonical
residue form, and they multiply; elementwise work is done on .entries
and reduced mod m by the caller.  Every product, on ring arrays and raw
blocks alike, goes through one kernel, _mod_matmul, which takes 1-D
and 2-D operands and shapes its result as numpy's `@` does: a vector
is a row on the left and a column on the right.  It accumulates in
chunks sized so that no intermediate ever exceeds the int64 range,
which keeps every operation exact for any modulus up to 2**31 - 1.

The row walk and the ring arrays reduce into [0, m), and test units
mod p, with the ufunc _reducer picks from m: a mask with m - 1 for a
power of two, exact on every int64 in two's complement, and otherwise
a remainder.  _mod_matmul keeps `%`, as its results are too small for
the mask to repay the call that chooses it.

All elimination is one routine, _pick_and_solve, with a fixed pivot
policy for reproducibility: walk the rows in order, take each row that
raises the unit rank, and pivot it on its first unit column.  The rows
it takes from M^T are the pivot columns of M, so a right inverse (and
from it a parity check matrix) comes from the walk over M^T; a block
right-hand side gives inverses and solutions, one of width 0 gives the
rank, and the first row it skips gives a left null vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    BadParameters,
    DimensionMismatch,
    NotEnoughIndependentRows,
    NotFullRowRank,
    Singular,
)
from .ring import RingSpec

_INT64_MAX = 2**63 - 1


def _reducer(m: int) -> tuple[np.ufunc, int]:
    """(ufunc, operand) with ufunc(arr, operand[, out=]) equal to
    arr mod m in [0, m) for any int64 arr; see the module docstring."""
    return (np.remainder, m) if m & (m - 1) else (np.bitwise_and, m - 1)


def _mod_matmul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact (a @ b) % m for 1-D or 2-D int64 arrays with entries in
    [0, m), m >= 2, shaped as a @ b is (a 0-D result for two vectors).

    A single int64 dot product can overflow once the inner dimension
    exceeds (2**63 - m) / (m-1)**2, so the accumulation is chunked to
    stay below that bound.  For small moduli the chunk covers the whole
    inner dimension and this is one plain matmul.
    """
    chunk = (_INT64_MAX - m) // ((m - 1) * (m - 1))
    if a.shape[-1] <= chunk:
        return (a @ b) % m
    acc = 0
    for start in range(0, a.shape[-1], chunk):
        acc = (acc + a[..., start : start + chunk] @ b[start : start + chunk]) % m
    return acc


@dataclass(frozen=True, eq=False)
class _RArray:
    """What RVector and RMatrix share: an immutable array over a ring,
    entries canonical in [0, m), compared elementwise and multiplied."""

    ring: RingSpec
    entries: np.ndarray

    def __post_init__(self):
        reduce, operand = _reducer(self.ring.m)
        arr = reduce(np.asarray(self.entries, dtype=np.int64), operand)
        if arr.ndim != self._NDIM:
            raise DimensionMismatch(
                f"{self._KIND} must be {self._NDIM}-D, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.ring == other.ring
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.ring, self.entries.shape, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.ring}, {self.tolist()})"

    def tolist(self) -> list:
        return self.entries.tolist()

    def __matmul__(self, other):
        """The exact product, shaped as numpy shapes it: a vector is a
        row on the left and a column on the right, so vector @ vector is
        an int and every other pairing an RVector or RMatrix."""
        if not isinstance(other, _RArray):
            return NotImplemented
        if self.ring != other.ring:
            raise DimensionMismatch(f"mixed rings {self.ring} and {other.ring}")
        a, b = self.entries, other.entries
        if a.shape[-1] != b.shape[0]:
            raise DimensionMismatch(f"shapes {a.shape} @ {b.shape}")
        prod = _mod_matmul(a, b, self.ring.m)
        if not prod.ndim:
            return int(prod)
        return (RVector if prod.ndim == 1 else RMatrix)(self.ring, prod)


class RVector(_RArray):
    """Immutable vector over a ring; entries canonical in [0, m)."""

    _NDIM, _KIND = 1, "vector"

    def __len__(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, i: int) -> int:
        return int(self.entries[i])

    def __iter__(self):
        return (int(v) for v in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries.any()


class RMatrix(_RArray):
    """Immutable matrix over a ring; entries canonical in [0, m)."""

    _NDIM, _KIND = 2, "matrix"

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def T(self) -> "RMatrix":
        return RMatrix(self.ring, self.entries.T)

    def row(self, i: int) -> RVector:
        return RVector(self.ring, self.entries[i])

    def take_rows(self, indices: Sequence[int]) -> "RMatrix":
        return RMatrix(self.ring, self.entries[list(indices)])

    def take_cols(self, indices: Sequence[int]) -> "RMatrix":
        return RMatrix(self.ring, self.entries[:, list(indices)])

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "RMatrix":
        return cls(ring, np.eye(n, dtype=np.int64))


def vector(ring: RingSpec, values: Iterable[int]) -> RVector:
    """Build a canonical vector; values are reduced mod p**e."""
    return RVector(ring, np.array(list(values), dtype=np.int64))


def matrix(ring: RingSpec, rows: Iterable[Iterable[int]]) -> RMatrix:
    """Build a canonical matrix; values are reduced mod p**e."""
    data = [list(r) for r in rows]
    if data and len({len(r) for r in data}) > 1:
        raise DimensionMismatch("rows have unequal lengths")
    arr = np.array(data, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(len(data), 0)
    return RMatrix(ring, arr)


def stack_rows(parts: Sequence[Union[RVector, RMatrix]]) -> RMatrix:
    """Stack vectors (as rows) and matrices vertically."""
    if not parts:
        raise BadParameters("nothing to stack")
    if len({part.ring for part in parts}) > 1:
        raise DimensionMismatch("mixed rings in stack")
    blocks = [np.atleast_2d(part.entries) for part in parts]
    if len({block.shape[1] for block in blocks}) > 1:
        raise DimensionMismatch("mixed widths in stack")
    return RMatrix(parts[0].ring, np.vstack(blocks))


def _pick_and_solve(ring: RingSpec, a: np.ndarray, b: np.ndarray, count: int):
    """Pick the first `count` rows of a that raise its unit rank, and
    solve the picked rows of a @ x = b.

    count is how many picks the caller wants: a.shape[1] to solve, as
    solve_unique, right_inverse, the Gram inverse and recover do,
    min(a.shape) for a rank, and up to a.shape[0] for
    select_independent_rows and left_null_vector.  b is a block of
    right-hand sides, one column per system; it and a may have width 0.
    Walks the rows of [a | b] in order and keeps the picked ones as a
    reduced echelon basis.  Each new row is reduced against the basis
    with one product; a unit entry left in its `a` part means the row
    raises the unit rank, so it is picked, its first unit column becomes
    its pivot, and that column is cleared out of the basis rows.  Once
    every column of a is a pivot the `b` part of the basis holds x.

    Returns (picks, x, skipped).  With fewer than `count` picks every
    row has been walked, len(picks) is the unit rank of a, and x is
    meaningless.  skipped is the reduced `b` part of the first row that
    was not picked (its `a` part is then all nilpotent), or None.
    """
    m, cols = ring.m, a.shape[1]
    reduce, modulus = _reducer(m)
    residue, prime = _reducer(ring.p)
    rows = reduce(np.concatenate([a, b], axis=1), modulus)
    basis = np.zeros((count, rows.shape[1]), dtype=np.int64)
    pivots = np.zeros(count, dtype=np.intp)
    picks: list[int] = []
    skipped = None
    for i, row in enumerate(rows):
        r = len(picks)
        if r == count:
            break
        if r:
            row = reduce(row - _mod_matmul(row[pivots[:r]], basis[:r], m), modulus)
        units = residue(row[:cols], prime).nonzero()[0]  # the unit columns
        if not len(units):
            if skipped is None:
                skipped = row[cols:]
            continue
        c = int(units[0])
        row = reduce(row * pow(int(row[c]), -1, m), modulus)  # a unit, so invertible
        basis[:r] -= basis[:r, c, None] * row
        reduce(basis[:r], modulus, out=basis[:r])
        basis[r] = row
        pivots[r] = c
        picks.append(i)
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    x[pivots[: len(picks)]] = basis[: len(picks), cols:]
    return picks, x, skipped


def unit_rank(mat: RMatrix) -> int:
    """Number of unit pivots; the size of the largest invertible
    square submatrix."""
    picks, _, _ = _pick_and_solve(mat.ring, mat.entries, mat.entries[:, :0], min(mat.shape))
    return len(picks)


def is_full_row_rank(mat: RMatrix) -> bool:
    """True iff every row yields a unit pivot (right-invertibility)."""
    return unit_rank(mat) == mat.rows


def right_inverse(mat: RMatrix) -> RMatrix:
    """An N with mat @ N = identity, for a full-row-rank k x n matrix.

    The walk over the rows of mat^T picks the pivot columns P of mat
    and solves mat[:, P]^T X = I_n[P]; X^T is mat[:, P]^{-1} on the
    rows P and zero elsewhere, a right inverse.
    """
    k, n = mat.shape
    picks, x, _ = _pick_and_solve(mat.ring, mat.entries.T, np.eye(n, dtype=np.int64), k)
    if len(picks) < k:
        raise NotFullRowRank(
            f"matrix has unit rank {len(picks)} < {k} rows; no right inverse"
        )
    return RMatrix(mat.ring, x.T.copy())


def solve_unique(a: RMatrix, b: RVector) -> RVector:
    """Solve a @ x = b for square invertible a: every row must be
    picked by _pick_and_solve."""
    if a.ring != b.ring:
        raise DimensionMismatch(f"mixed rings {a.ring} and {b.ring}")
    if a.rows != a.cols:
        raise DimensionMismatch(f"system matrix must be square, got {a.shape}")
    if a.rows != len(b):
        raise DimensionMismatch(f"{a.shape} system with length-{len(b)} right side")
    picks, x, _ = _pick_and_solve(a.ring, a.entries, b.entries[:, None], a.rows)
    if len(picks) < a.rows:
        raise Singular(
            f"system matrix has unit rank {len(picks)} < {a.rows}; "
            "no unique solution"
        )
    return RVector(a.ring, x[:, 0])


def select_independent_rows(mat: RMatrix, count: int) -> list[int]:
    """Greedy lowest-index-first choice of `count` rows with full row
    rank; returns the lexicographically first such index set.  A row is
    taken iff it raises the unit rank of the rows above it."""
    if count < 0 or count > mat.rows:
        raise BadParameters(f"cannot select {count} rows from {mat.rows}")
    picks, _, _ = _pick_and_solve(mat.ring, mat.entries, mat.entries[:, :0], count)
    if len(picks) < count:
        raise NotEnoughIndependentRows(
            f"only {len(picks)} independent rows found, needed {count}"
        )
    return picks


def left_null_vector(mat: RMatrix) -> RVector:
    """A nonzero x with x @ mat = 0, for a matrix without full row rank.

    The walk over [mat | I] skips some row i.  Its reduced identity part
    u has u @ mat equal to its reduced mat part, which is all nilpotent,
    and u_i = 1, since the basis rows it was reduced by are combinations
    of rows above i only.  So p^{e-1} u annihilates mat and is nonzero.
    """
    ring = mat.ring
    _, _, skipped = _pick_and_solve(
        ring, mat.entries, np.eye(mat.rows, dtype=np.int64), mat.rows
    )
    if skipped is None:
        raise BadParameters("matrix has full row rank; no nonzero left null vector")
    return RVector(ring, skipped * ring.p ** (ring.e - 1) % ring.m)
