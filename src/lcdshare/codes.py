"""Free linear codes over Z_{p^e} and the LCD property.

A code here is the row span of a full-row-rank k x n generator matrix
G, together with a full-row-rank parity check matrix H satisfying
G H^T = 0.  The code is LCD (linear complementary dual) when the code
meets its dual only in the zero word, which is equivalent to the
stacked n x n matrix M = (G over H) being invertible.

is_lcd computes Massey's Gram criterion instead: M is invertible
exactly when the (n-k) x (n-k) matrix H H^T is.  With a right inverse
G^+ of G,

    M [G^+ | H^T] = [[I, 0], [H G^+, H H^T]],

and [G^+ | H^T] is injective (G kills the H^T part and returns the
G^+ part; H^T is injective as H has full row rank), hence invertible
over the finite ring Z_{p^e}.  The row walk that inverts H H^T
(linalg._pick_and_solve with B = I) yields both the verdict and the
cached Q = (H H^T)^{-1}, from which recovery's M^{-1} is built.  For
k = n, H H^T is 0 x 0 and the code is LCD.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import BadParameters, GenerationFailed, NotFullRowRank, ValidationError
from .linalg import RMatrix, RVector, _pick_and_solve, is_full_row_rank, right_inverse
from .ring import RingSpec
from .rng import SplitMix64

DEFAULT_MAX_TRIES = 10_000


@dataclass(frozen=True)
class LinearCode:
    """A free [n, k] code with both G and H stored explicitly.

    Validation runs on construction: shape and ring consistency,
    1 <= k <= n, full row rank of G and H, and G H^T = 0.  For k = n
    the parity check matrix is the empty 0 x n matrix and the dual
    code is {0}.  G's rank is the verdict of the walk behind G_plus,
    and H's that of the Gram walk behind gram_inverse, whose success
    proves H full row rank, so H's rank is walked apart only for a code
    that is not LCD.

    G^+, Q = (H H^T)^{-1}, the LCD verdict, M^{-1}, the dual map and the
    audit block are cached on first use; they cannot go stale, as the
    dataclass is frozen and G, H are read-only.
    A caller that has eliminated G may pass right_inverse(G) as
    _known_G_plus; it is cached as G^+ and vouches for G's rank.
    """

    ring: RingSpec
    n: int
    k: int
    G: RMatrix
    H: RMatrix
    _known_G_plus: InitVar[RMatrix | None] = None

    def __post_init__(self, _known_G_plus):
        if _known_G_plus is not None:
            self.__dict__["G_plus"] = _known_G_plus
        self.validate()

    def validate(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValidationError(f"dimension k={self.k} outside 1..n={self.n}")
        if self.G.ring != self.ring or self.H.ring != self.ring:
            raise ValidationError("G/H ring differs from the code ring")
        if self.G.shape != (self.k, self.n):
            raise ValidationError(
                f"G has shape {self.G.shape}, expected {(self.k, self.n)}"
            )
        if self.H.shape != (self.n - self.k, self.n):
            raise ValidationError(
                f"H has shape {self.H.shape}, expected {(self.n - self.k, self.n)}"
            )
        try:  # the walk behind G_plus finds a right inverse iff G has full row rank
            self.G_plus
        except NotFullRowRank:
            raise ValidationError("G is not full row rank") from None
        # an invertible H H^T gives H the right inverse H^T (H H^T)^{-1}
        if self.gram_inverse is None and not is_full_row_rank(self.H):
            raise ValidationError("H is not full row rank")
        syndromes = self.G @ self.H.T
        if syndromes.entries.any():
            raise ValidationError("G H^T != 0")

    @cached_property
    def G_plus(self) -> RMatrix:
        """A right inverse of G, so c @ G_plus recovers l from c = l G."""
        return right_inverse(self.G)

    @cached_property
    def gram_inverse(self) -> RMatrix | None:
        """Q = (H H^T)^{-1}, or None when H H^T is singular, which is
        exactly when the code is not LCD (see the module docstring)."""
        size = self.n - self.k
        gram = (self.H @ self.H.T).entries
        picks, inverse, _ = _pick_and_solve(
            self.ring, gram, np.eye(size, dtype=np.int64), size
        )
        return RMatrix(self.ring, inverse) if len(picks) == size else None

    @cached_property
    def stacked_inverse(self) -> RMatrix | None:
        """M^{-1} = [G^+ - H^T Q H G^+ | H^T Q] for M = (G over H), so
        M^{-1} [g; h] is the s with G s = g and H s = h (G H^T = 0 and
        H H^T Q = I give M M^{-1} = I); None when the code is not LCD."""
        if self.gram_inverse is None:
            return None
        dual = self.H.T @ self.gram_inverse
        primal = self.G_plus.entries - (dual @ (self.H @ self.G_plus)).entries
        return RMatrix(self.ring, np.hstack([primal, dual.entries]))

    @cached_property
    def lcd(self) -> bool:
        """The verdict of is_lcd for this code."""
        return is_lcd(self)

    @cached_property
    def dual_map(self) -> RMatrix:
        """The n x n matrix D = G^+[:, :n-k] H: for a codeword c = l G,
        c @ D is the dual word l[:n-k] H that the scheme pairs with it."""
        return self.G_plus.take_cols(range(self.n - self.k)) @ self.H

    @cached_property
    def audit_block(self) -> np.ndarray:
        """The read-only n x (2n - k) int64 block [H^T | D]: one product
        c @ audit_block gives a word's syndrome c H^T and its c D."""
        return RMatrix(self.ring, np.hstack([self.H.entries.T, self.dual_map.entries])).entries


def parity_check_from_generator(generator: RMatrix) -> LinearCode:
    """Derive H from a full-row-rank G and assemble the code.

    G^+ = right_inverse(G) is G[:, P]^{-1} on the rows of the pivot
    columns P of G and zero on the others, which gives P.  With
    E = G^+[P] G, the reduced echelon form of G, an identity on P and
    G[:, P]^{-1} G[:, others] elsewhere, placing -E[:, others]^T on P and
    an identity on the other columns yields a full-row-rank H with
    G H^T = 0.  Column swaps are implicit: pivot columns need not be the
    leading ones, and H comes back in the original column order.  The
    code keeps this G^+, so G is eliminated once.
    """
    ring = generator.ring
    k, n = generator.shape
    G_plus = right_inverse(generator)
    pivot = G_plus.entries.any(axis=1)
    picks, others = np.flatnonzero(pivot), np.flatnonzero(~pivot)
    H = np.zeros((n - k, n), dtype=np.int64)
    H[:, others] = np.eye(n - k, dtype=np.int64)
    H[:, picks] = -(G_plus.take_rows(picks) @ generator.take_cols(others)).entries.T
    return LinearCode(ring, n, k, generator, RMatrix(ring, H), _known_G_plus=G_plus)


def encode(code: LinearCode, coefficients: RVector | RMatrix) -> RVector | RMatrix:
    """Codeword for a coefficient row, l @ G; one per row for a matrix."""
    return coefficients @ code.G


def is_codeword(code: LinearCode, word: RVector) -> bool:
    """Parity test: word @ H^T = 0."""
    return (word @ code.H.T).is_zero


def is_lcd(code: LinearCode) -> bool:
    """LCD test via invertibility of H H^T (the Gram criterion in the
    module docstring): the code is LCD iff the walk that gives Q picks
    all n - k rows of H H^T."""
    return code.gram_inverse is not None


def dual(code: LinearCode) -> LinearCode:
    """The dual code, generated by H and checked by G."""
    if code.k == code.n:
        raise BadParameters("dual of a full-space code has dimension 0")
    return LinearCode(
        ring=code.ring, n=code.n, k=code.n - code.k, G=code.H, H=code.G
    )


def _random_matrix(rng: SplitMix64, ring: RingSpec, rows: int, cols: int) -> RMatrix:
    values = np.array(rng.residues(rows * cols, ring.m), dtype=np.int64)
    return RMatrix(ring, values.reshape(rows, cols))


def _draw_code(ring, n, k, seed, max_tries, accept, wanted) -> LinearCode:
    """Draw uniform k x n generators until one has full row rank and
    its code passes `accept`; every draw counts against max_tries.
    SplitMix64 refuses a seed outside [0, 2^64)."""
    if not 1 <= k <= n:
        raise BadParameters(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    for _ in range(max_tries):
        try:
            code = parity_check_from_generator(_random_matrix(rng, ring, k, n))
        except NotFullRowRank:
            continue
        if accept(code):
            return code
    raise GenerationFailed(f"no {wanted} found in {max_tries} draws")


def random_code(
    ring: RingSpec, n: int, k: int, seed: int, max_tries: int = DEFAULT_MAX_TRIES
) -> LinearCode:
    """Uniformly drawn full-row-rank generator, not filtered for LCD."""
    return _draw_code(
        ring, n, k, seed, max_tries, lambda code: True, "full-row-rank generator"
    )


def random_lcd_code(
    ring: RingSpec, n: int, k: int, seed: int, max_tries: int = DEFAULT_MAX_TRIES
) -> LinearCode:
    """Rejection-sample uniform generators until the derived code is LCD.

    Deterministic for a fixed seed.  Each draw counts against
    max_tries whether it fails the rank test or the LCD test.
    """
    return _draw_code(ring, n, k, seed, max_tries, lambda code: code.lcd, "LCD code")
