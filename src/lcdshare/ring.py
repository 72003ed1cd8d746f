"""The coefficient rings Z_{p^e}: integers modulo a prime power.

These rings are finite chain rings, so every element is either a unit
(not divisible by p) or nilpotent (divisible by p).  That dichotomy is
what the rest of the package leans on: Gaussian elimination only ever
needs to decide "can this entry be a pivot", and the answer is exactly
"is it a unit".

Elements are plain Python ints held in canonical form 0 <= a < p**e.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import BadParameters, NotAUnit, NotPrime, Overflow

MAX_MODULUS = 2**31 - 1
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least odd composite that no base in _WITNESSES exposes (OEIS A014233)
_WITNESSES_EXACT_BELOW = 318_665_857_834_031_151_167_461


class ElementKind(enum.Enum):
    UNIT = "unit"
    NILPOTENT = "nilpotent"


def is_prime(p: int) -> bool:
    """Deterministic trial division; p <= 2**31 - 1 keeps this cheap."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_{p^e} with modulus m = p**e.

    Construct through make_ring(), which checks primality and the
    modulus bound; the dataclass itself does not re-validate.
    """

    p: int
    e: int
    m: int

    @property
    def label(self) -> str:
        """Exponent form used on command lines, e.g. '2^2'."""
        return f"{self.p}^{self.e}"

    def __str__(self) -> str:
        return f"Z_{self.m}"

    def classify(self, a: int) -> ElementKind:
        """Unit/nilpotent dichotomy for the residue of a."""
        return ElementKind.NILPOTENT if a % self.p == 0 else ElementKind.UNIT

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a unit, via the extended Euclid
        behind pow(a, -1, m).  Raises NotAUnit when p divides a."""
        a = a % self.m
        if a % self.p == 0:
            raise NotAUnit(f"{a} is divisible by {self.p}, not invertible in {self}")
        return pow(a, -1, self.m)


def _has_composite_witness(p: int) -> bool:
    """True if one of the first twelve primes divides p > 37 or is a
    Miller-Rabin witness for it, either of which proves p composite.
    Below _WITNESSES_EXACT_BELOW every composite p has such a witness;
    above it only the division is tried, as the witness search costs
    time that grows with p."""
    if any(p % a == 0 for a in _WITNESSES):
        return True
    if p >= _WITNESSES_EXACT_BELOW:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return True
    return False


def make_ring(p: int, e: int) -> RingSpec:
    """Validate (p, e) and build the ring Z_{p^e}.

    p must be prime, e >= 1, and p**e <= 2**31 - 1 so that products of
    two residues always fit in a signed 64-bit word.  Up to that bound p
    is checked by trial division.  A larger p is called not prime when
    one of the first twelve primes divides it or is a Miller-Rabin
    witness for it, which finds every composite p below 3.1 * 10**23;
    any other p is refused with Overflow, as p**e exceeds the bound
    whatever p is.  Trial division up to sqrt(p) would stall there.
    """
    if e < 1:
        raise BadParameters(f"exponent must be >= 1, got {e}")
    if p <= MAX_MODULUS:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    elif _has_composite_witness(p):
        raise NotPrime(f"{p} is not prime")
    if e * p.bit_length() > 14_000:  # p**e has 4,000+ digits: too slow to build and print
        raise Overflow(f"{p}^{e} exceeds the supported bound {MAX_MODULUS}")
    m = p**e
    if m > MAX_MODULUS:
        raise Overflow(f"{p}^{e} = {m} exceeds the supported bound {MAX_MODULUS}")
    return RingSpec(p=p, e=e, m=m)


def parse_ring_label(text: str) -> RingSpec:
    """Parse 'p^e' (or bare 'p', meaning e = 1) into a ring."""
    parts = text.split("^")
    if len(parts) == 1:
        p_text, e_text = parts[0], "1"
    elif len(parts) == 2:
        p_text, e_text = parts
    else:
        raise BadParameters(f"ring must look like 'p^e', got {text!r}")
    try:
        p, e = int(p_text), int(e_text)
    except ValueError:
        raise BadParameters(f"ring must look like 'p^e', got {text!r}") from None
    return make_ring(p, e)
