"""The coefficient rings Z_{p^e}: integers modulo a prime power.

These rings are finite chain rings, so every element is either a unit
(not divisible by p) or nilpotent (divisible by p), and
RingSpec.is_unit decides which.  That dichotomy is what the rest of the
package leans on: Gaussian elimination only ever needs to decide "can
this entry be a pivot", and the answer is exactly "is it a unit".

Elements are plain Python ints held in canonical form 0 <= a < p**e,
where p**e <= 2**31 - 1: make_ring refuses a larger p without a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isqrt

from .errors import BadParameters, NotAUnit, NotPrime, Overflow

MAX_MODULUS = 2**31 - 1


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    return next((d for d in chain((2,), range(3, isqrt(n) + 1, 2)) if n % d == 0), n)


def is_prime(p: int) -> bool:
    """Deterministic trial division; p <= 2**31 - 1 keeps this cheap."""
    return p >= 2 and _least_prime_factor(p) == p


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

    def is_unit(self, a: int) -> bool:
        """True for a unit, False for a nilpotent: the dichotomy."""
        return a % self.p != 0

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a unit, via the extended Euclid
        behind pow(a, -1, m).  Raises NotAUnit when p divides a."""
        a = a % self.m
        if a % self.p == 0:
            raise NotAUnit(f"{a} is divisible by {self.p}, not invertible in {self}")
        return pow(a, -1, self.m)


def make_ring(p: int, e: int) -> RingSpec:
    """Validate (p, e) and build the ring Z_{p^e}.

    p must be prime, e >= 1, and p**e <= 2**31 - 1 so that products of
    two residues always fit in a signed 64-bit word.  p is checked by
    trial division only up to that bound; a larger p, prime or not, is
    refused with Overflow, as p**e exceeds the bound whatever p is.
    """
    if e < 1:
        raise BadParameters(f"exponent must be >= 1, got {e}")
    if p <= MAX_MODULUS and not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e * p.bit_length() > 14_000:  # p**e has 4,000+ digits: too slow to build and print
        raise Overflow(f"{p}^{e} exceeds the supported bound {MAX_MODULUS}")
    m = p**e
    if m > MAX_MODULUS:
        raise Overflow(f"{p}^{e} = {m} exceeds the supported bound {MAX_MODULUS}")
    return RingSpec(p=p, e=e, m=m)


def ring_of_size(q: int) -> RingSpec:
    """The ring Z_q, for a prime power q = p**e that make_ring accepts.

    The bound is checked first, so the trial division that finds p, the
    least prime factor of q, stays below sqrt(2**31 - 1).
    """
    if q > MAX_MODULUS:
        raise Overflow(f"ring size {q} exceeds the supported bound {MAX_MODULUS}")
    if q < 2:
        raise BadParameters(f"ring size must be >= 2, got {q}")
    p = _least_prime_factor(q)
    e = next(e for e in range(1, q.bit_length() + 1) if p**e >= q)
    if p**e != q:
        raise NotPrime(f"ring size {q} is not a prime power")
    return make_ring(p, e)


def parse_ring_label(text: str) -> RingSpec:
    """Parse 'p^e' (or bare 'p', meaning e = 1) into a ring."""
    try:
        p, e = map(int, (text if "^" in text else text + "^1").split("^"))
    except ValueError:
        raise BadParameters(f"ring must look like 'p^e', got {text!r}") from None
    return make_ring(p, e)
