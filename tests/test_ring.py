"""Ring construction, the unit/nilpotent dichotomy, and inverses."""

import math
import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from lcdshare import is_prime, make_ring, parse_ring_label
from lcdshare.errors import BadParameters, NotAUnit, NotPrime, Overflow
from lcdshare import ring as ring_module
from lcdshare.ring import MAX_MODULUS

SMALL_MODULI = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)]


def test_make_ring_basic():
    ring = make_ring(2, 2)
    assert (ring.p, ring.e, ring.m) == (2, 2, 4)
    assert ring.label == "2^2"
    assert str(ring) == "Z_4"


def test_make_ring_accepts_largest_modulus():
    ring = make_ring(MAX_MODULUS, 1)  # 2^31 - 1 is prime
    assert ring.m == MAX_MODULUS


@pytest.mark.parametrize(
    "p, e, err",
    [
        (2, 0, BadParameters),
        (2, -1, BadParameters),
        (4, 1, NotPrime),
        (9, 1, NotPrime),
        (1, 1, NotPrime),
        (0, 1, NotPrime),
        (-3, 1, NotPrime),
        (2, 31, Overflow),
        (65521, 2, Overflow),
    ],
)
def test_make_ring_rejects(p, e, err):
    with pytest.raises(err):
        make_ring(p, e)


def test_make_ring_refuses_huge_exponents_without_building_p_to_the_e():
    # up to 14,000 bits p**e is built and printed in full; beyond, the
    # bound follows from e alone (p**e would not print at 65521^65521,
    # nor finish at 2^(2^64))
    for p, e in [(2, 31), (2, 256), (3, 4417), (2, 7000)]:
        with pytest.raises(Overflow, match=rf"^{p}\^{e} = {p**e} exceeds the supported bound"):
            make_ring(p, e)
    for p, e in [(2, 7001), (3, 7001), (65521, 65521), (2, 2**64)]:
        with pytest.raises(Overflow, match=rf"^{p}\^{e} exceeds the supported bound"):
            make_ring(p, e)
    with pytest.raises(NotPrime):
        make_ring(4, 2**64)


def test_a_large_p_is_refused_without_trial_division():
    # every p above 2^31 - 1 is refused with Overflow, prime or not:
    # strong pseudoprimes to the first 4 and 9 prime bases, squares and
    # products of primes near 2^31 and 2^35, even numbers, large primes
    composites = [3215031751, 3825123056546413051, (2**31 - 1) ** 2,
                  34359738337 * 34359738319, 3 * (2**61 - 1), 2**64]
    primes = [2**31 + 11, 2**61 - 1, 10**12 + 39, 2**89 - 1, 2**127 - 1]
    for p in composites + primes:
        for e in (1, 2):
            with pytest.raises(Overflow, match=rf"^{p}\^{e} = {p**e} exceeds the supported bound"):
                make_ring(p, e)
    rng = random.Random(20261018)
    for _ in range(300):
        with pytest.raises(Overflow):
            make_ring(rng.randrange(2**31, 2**78), 1)


def test_ring_of_size_accepts_exactly_the_rings_make_ring_builds():
    # q = p^e within the bound gives make_ring(p, e); any other q is
    # refused, one above the bound with Overflow before any division
    for q in list(range(-3, 3000)) + [65521, 2**16, 3**19, 46337**2, MAX_MODULUS]:
        factors = sympy.factorint(q) if q >= 2 else {}
        if len(factors) == 1:
            assert ring_module.ring_of_size(q) == make_ring(*factors.popitem()), q
        else:
            with pytest.raises((BadParameters, NotPrime)):
                ring_module.ring_of_size(q)
    for q in [MAX_MODULUS + 1, 2**31, 2**61 - 1, 6 * 2**61]:
        with pytest.raises(Overflow, match=rf"^ring size {q} exceeds the supported bound"):
            ring_module.ring_of_size(q)


def test_primality_against_sympy():
    for n in range(-5, 2000):
        assert is_prime(n) == sympy.isprime(n), n
    rng = random.Random(20240814)
    for _ in range(200):
        n = rng.randrange(2, 2**31)
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("p, e", SMALL_MODULI)
def test_dichotomy_and_inverse_exhaustive(p, e):
    """Every residue is a unit xor nilpotent; units invert, nilpotents vanish."""
    ring = make_ring(p, e)
    for a in range(ring.m):
        if a % p == 0:
            assert not ring.is_unit(a)
            assert pow(a, e, ring.m) == 0
            with pytest.raises(NotAUnit):
                ring.inverse(a)
        else:
            assert ring.is_unit(a)
            inv = ring.inverse(a)
            assert 0 <= inv < ring.m
            assert (a * inv) % ring.m == 1


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2), (2, 4)])
def test_ring_axioms_exhaustive(p, e):
    """Commutativity, associativity, distributivity over every triple."""
    m = make_ring(p, e).m
    elems = range(m)
    for a in elems:
        for b in elems:
            assert (a + b) % m == (b + a) % m
            assert (a * b) % m == (b * a) % m
            for c in elems:
                assert ((a + b) + c) % m == (a + (b + c)) % m
                assert ((a * b) * c) % m == (a * (b * c)) % m
                assert (a * (b + c)) % m == (a * b + a * c) % m


@given(st.sampled_from(SMALL_MODULI), st.integers(min_value=-(10**9), max_value=10**9))
def test_is_unit_matches_gcd(params, a):
    p, e = params
    ring = make_ring(p, e)
    assert ring.is_unit(a) == (math.gcd(a % ring.m, ring.m) == 1)


@given(
    st.sampled_from([(2, 20), (3, 12), (5, 9), (7, 8), (46337, 2), (2147483647, 1)]),
    st.integers(min_value=0, max_value=2**40),
)
def test_inverse_law_large_rings(params, raw):
    p, e = params
    ring = make_ring(p, e)
    a = raw % ring.m
    if a % p == 0:
        a = (a + 1) % ring.m  # bump onto a unit; never wraps to 0 since p | a
    assert (a * ring.inverse(a)) % ring.m == 1


def test_parse_ring_label():
    assert parse_ring_label("2^2").m == 4
    assert parse_ring_label("7").m == 7
    assert parse_ring_label("3^3").label == "3^3"
    for bad in ["", "x", "2^", "^2", "2^2^2", "4^1", "2^0"]:
        with pytest.raises((BadParameters, NotPrime)):
            parse_ring_label(bad)
