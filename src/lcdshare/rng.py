"""Deterministic randomness for dealing and code generation.

The generator is SplitMix64, a public-domain 64-bit shift/multiply
generator (Steele, Lea, Flood; used as the seeder in the Java and
xoshiro ecosystems).  It is pinned here, rather than delegating to
``random`` or numpy, so that a recorded seed reproduces the exact same
draws on any platform and any future library version.

state <- state + 0x9E3779B97F4A7C15        (golden-ratio increment)
z <- state
z <- (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
z <- (z ^ (z >> 27)) * 0x94D049BB133111EB
output z ^ (z >> 31)

A seed is an integer in [0, 2**64), the whole state.  SplitMix64 refuses
any other with BadParameters: masking it to 64 bits would alias seeds,
as -1 and 2**64 - 1, or 5 and 2**64 + 5, would name the same draws.

Residues are drawn by rejection below the largest multiple of the
modulus, so they are exactly uniform, not merely approximately so.

Draw i depends only on seed + i * gamma, so `residues` evaluates
blocks of draws at once in numpy uint64, which wraps modulo 2**64 as the
recurrence requires.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameters

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny deterministic PRNG; one instance per seeded operation."""

    def __init__(self, seed: int):
        if seed < 0:
            raise BadParameters(f"seed must be >= 0, got {seed}")
        if seed > _MASK:
            raise BadParameters(f"seed must be < 2^64, got {seed}")
        self._state = seed

    def residues(self, count: int, m: int) -> list[int]:
        """`count` successive uniform draws from {0, ..., m-1}."""
        if m <= 0:
            raise ValueError("modulus must be positive")
        excess = (1 << 64) % m  # draws at or above 2**64 - excess are rejected
        out: list[int] = []
        while len(out) < count:
            # a block of at most the missing draws is consumed whole, in
            # order; capping it keeps the numpy temporaries small
            block = min(count - len(out), 4096)
            z = self._state + np.arange(1, block + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            self._state = (self._state + block * _GAMMA) & _MASK
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
            z ^= z >> np.uint64(31)
            if excess:
                z = z[z < np.uint64((1 << 64) - excess)]
            out += (z % np.uint64(m)).tolist()
        return out
