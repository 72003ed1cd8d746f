"""A brute-force LCD test, kept as the reference for lcdshare.codes.is_lcd:
it enumerates a code and its dual in full and intersects them, which is
the definition of LCD itself, so it shares nothing with the Gram
criterion that is_lcd computes.  Tests cross-check the two on codes
small enough to enumerate.
"""

from __future__ import annotations

import numpy as np

from lcdshare.codes import LinearCode
from lcdshare.linalg import _mod_matmul
from lcdshare.ring import RingSpec

ENUMERATION_LIMIT = 2**20


class TooLargeToEnumerate(Exception):
    """A brute-force enumeration would exceed the safety bound."""


def _all_vectors(ring: RingSpec, length: int) -> np.ndarray:
    """All of R^length as an (m**length, length) array, lexicographic."""
    idx = np.arange(ring.m**length, dtype=np.int64)[:, None]
    return idx // ring.m ** np.arange(length - 1, -1, -1) % ring.m


def _row_set(arr: np.ndarray) -> np.ndarray:
    """View rows as opaque fixed-size records for set operations."""
    a = np.ascontiguousarray(arr)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def is_lcd_oracle(code: LinearCode, limit: int = ENUMERATION_LIMIT) -> bool:
    """Brute-force LCD test: enumerate the code and its dual in full
    and check the intersection is exactly {0}.

    Refuses to run when either enumeration would exceed `limit` words.
    """
    m = code.ring.m
    if m**code.k > limit or m ** (code.n - code.k) > limit:
        raise TooLargeToEnumerate(
            f"enumerating {m}^{code.k} + {m}^{code.n - code.k} words exceeds {limit}"
        )
    codewords = _mod_matmul(_all_vectors(code.ring, code.k), code.G.entries, m)
    duals = _mod_matmul(_all_vectors(code.ring, code.n - code.k), code.H.entries, m)
    common = np.intersect1d(_row_set(codewords), _row_set(duals))
    # the zero word always lies in both, so LCD means nothing else does
    return common.size == 1
