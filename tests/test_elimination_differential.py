"""What the library derives with its one elimination routine, against
the Gauss-Jordan elimination it replaced.

right_inverse, parity_check_from_generator, LinearCode.gram_inverse,
unit_rank and left_null_vector all run the row walk
linalg._pick_and_solve.  On uniform and on mostly nilpotent matrices
they must agree with reference_recover._rref: G^+ and H byte for byte,
the same Q and unit rank, NotFullRowRank on the same inputs, and a
left null vector that is nonzero and annihilates the matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_recover import _rref

from lcdshare import (
    is_full_row_rank,
    left_null_vector,
    make_ring,
    parity_check_from_generator,
    right_inverse,
    unit_rank,
)
from lcdshare.errors import BadParameters, NotFullRowRank
from lcdshare.linalg import RMatrix, _pick_and_solve

RINGS = [(2, 1), (2, 2), (3, 2), (2, 8), (65521, 1)]


@st.composite
def matrices(draw, min_rows=0):
    """A uniform matrix, or one whose entries are times p with
    probability 0.85, so that rank-deficient ones come up on every ring."""
    ring = make_ring(*draw(st.sampled_from(RINGS)))
    rows, cols = draw(st.integers(min_rows, 9)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a = rng.integers(0, ring.m, size=(rows, cols), dtype=np.int64)
    if draw(st.booleans()):
        a = np.where(rng.random((rows, cols)) < 0.85, a * ring.p % ring.m, a)
    return RMatrix(ring, a)


def reference_right_inverse(mat):
    """(N, pivots) as right_inverse built N from _rref, N None when
    mat has no right inverse."""
    _, U, pivots = _rref(mat.ring, mat.entries)
    if len(pivots) < mat.rows:
        return None, pivots
    N = np.zeros((mat.cols, mat.rows), dtype=np.int64)
    N[pivots, :] = U
    return N, pivots


def same_array(got: np.ndarray, expected: np.ndarray) -> bool:
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_right_inverse_and_rank_match_the_reference(mat):
    expected, pivots = reference_right_inverse(mat)
    empty = np.zeros((mat.cols, 0), dtype=np.int64)
    picks, _, _ = _pick_and_solve(mat.ring, mat.entries.T, empty, min(mat.shape))
    assert picks == pivots  # the walk over mat^T picks the pivot columns
    assert unit_rank(mat) == len(pivots)
    assert unit_rank(mat) == len(_rref(mat.ring, mat.entries, pivots_only=True)[2])
    assert is_full_row_rank(mat) == (expected is not None)
    if expected is None:
        message = f"matrix has unit rank {len(pivots)} < {mat.rows} rows; no right inverse"
        with pytest.raises(NotFullRowRank, match=f"^{message}$"):
            right_inverse(mat)
    else:
        assert same_array(right_inverse(mat).entries, expected)


@settings(max_examples=400, deadline=None)
@given(matrices(min_rows=1))
def test_parity_check_and_gram_inverse_match_the_reference(generator):
    k, n = generator.shape
    G_plus, pivots = reference_right_inverse(generator)
    if G_plus is None:
        with pytest.raises(NotFullRowRank):
            parity_check_from_generator(generator)
        return
    E = _rref(generator.ring, generator.entries)[0]
    others = [c for c in range(n) if c not in pivots]
    H = np.zeros((n - k, n), dtype=np.int64)
    H[:, others] = np.eye(n - k, dtype=np.int64)
    H[:, pivots] = -E[:k, others].T
    H %= generator.ring.m

    code = parity_check_from_generator(generator)
    assert same_array(code.H.entries, H)
    assert same_array(code.G_plus.entries, G_plus)
    gram = (code.H @ code.H.T).entries
    _, U, gram_pivots = _rref(code.ring, gram)
    if len(gram_pivots) == n - k:
        assert same_array(code.gram_inverse.entries, U)
        assert code.lcd
    else:
        assert code.gram_inverse is None
        assert not code.lcd


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_left_null_vector_is_a_nonzero_witness(mat):
    if len(_rref(mat.ring, mat.entries, pivots_only=True)[2]) == mat.rows:
        with pytest.raises(BadParameters):
            left_null_vector(mat)
        return
    x = left_null_vector(mat)
    assert len(x) == mat.rows and not x.is_zero
    assert (x @ mat).is_zero
