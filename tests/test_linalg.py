"""Exact linear algebra over Z_{p^e}.

The expected values here come from three independent oracles written
inline with plain Python integers: textbook row reduction over the
residue field F_p, cofactor-expansion determinants of square
submatrices, and brute-force enumeration over small rings.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdshare import (
    RMatrix,
    RVector,
    is_full_row_rank,
    left_null_vector,
    linalg,
    make_ring,
    matrix,
    right_inverse,
    select_independent_rows,
    solve_unique,
    stack_rows,
    unit_rank,
    vector,
)
from lcdshare.errors import (
    BadParameters,
    DimensionMismatch,
    NotEnoughIndependentRows,
    NotFullRowRank,
    Singular,
)
from lcdshare.ring import ring_of_size

RINGS = [make_ring(p, e) for p, e in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1)]]


# ---------------------------------------------------------------- oracles


def field_rank(rows, p):
    """Row reduction over F_p with ordinary rational-free arithmetic."""
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def int_det(mat):
    """Exact integer determinant by cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j, v in enumerate(mat[0]):
        if v:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * v * int_det(minor)
    return total


def largest_unit_minor(rows, p):
    """Size of the largest square submatrix with det not divisible by p."""
    r, c = len(rows), len(rows[0])
    best = 0
    for size in range(1, min(r, c) + 1):
        hit = any(
            int_det([[rows[i][j] for j in ci] for i in ri]) % p != 0
            for ri in itertools.combinations(range(r), size)
            for ci in itertools.combinations(range(c), size)
        )
        if not hit:
            break
        best = size
    return best


def rand_rows(rng, r, c, m):
    return [[rng.randrange(m) for _ in range(c)] for _ in range(r)]


# ---------------------------------------------------- vectors and matrices


def test_vector_canonical_form():
    ring = make_ring(2, 2)
    v = vector(ring, [-1, 5, 2, 4])
    assert v.tolist() == [3, 1, 2, 0]
    assert len(v) == 4 and v[0] == 3
    assert not v.is_zero
    assert vector(ring, [0, 8, -4]).is_zero


def test_vector_arithmetic_anchors():
    ring = make_ring(2, 2)
    u, v = vector(ring, [1, 2]), vector(ring, [3, 3])
    assert u @ v == (1 * 3 + 2 * 3) % 4


def test_matrix_vector_products():
    ring = make_ring(2, 2)
    mat = matrix(ring, [[1, 2], [3, 1]])
    v = vector(ring, [1, 2])
    assert (mat @ v).tolist() == [1, 1]
    assert (v @ mat).tolist() == [3, 0]
    assert (mat @ mat).tolist() == [[3, 0], [2, 3]]
    assert mat.T.tolist() == [[1, 3], [2, 1]]
    assert mat.row(1).tolist() == [3, 1]


def test_matrix_helpers():
    ring = make_ring(3, 1)
    mat = matrix(ring, [[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    assert mat.shape == (3, 3)
    assert mat.take_rows([2, 0]).tolist() == [[2, 2, 0], [0, 1, 2]]
    assert mat.take_cols([1]).tolist() == [[1], [0], [2]]
    assert RMatrix.identity(ring, 2).tolist() == [[1, 0], [0, 1]]
    stacked = stack_rows([mat.row(0), mat.take_rows([1, 2])])
    assert stacked.tolist() == mat.tolist()


def test_immutability():
    ring = make_ring(2, 2)
    v = vector(ring, [1, 2])
    mat = matrix(ring, [[1, 2], [3, 0]])
    with pytest.raises(ValueError):
        v.entries[0] = 3
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 3


def test_equality_and_hash():
    r4, r9 = make_ring(2, 2), make_ring(3, 2)
    assert vector(r4, [1, 2]) == vector(r4, [5, -2])
    assert hash(vector(r4, [1, 2])) == hash(vector(r4, [5, -2]))
    assert vector(r4, [1, 2]) != vector(r9, [1, 2])
    assert vector(r4, [1, 2]) != vector(r4, [1, 2, 0])
    assert matrix(r4, [[1]]) == matrix(r4, [[-3]])
    assert matrix(r4, [[1]]) != matrix(r4, [[2]])
    assert matrix(r4, [[1, 2]]) != matrix(r4, [[1], [2]])


def test_shape_and_ring_mismatches():
    r4, r9 = make_ring(2, 2), make_ring(3, 2)
    with pytest.raises(DimensionMismatch, match=r"^shapes \(2,\) @ \(3,\)$"):
        vector(r4, [1, 2]) @ vector(r4, [1, 2, 3])
    with pytest.raises(DimensionMismatch, match="^mixed rings Z_4 and Z_9$"):
        vector(r4, [1, 2]) @ vector(r9, [1, 2])
    with pytest.raises(DimensionMismatch):
        vector(r4, [1, 2]) @ matrix(r4, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        matrix(r4, [[1, 2]]) @ matrix(r4, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        matrix(r4, [[1, 2], [1]])
    with pytest.raises(DimensionMismatch, match="^mixed widths in stack$"):
        stack_rows([matrix(r4, [[1, 2]]), matrix(r4, [[1, 2, 3]])])
    with pytest.raises(DimensionMismatch, match="^mixed widths in stack$"):
        stack_rows([vector(r4, [1, 2]), vector(r4, [1])])
    with pytest.raises(DimensionMismatch, match="^mixed rings in stack$"):
        stack_rows([vector(r4, [1, 2]), matrix(r9, [[1, 2]])])
    with pytest.raises(DimensionMismatch, match="^mixed rings in stack$"):  # rings first
        stack_rows([vector(r4, [1, 2]), vector(r4, [1]), vector(r9, [1, 2])])
    with pytest.raises(BadParameters, match="^nothing to stack$"):
        stack_rows([])
    with pytest.raises(DimensionMismatch, match=r"^vector must be 1-D, got shape \(1, 2\)$"):
        RVector(r4, np.array([[1, 2]]))


def test_empty_matrices_keep_their_row_count():
    ring = make_ring(2, 2)
    assert matrix(ring, []).shape == (0, 0)
    assert matrix(ring, [[], []]).shape == (2, 0)
    assert stack_rows([matrix(ring, [[], []]), vector(ring, [])]).shape == (3, 0)
    assert matrix(ring, [[1, 2], [3, 0]]).take_rows([]).shape == (0, 2)


def test_products_with_huge_modulus_stay_exact():
    """Inner products long enough to overflow a naive int64 dot."""
    ring = make_ring(2**31 - 1, 1)
    top = ring.m - 1
    u = vector(ring, [top] * 200)
    w = vector(ring, [top - i for i in range(200)])
    expected = sum((top) * (top - i) for i in range(200)) % ring.m
    assert u @ w == expected

    rng = random.Random(7)
    a = rand_rows(rng, 3, 150, ring.m)
    b = rand_rows(rng, 150, 2, ring.m)
    got = (matrix(ring, a) @ matrix(ring, b)).tolist()
    want = [
        [sum(a[i][t] * b[t][j] for t in range(150)) % ring.m for j in range(2)]
        for i in range(3)
    ]
    assert got == want


def int_walk(m, p, a, b, count):
    """The row walk of _pick_and_solve on Python ints, which cannot
    overflow: picks, x and the reduced right side of the first skipped
    row, under the same pivot policy."""
    cols = len(a[0])
    basis, pivots, picks, skipped = [], [], [], None
    for i, row in enumerate(list(ra) + list(rb) for ra, rb in zip(a, b)):
        if len(picks) == count:
            break
        for c, pivot_row in zip(pivots, basis):
            f = row[c]
            row = [(v - f * w) % m for v, w in zip(row, pivot_row)]
        units = [c for c in range(cols) if row[c] % p]
        if not units:
            skipped = row[cols:] if skipped is None else skipped
            continue
        c, inv = units[0], pow(row[units[0]], -1, m)
        row = [v * inv % m for v in row]
        basis = [[(v - r[c] * w) % m for v, w in zip(r, row)] for r in basis]
        basis, pivots, picks = basis + [row], pivots + [c], picks + [i]
    x = [[0] * len(b[0]) for _ in range(cols)]
    for c, pivot_row in zip(pivots, basis):
        x[c] = pivot_row[cols:]
    return picks, x, skipped


@pytest.mark.parametrize(
    "m, count",
    [(2**31 - 1, 2), (2**31 - 1, 3), (2**31 - 1, 5), (65521, 64)]
    # both sides of _reducer's choice: masked powers of two, and 9
    + [(2, 3), (4, 3), (256, 4), (2**30, 4), (9, 4)],
)
def test_walk_products_stay_exact_at_the_overflow_boundary(m, count):
    """Blocks of m - 1 make every residue product as large as it can
    be.  At m = 2^31 - 1 a sum of two such products fits in int64 and
    a sum of three does not, so at count 5 each row is reduced with
    the chunked product.  Every modulus also walks the edge inputs: an
    `a` of width 0, count 0, and a row that the basis reduces to
    nilpotents, between picked rows."""
    ring, top = ring_of_size(m), m - 1
    flat = [[top] * count for _ in range(count + 2)]  # unit rank 1
    # the rows e_i + (m-1) elsewhere stay in the basis as they are, so
    # the all-(m-1) row after them sums count - 1 products (m-1)^2
    full = [[1 if j == i else top for j in range(count)] for i in range(count - 1)]
    full += flat[:3]
    # full[0] + p * flat[0] leaves a nilpotent remainder that depends on
    # which unit column of full[0] is its pivot
    stalled = full[:1] + [[u + ring.p * v for u, v in zip(full[0], flat[0])]] + full[1:]
    narrow = [[] for _ in full]
    for a, walked in ((flat, count), (stalled, count), (narrow, count), (full, 0), (full, count)):
        b = [[top, 1, top * (i % 2)] for i in range(len(a))]
        picks, x, skipped = linalg._pick_and_solve(
            ring, np.array(a, dtype=np.int64).reshape(len(a), -1), np.array(b), walked
        )
        want_picks, want_x, want_skipped = int_walk(m, ring.p, a, b, walked)
        assert picks == want_picks and x.tolist() == want_x
        assert (skipped is None and want_skipped is None) or skipped.tolist() == want_skipped
    assert len(picks) == (count if ring.p > 2 else 1)  # mod 2 the rows of full are all 1
    if ring.p > 2:
        rows = np.array([full[i] for i in picks], dtype=object)
        assert ((rows @ np.array(x, dtype=object)) % m).tolist() == [b[i] for i in picks]


@pytest.mark.parametrize("m", [2**e for e in range(1, 31)] + [9, 65521])
def test_reducer_equals_python_remainder(m):
    """The mask for 2^e and the remainder otherwise both give v % m on
    int64 extremes and on the negatives the basis update leaves, as low
    as -(m-1)^2."""
    rng, top = np.random.default_rng(m), m - 1
    products = rng.integers(0, m, 200, dtype=np.int64) * rng.integers(0, m, 200, dtype=np.int64)
    values = [-(2**63), 2**63 - 1, -1, 0, 1, top, m, -m, -top * top, top - top * top]
    values += (-products).tolist() + (top - products).tolist()
    values += rng.integers(-(2**63), 2**63 - 1, 200, dtype=np.int64).tolist()
    reduce, operand = linalg._reducer(m)
    arr = np.array(values, dtype=np.int64)
    got = reduce(arr, operand)
    assert got.dtype == np.int64 and got.tolist() == [v % m for v in values]
    assert reduce(arr, operand, out=arr) is arr and arr.tolist() == got.tolist()


@settings(max_examples=60)
@given(st.data())
def test_matmul_associative(data):
    ring = data.draw(st.sampled_from(RINGS))
    dims = data.draw(st.tuples(*[st.integers(1, 4)] * 4))
    i, j, k, l = dims
    elem = st.integers(0, ring.m - 1)
    draw_mat = lambda r, c: matrix(
        ring, [[data.draw(elem) for _ in range(c)] for _ in range(r)]
    )
    a, b, c = draw_mat(i, j), draw_mat(j, k), draw_mat(k, l)
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=300)
@given(st.data())
def test_matmul_follows_numpy_shapes(data):
    """Every operand pairing against a plain-Python product: a vector is
    a row on the left and a column on the right, vector @ vector is an
    int, and zero-size shapes work (H is 0 x n when k = n)."""
    ring = data.draw(st.sampled_from(RINGS + [make_ring(2**31 - 1, 1)]))
    left_vector, right_vector = data.draw(st.booleans()), data.draw(st.booleans())
    rows = 1 if left_vector else data.draw(st.integers(0, 4))
    inner = data.draw(st.integers(0, 5))
    cols = 1 if right_vector else data.draw(st.integers(0, 4))
    elem = st.integers(0, ring.m - 1)
    a = [[data.draw(elem) for _ in range(inner)] for _ in range(rows)]
    b = [[data.draw(elem) for _ in range(cols)] for _ in range(inner)]
    want = [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % ring.m for j in range(cols)]
        for i in range(rows)
    ]
    as_array = lambda values, shape: np.array(values, dtype=np.int64).reshape(shape)
    left = (RVector(ring, as_array(a[0], inner)) if left_vector
            else RMatrix(ring, as_array(a, (rows, inner))))
    right = (RVector(ring, as_array(b, inner)) if right_vector
             else RMatrix(ring, as_array(b, (inner, cols))))
    got = left @ right
    if left_vector and right_vector:
        assert type(got) is int and got == want[0][0]
    elif left_vector:
        assert type(got) is RVector and got.tolist() == want[0]
    elif right_vector:
        assert type(got) is RVector and got.tolist() == [row[0] for row in want]
    else:
        assert type(got) is RMatrix and got.shape == (rows, cols) and got.tolist() == want


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_kernel_matches_the_exact_product_in_every_shape(data):
    """_mod_matmul on every pairing of 1-D and 2-D operands equals the
    object-dtype product mod m, shape included.  At m = 2^31 - 1 the
    chunk is 2 terms, so inner 3 and 5 take the chunked branch."""
    m = data.draw(st.sampled_from([2, 4, 65521, 2**31 - 1]))
    inner = data.draw(st.sampled_from([0, 1, 2, 3, 5]))
    a_shape = data.draw(st.sampled_from([(inner,), (data.draw(st.integers(0, 3)), inner)]))
    b_shape = data.draw(st.sampled_from([(inner,), (inner, data.draw(st.integers(0, 3)))]))
    elem = st.integers(0, m - 1) | st.just(m - 1)
    draw = lambda shape: np.array(
        [data.draw(elem) for _ in range(int(np.prod(shape)))], dtype=np.int64
    ).reshape(shape)
    a, b = draw(a_shape), draw(b_shape)
    want = (a.astype(object) @ b.astype(object)) % m
    got = linalg._mod_matmul(a, b, m)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tolist() == np.asarray(want).tolist()


def test_matmul_mismatch_names_both_shapes():
    r4, r9 = make_ring(2, 2), make_ring(3, 2)
    cases = [
        (vector(r4, [1, 2]), vector(r4, [1, 2, 3]), r"^shapes \(2,\) @ \(3,\)$"),
        (vector(r4, [1, 2]), matrix(r4, [[1, 2]]), r"^shapes \(2,\) @ \(1, 2\)$"),
        (matrix(r4, [[1, 2]]), vector(r4, [1]), r"^shapes \(1, 2\) @ \(1,\)$"),
        (matrix(r4, [[1, 2]]), matrix(r4, [[1, 2]]), r"^shapes \(1, 2\) @ \(1, 2\)$"),
        (vector(r4, [1, 2]), vector(r9, [1, 2]), r"^mixed rings Z_4 and Z_9$"),
    ]
    for left, right, message in cases:
        with pytest.raises(DimensionMismatch, match=message):
            left @ right
    with pytest.raises(TypeError):
        vector(r4, [1, 2]) @ 3


# ------------------------------------------------------------------ ranks


def test_unit_rank_anchors():
    r4 = make_ring(2, 2)
    assert unit_rank(RMatrix.identity(r4, 5)) == 5
    assert unit_rank(matrix(r4, [[0] * 4] * 3)) == 0
    # entries divisible by p never qualify as pivots
    assert unit_rank(matrix(r4, [[2, 0], [0, 2]])) == 0
    assert unit_rank(matrix(r4, [[1, 2], [2, 2]])) == 1
    assert unit_rank(matrix(r4, [[2, 1], [0, 2]])) == 1
    assert is_full_row_rank(matrix(r4, [[1, 2, 0], [0, 3, 1]]))
    assert not is_full_row_rank(matrix(r4, [[1, 2, 0], [2, 0, 0]]))


def test_unit_rank_matches_field_rank():
    rng = random.Random(101)
    for ring in RINGS:
        for _ in range(60):
            r, c = rng.randrange(1, 6), rng.randrange(1, 7)
            rows = rand_rows(rng, r, c, ring.m)
            assert unit_rank(matrix(ring, rows)) == field_rank(rows, ring.p)


def test_unit_rank_matches_largest_invertible_minor():
    rng = random.Random(202)
    for ring in RINGS:
        for _ in range(25):
            r, c = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = rand_rows(rng, r, c, ring.m)
            assert unit_rank(matrix(ring, rows)) == largest_unit_minor(rows, ring.p)


def test_unit_rank_invariant_under_row_operations():
    rng = random.Random(303)
    for ring in RINGS:
        for _ in range(40):
            r, c = rng.randrange(2, 5), rng.randrange(1, 6)
            rows = rand_rows(rng, r, c, ring.m)
            base = unit_rank(matrix(ring, rows))
            i, j = rng.sample(range(r), 2)
            # swap, unit scaling, shear: all rank preserving
            rows[i], rows[j] = rows[j], rows[i]
            assert unit_rank(matrix(ring, rows)) == base
            u = rng.choice([v for v in range(1, ring.m) if v % ring.p])
            rows[i] = [v * u % ring.m for v in rows[i]]
            assert unit_rank(matrix(ring, rows)) == base
            f = rng.randrange(ring.m)
            rows[i] = [(a + f * b) % ring.m for a, b in zip(rows[i], rows[j])]
            assert unit_rank(matrix(ring, rows)) == base


# -------------------------------------------------- inverses and solving


def test_right_inverse_identity():
    rng = random.Random(404)
    for ring in RINGS:
        done = 0
        while done < 25:
            r = rng.randrange(1, 5)
            c = rng.randrange(r, 7)
            mat = matrix(ring, rand_rows(rng, r, c, ring.m))
            if not is_full_row_rank(mat):
                continue
            inv = right_inverse(mat)
            assert inv.shape == (c, r)
            assert mat @ inv == RMatrix.identity(ring, r)
            done += 1


def test_right_inverse_of_square_is_two_sided():
    ring = make_ring(3, 2)
    mat = matrix(ring, [[2, 5, 1], [0, 1, 7], [3, 0, 4]])
    inv = right_inverse(mat)
    assert mat @ inv == RMatrix.identity(ring, 3)
    assert inv @ mat == RMatrix.identity(ring, 3)


def test_right_inverse_requires_full_row_rank():
    r4 = make_ring(2, 2)
    with pytest.raises(NotFullRowRank):
        right_inverse(matrix(r4, [[2, 0], [0, 2]]))
    with pytest.raises(NotFullRowRank):
        right_inverse(matrix(r4, [[1, 2, 3], [2, 0, 2], [3, 2, 1]]))


def test_solve_unique_round_trip():
    rng = random.Random(505)
    for ring in RINGS:
        done = 0
        while done < 25:
            n = rng.randrange(1, 6)
            a = matrix(ring, rand_rows(rng, n, n, ring.m))
            if unit_rank(a) < n:
                continue
            x = vector(ring, [rng.randrange(ring.m) for _ in range(n)])
            assert solve_unique(a, a @ x) == x
            done += 1


def test_solve_unique_agrees_with_exhaustive_search():
    """For tiny invertible systems, enumeration finds exactly one solution."""
    ring = make_ring(2, 2)
    rng = random.Random(606)
    done = 0
    while done < 10:
        rows = rand_rows(rng, 2, 2, 4)
        a = matrix(ring, rows)
        if unit_rank(a) < 2:
            continue
        b = vector(ring, [rng.randrange(4), rng.randrange(4)])
        sols = [
            (x0, x1)
            for x0 in range(4)
            for x1 in range(4)
            if all(
                (rows[i][0] * x0 + rows[i][1] * x1) % 4 == b[i] for i in range(2)
            )
        ]
        assert len(sols) == 1
        assert solve_unique(a, b).tolist() == list(sols[0])
        done += 1


def test_solve_unique_rejects_singular_systems():
    r4 = make_ring(2, 2)
    f2 = make_ring(2, 1)
    with pytest.raises(Singular):
        solve_unique(matrix(f2, [[1, 1], [1, 1]]), vector(f2, [0, 1]))
    with pytest.raises(Singular):
        solve_unique(matrix(r4, [[1, 0], [0, 2]]), vector(r4, [1, 2]))
    # consistent but not uniquely solvable: still an error for a unique solver
    with pytest.raises(Singular):
        solve_unique(matrix(r4, [[2, 0], [0, 2]]), vector(r4, [2, 0]))


def test_solve_unique_dimension_errors():
    r4, f3 = make_ring(2, 2), make_ring(3, 1)
    with pytest.raises(DimensionMismatch):
        solve_unique(matrix(r4, [[1, 0, 0], [0, 1, 0]]), vector(r4, [1, 1]))
    with pytest.raises(DimensionMismatch):
        solve_unique(matrix(r4, [[1, 0], [0, 1]]), vector(r4, [1, 1, 1]))
    with pytest.raises(DimensionMismatch):
        solve_unique(matrix(r4, [[1, 0], [0, 1]]), vector(f3, [1, 1]))


# ------------------------------------------------------- row selection


def test_select_independent_rows_anchor():
    f2 = make_ring(2, 1)
    mat = matrix(f2, [[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert select_independent_rows(mat, 2) == [1, 3]
    assert select_independent_rows(mat, 0) == []
    with pytest.raises(NotEnoughIndependentRows):
        select_independent_rows(mat, 3)
    with pytest.raises(BadParameters):
        select_independent_rows(mat, 5)


def test_select_independent_rows_is_lexicographically_first():
    """Greedy choice equals the first independent subset in lex order."""
    rng = random.Random(707)
    for ring in RINGS:
        for _ in range(30):
            r, c = rng.randrange(1, 6), rng.randrange(1, 5)
            rows = rand_rows(rng, r, c, ring.m)
            mat = matrix(ring, rows)
            count = rng.randrange(0, min(r, c) + 1)
            brute = next(
                (
                    list(combo)
                    for combo in itertools.combinations(range(r), count)
                    if unit_rank(mat.take_rows(list(combo))) == count
                ),
                None,
            )
            if brute is None:
                with pytest.raises(NotEnoughIndependentRows):
                    select_independent_rows(mat, count)
            else:
                assert select_independent_rows(mat, count) == brute


def test_select_independent_rows_nilpotent_rows_never_count():
    r4 = make_ring(2, 2)
    mat = matrix(r4, [[2, 2], [2, 0], [0, 2]])
    with pytest.raises(NotEnoughIndependentRows):
        select_independent_rows(mat, 1)


# ------------------------------------------------------ null witnesses


def test_left_null_vector_verified_by_multiplication():
    rng = random.Random(808)
    for ring in RINGS:
        for _ in range(25):
            c = rng.randrange(1, 5)
            r = rng.randrange(c + 1, c + 4)  # more rows than columns
            mat = matrix(ring, rand_rows(rng, r, c, ring.m))
            x = left_null_vector(mat)
            assert not x.is_zero
            assert (x @ mat).is_zero


def test_left_null_vector_exists_iff_rank_deficient():
    """Exhaustive over all 2x2 and 2x3 matrices mod 4."""
    ring = make_ring(2, 2)
    vectors = list(itertools.product(range(4), repeat=2))
    for shape in [(2, 2), (2, 3)]:
        r, c = shape
        for flat in itertools.product(range(4), repeat=r * c):
            rows = [list(flat[i * c : (i + 1) * c]) for i in range(r)]
            mat = matrix(ring, rows)
            exists = any(
                any(v) and all(
                    sum(v[i] * rows[i][j] for i in range(r)) % 4 == 0
                    for j in range(c)
                )
                for v in vectors
            )
            assert exists == (not is_full_row_rank(mat))
            if exists:
                x = left_null_vector(mat)
                assert not x.is_zero
                assert (x @ mat).is_zero
            else:
                with pytest.raises(BadParameters):
                    left_null_vector(mat)
