"""Code construction, parity checks, duality, and the LCD property."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data as refdata
from conftest import build_code
from reference_codes import TooLargeToEnumerate, is_lcd_oracle

from lcdshare import (
    LinearCode,
    RMatrix,
    dual,
    encode,
    is_codeword,
    is_lcd,
    make_ring,
    matrix,
    parity_check_from_generator,
    random_code,
    random_lcd_code,
    unit_rank,
    vector,
)
from lcdshare.errors import (
    BadParameters,
    DimensionMismatch,
    GenerationFailed,
    ValidationError,
)

SMALL_RINGS = [make_ring(p, e) for p, e in [(2, 1), (3, 1), (2, 2), (3, 2)]]


# ------------------------------------------------------------ validation


def test_reference_codes_validate(z4_code, f2_85_code, f2_84_code):
    for code in [z4_code, f2_85_code, f2_84_code]:
        code.validate()  # idempotent, no error
        assert code.G.shape == (code.k, code.n)
        assert code.H.shape == (code.n - code.k, code.n)


def test_validation_rejects_bad_dimensions(z4_instance):
    inst = dict(z4_instance)
    ring = make_ring(2, 2)
    good = build_code(inst)
    with pytest.raises(ValidationError):
        LinearCode(ring=ring, n=8, k=0, G=good.G, H=good.H)
    with pytest.raises(ValidationError):
        LinearCode(ring=ring, n=8, k=9, G=good.G, H=good.H)
    with pytest.raises(ValidationError):
        LinearCode(ring=ring, n=8, k=5, G=good.G, H=good.H)  # shape clash
    with pytest.raises(ValidationError):
        LinearCode(ring=make_ring(3, 1), n=8, k=4, G=good.G, H=good.H)


def test_validation_names_the_shape_of_a_wrong_h(z4_code):
    short = z4_code.H.take_rows(range(3))
    with pytest.raises(ValidationError, match=r"^H has shape \(3, 8\), expected \(4, 8\)$"):
        LinearCode(ring=z4_code.ring, n=8, k=4, G=z4_code.G, H=short)


def test_validation_rejects_rank_deficiency():
    r4 = make_ring(2, 2)
    # G's second row is twice the first: unit rank 1, not a free code
    with pytest.raises(ValidationError, match="^G is not full row rank$"):
        LinearCode(
            ring=r4,
            n=3,
            k=2,
            G=matrix(r4, [[1, 0, 1], [2, 0, 2]]),
            H=matrix(r4, [[0, 1, 0]]),
        )
    # H made of nilpotents: annihilates G but generates no free dual
    with pytest.raises(ValidationError):
        LinearCode(
            ring=r4,
            n=3,
            k=1,
            G=matrix(r4, [[1, 0, 0]]),
            H=matrix(r4, [[0, 2, 0], [0, 0, 2]]),
        )


def test_validation_rejects_nonorthogonal_parity(z4_code):
    rows = z4_code.H.tolist()
    rows[0][0] = (rows[0][0] + 1) % 4
    with pytest.raises(ValidationError) as err:
        LinearCode(
            ring=z4_code.ring,
            n=8,
            k=4,
            G=z4_code.G,
            H=matrix(z4_code.ring, rows),
        )
    assert "G H^T" in str(err.value)


# ------------------------------------------------------- parity derivation


@pytest.mark.parametrize("name", sorted(refdata.ALL_INSTANCES))
def test_parity_check_matches_reference_tables(name):
    """Standard-form construction reproduces each instance's H exactly."""
    inst = refdata.ALL_INSTANCES[name]
    ring = make_ring(inst["p"], inst["e"])
    derived = parity_check_from_generator(matrix(ring, inst["G"]))
    assert derived.H.tolist() == inst["H"]


def test_parity_check_standard_form_anchor():
    r4 = make_ring(2, 2)
    gen = matrix(r4, [[1, 0, 1, 2], [0, 1, 3, 1]])
    code = parity_check_from_generator(gen)
    assert code.H.tolist() == [[3, 1, 1, 0], [2, 3, 0, 1]]


def test_parity_check_with_scattered_pivots():
    f2 = make_ring(2, 1)
    code = parity_check_from_generator(matrix(f2, [[0, 1, 0], [0, 0, 1]]))
    assert code.H.tolist() == [[1, 0, 0]]
    assert is_codeword(code, vector(f2, [0, 1, 1]))
    assert not is_codeword(code, vector(f2, [1, 0, 0]))


def test_parity_check_random_properties():
    for ring in SMALL_RINGS:
        for seed in range(12):
            code = random_code(ring, n=6, k=3, seed=seed)
            syndromes = code.G @ code.H.T
            assert syndromes.shape == (3, 3) and not syndromes.entries.any()
            assert unit_rank(code.H) == 3


def test_parity_check_full_dimension_code():
    r9 = make_ring(3, 2)
    code = parity_check_from_generator(matrix(r9, [[1, 0], [4, 1]]))
    assert code.k == code.n == 2
    assert code.H.shape == (0, 2)
    assert is_codeword(code, vector(r9, [7, 5]))  # everything is a codeword


def test_dual_span_equals_annihilator_exhaustively():
    """span(H) must equal {x : G x^T = 0}, checked by full enumeration."""
    cases = [
        (make_ring(2, 1), 5, 2, 3),
        (make_ring(2, 2), 4, 2, 2),
        (make_ring(3, 1), 4, 2, 5),
        (make_ring(3, 2), 3, 1, 1),
    ]
    for ring, n, k, seed in cases:
        code = random_code(ring, n=n, k=k, seed=seed)
        g_rows = code.G.tolist()
        annihilator = {
            x
            for x in itertools.product(range(ring.m), repeat=n)
            if all(
                sum(a * b for a, b in zip(x, row)) % ring.m == 0 for row in g_rows
            )
        }
        h_rows = code.H.tolist()
        span = {
            tuple(
                sum(c * h_rows[i][j] for i, c in enumerate(coeffs)) % ring.m
                for j in range(n)
            )
            for coeffs in itertools.product(range(ring.m), repeat=n - k)
        }
        assert span == annihilator
        assert len(span) == ring.m ** (n - k)  # free dual of rank n-k


# ----------------------------------------------------------------- encode


@pytest.mark.parametrize("name", sorted(refdata.ALL_INSTANCES))
def test_encode_reproduces_reference_codewords(name):
    inst = refdata.ALL_INSTANCES[name]
    code = build_code(inst)
    for coeffs, expected in zip(inst["coefficients"], inst["codewords"]):
        got = encode(code, vector(code.ring, coeffs))
        assert got.tolist() == expected
        assert is_codeword(code, got)


@pytest.mark.parametrize("name", sorted(refdata.ALL_INSTANCES))
def test_nonzero_dual_words_are_not_codewords(name):
    """For an LCD code the two spans share only the zero word."""
    inst = refdata.ALL_INSTANCES[name]
    code = build_code(inst)
    for word in inst["dual_words"]:
        v = vector(code.ring, word)
        assert is_codeword(code, v) == v.is_zero


@settings(max_examples=50)
@given(st.data())
def test_encode_is_linear(data):
    ring = data.draw(st.sampled_from(SMALL_RINGS))
    code = random_code(ring, n=5, k=2, seed=data.draw(st.integers(0, 50)))
    elem = st.integers(0, ring.m - 1)
    u = vector(ring, [data.draw(elem) for _ in range(2)])
    v = vector(ring, [data.draw(elem) for _ in range(2)])
    a = data.draw(elem)
    combined = vector(ring, a * u.entries + v.entries)
    expected = (a * encode(code, u).entries + encode(code, v).entries) % ring.m
    assert encode(code, combined).tolist() == expected.tolist()


def test_encode_rejects_bad_input(z4_code):
    with pytest.raises(DimensionMismatch):
        encode(z4_code, vector(z4_code.ring, [1, 2, 3]))
    with pytest.raises(DimensionMismatch):
        encode(z4_code, vector(make_ring(3, 1), [1, 2, 0, 1]))
    with pytest.raises(DimensionMismatch):
        is_codeword(z4_code, vector(z4_code.ring, [1] * 7))


# -------------------------------------------------------------------- LCD


def test_reference_codes_are_lcd(z4_code, f2_85_code, f2_84_code):
    for code in [z4_code, f2_85_code, f2_84_code]:
        assert is_lcd(code)
        assert is_lcd_oracle(code)


def test_known_non_lcd_code():
    f2 = make_ring(2, 1)
    # the repetition code {00, 11} is its own dual, the worst case
    code = parity_check_from_generator(matrix(f2, [[1, 1]]))
    assert not is_lcd(code)
    assert not is_lcd_oracle(code)
    assert code.gram_inverse is None and code.stacked_inverse is None


def test_full_dimension_code_is_lcd():
    r4 = make_ring(2, 2)
    code = parity_check_from_generator(matrix(r4, [[1, 2], [0, 1]]))
    assert is_lcd(code)


def test_lcd_predicate_agrees_with_enumeration():
    for ring in SMALL_RINGS:
        for seed in range(30):
            code = random_code(ring, n=5, k=2, seed=seed)
            assert is_lcd(code) == is_lcd_oracle(code), (ring, seed)


def test_gram_criterion_equals_the_rank_of_the_stacked_matrix():
    """is_lcd reads the invertibility of H H^T; the definition is that
    of the stacked (G over H).  Both must agree on codes with and without
    the property, k = n included, and with enumeration where it fits."""
    verdicts = []
    for p, e in [(2, 1), (2, 2), (3, 2), (2, 8), (65521, 1), (2**31 - 1, 1)]:
        ring = make_ring(p, e)
        for seed in range(40):
            n = 1 + seed % 8
            k = n - seed // 8 % n  # k = n for the first eight seeds
            code = random_code(ring, n, k, seed)
            stacked = unit_rank(RMatrix(ring, np.vstack([code.G.entries, code.H.entries])))
            assert is_lcd(code) == (stacked == n), (ring, n, k, seed)
            if ring.m ** max(k, n - k) <= 2**16:
                assert is_lcd(code) == is_lcd_oracle(code), (ring, n, k, seed)
            verdicts.append(is_lcd(code))
    assert verdicts.count(False) > 20 and verdicts.count(True) > 100


def test_oracle_refuses_oversized_enumerations(z4_code):
    with pytest.raises(TooLargeToEnumerate):
        is_lcd_oracle(z4_code, limit=10)
    big = random_code(make_ring(1021, 1), n=4, k=3, seed=1)
    with pytest.raises(TooLargeToEnumerate):
        is_lcd_oracle(big)  # 1021^3 words is past the default limit


# ------------------------------------------------------------------- dual


def test_dual_swaps_roles(f2_85_code):
    d = dual(f2_85_code)
    assert (d.n, d.k) == (8, 3)
    assert d.G == f2_85_code.H
    assert d.H == f2_85_code.G
    assert dual(d) == f2_85_code


def test_dual_of_full_dimension_code_fails():
    r4 = make_ring(2, 2)
    code = parity_check_from_generator(RMatrix.identity(r4, 2))
    with pytest.raises(BadParameters):
        dual(code)


def test_dual_is_lcd_when_code_is():
    """C is LCD iff its dual is; spot check on random LCD codes."""
    for ring in SMALL_RINGS:
        code = random_lcd_code(ring, n=6, k=3, seed=11)
        assert is_lcd(dual(code))


# ------------------------------------------------------------- generation


def test_random_code_is_deterministic():
    r9 = make_ring(3, 2)
    a = random_code(r9, n=6, k=3, seed=42)
    b = random_code(r9, n=6, k=3, seed=42)
    assert a == b
    assert a != random_code(r9, n=6, k=3, seed=43)


def test_random_lcd_code_is_lcd_and_deterministic():
    for ring in SMALL_RINGS:
        code = random_lcd_code(ring, n=8, k=4, seed=7)
        assert is_lcd(code)
        assert code == random_lcd_code(ring, n=8, k=4, seed=7)


def test_generation_parameter_errors():
    r4 = make_ring(2, 2)
    with pytest.raises(BadParameters):
        random_lcd_code(r4, n=4, k=0, seed=1)
    with pytest.raises(BadParameters):
        random_lcd_code(r4, n=4, k=5, seed=1)
    # SplitMix64 would alias these with 2^64 - 1 and 0 if it masked them
    for draw in (random_code, random_lcd_code):
        with pytest.raises(BadParameters, match=r"^seed must be >= 0, got -1$"):
            draw(r4, n=4, k=2, seed=-1)
        with pytest.raises(BadParameters, match=rf"^seed must be < 2\^64, got {2**64}$"):
            draw(r4, n=4, k=2, seed=2**64)
    with pytest.raises(GenerationFailed):
        random_lcd_code(r4, n=4, k=2, seed=1, max_tries=0)
