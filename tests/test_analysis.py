"""Security/efficiency figures against combinatorial enumeration.

The deep oracle here counts basis extensions directly: enumerate the
t-dimensional subspaces of F_q^k, fix a basis for each, and count the
(k - t)-element vector sets completing it to a basis of the whole
space.  The closed-form values must match these counts exactly.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest
import sympy

from lcdshare import (
    extension_count,
    guess_probability,
    information_rate,
    render_json,
    render_text,
    report_to_dict,
    table_row,
)
from lcdshare.errors import BadParameters, NotPrime, Overflow


# ---------------------------------------------------------------- oracles


def frank(vectors, q):
    """Rank over F_q by plain elimination on tuples."""
    rows = [list(v) for v in vectors]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        rows[rank] = [v * inv % q for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def count_extensions_exhaustively(k, t, q):
    """Sum over t-subspaces of F_q^k of the number of (k-t)-sets of
    vectors that complete a fixed basis of the subspace to a basis of
    the whole space."""
    space = list(itertools.product(range(q), repeat=k))
    subspaces = {}
    for combo in itertools.combinations(space, t):
        if frank(combo, q) != t:
            continue
        span = frozenset(
            tuple(
                sum(c * v[i] for c, v in zip(coeffs, combo)) % q
                for i in range(k)
            )
            for coeffs in itertools.product(range(q), repeat=t)
        )
        subspaces.setdefault(span, combo)
    if t == 0:
        subspaces = {frozenset([tuple([0] * k)]): ()}
    total = 0
    for basis in subspaces.values():
        total += sum(
            1
            for extra in itertools.combinations(space, k - t)
            if frank(list(basis) + list(extra), q) == k
        )
    return total


def sympy_extension_count(k, t, q):
    num = sympy.Integer(1)
    for i in range(k):
        num *= sympy.Integer(q) ** k - sympy.Integer(q) ** i
    den = sympy.factorial(k - t)
    for i in range(t):
        den *= sympy.Integer(q) ** t - sympy.Integer(q) ** i
    return sympy.Rational(num, den)


# ----------------------------------------------------------- exact values


def test_extension_count_matches_exhaustive_enumeration():
    cases = [
        (2, 0, 2), (2, 1, 2), (2, 2, 2),
        (3, 0, 2), (3, 1, 2), (3, 2, 2), (3, 3, 2),
        (2, 0, 3), (2, 1, 3), (2, 2, 3), (3, 1, 3),
    ]
    for k, t, q in cases:
        expected = count_extensions_exhaustively(k, t, q)
        assert extension_count(k, t, q) == Fraction(expected), (k, t, q)


def test_extension_count_anchors():
    assert extension_count(2, 0, 2) == 3  # the unordered bases of F_2^2
    assert extension_count(2, 1, 2) == 6
    assert extension_count(3, 0, 2) == 28
    assert extension_count(4, 0, 4) == 123379200


def test_extension_count_matches_independent_arithmetic():
    for k in range(1, 7):
        for t in range(k + 1):
            for q in [2, 3, 4, 5, 8, 9]:
                ours = extension_count(k, t, q)
                theirs = sympy_extension_count(k, t, q)
                assert sympy.Rational(ours.numerator, ours.denominator) == theirs


def test_extending_a_full_basis_is_unique():
    for k in range(1, 7):
        for q in [2, 3, 4, 5, 8, 9]:
            assert extension_count(k, k, q) == 1


def test_guess_probability_values():
    assert guess_probability(2, 1, 2) == Fraction(1, 12)
    assert guess_probability(2, 2, 2) == 1  # an authorized coalition is certain
    for k in range(1, 6):
        for t in range(k + 1):
            for q in [2, 3, 4, 9]:
                gp = guess_probability(k, t, q)
                assert 0 < gp <= 1
                assert gp == 1 / (extension_count(k, t, q) * q ** (k - t))


def test_information_rate_values():
    assert information_rate(8) == Fraction(4, 5)
    assert information_rate(1) == Fraction(1, 3)
    assert information_rate(6) == Fraction(3, 4)
    assert information_rate(498) == Fraction(249, 250)
    assert isinstance(information_rate(5), Fraction)


def test_parameter_validation():
    with pytest.raises(BadParameters):
        extension_count(2, 3, 2)
    with pytest.raises(BadParameters):
        extension_count(2, -1, 2)
    with pytest.raises(BadParameters):
        extension_count(2, 1, 1)
    with pytest.raises(BadParameters):
        guess_probability(2, 1, 0)
    with pytest.raises(BadParameters):
        information_rate(0)
    with pytest.raises(BadParameters):
        table_row(4, 5, 2)
    with pytest.raises(BadParameters):
        table_row(4, 0, 2)


# ---------------------------------------------------------------- reports


def test_table_row_defaults_and_fields():
    report = table_row(8, 4, 4)
    assert report.t == 3  # defaults to k - 1
    assert report.coalition_count == 123379200
    assert report.extension_count == extension_count(4, 3, 4)
    assert report.guess_probability == guess_probability(4, 3, 4)
    assert report.information_rate == Fraction(4, 5)
    assert report.ring_heuristic_flag  # 4 = 2^2 is not prime
    assert report.codeword_count == 4**4
    assert report.secret_space == 4**8
    assert table_row(8, 4, 4, t=1).t == 1


def test_flag_cleared_for_prime_rings():
    assert not table_row(8, 5, 2).ring_heuristic_flag
    assert not table_row(8, 4, 3).ring_heuristic_flag
    assert table_row(8, 4, 9).ring_heuristic_flag


def test_table_row_takes_only_ring_sizes():
    # q must be p^e <= 2^31 - 1; 2^61 - 1 is refused before any trial division
    assert not table_row(4, 2, 5).ring_heuristic_flag
    assert table_row(4, 2, 9).ring_heuristic_flag
    for q in (6, 12):
        with pytest.raises(NotPrime, match=rf"^ring size {q} is not a prime power$"):
            table_row(4, 2, q)
    start = time.perf_counter()
    with pytest.raises(Overflow):
        table_row(4, 2, 2**61 - 1)
    assert time.perf_counter() - start < 1.0


def test_render_text_content():
    text = render_text(table_row(8, 4, 4))
    assert "n=8 k=4 q=4 t=3" in text
    assert "4/5" in text
    assert "123379200/1" in text
    assert "caveat: q is a proper prime power" in text
    assert "unused" in text  # leakage caveat is always present
    prime_text = render_text(table_row(8, 5, 2))
    assert "prime power" not in prime_text
    assert "unused" in prime_text


def test_report_json_round_trip():
    doc = json.loads(render_json(table_row(2, 2, 2, t=1)))
    assert doc["guess_probability"]["rational"] == "1/12"
    assert doc["guess_probability"]["approx"] == "0.0833333"
    assert doc["information_rate"]["rational"] == "1/2"
    assert doc["ring_heuristic_flag"] is False
    assert (doc["codeword_count"], doc["secret_space"]) == ("4", "4")  # exact, as strings
    assert doc == report_to_dict(table_row(2, 2, 2, t=1))


def test_six_significant_digit_approximations():
    doc = report_to_dict(table_row(8, 4, 4))
    assert doc["information_rate"]["approx"] == "0.8"
    assert doc["coalition_count"]["approx"] in {"1.23379E+8", "123379000"}


def test_huge_parameters_stay_exact():
    """Values far beyond float range must still render."""
    report = table_row(498, 249, 9)
    assert report.information_rate == Fraction(249, 250)
    text = render_text(report)
    assert "E+" in text  # astronomically large counts
    doc = json.loads(render_json(report))
    num, den = map(int, doc["extension_count"]["rational"].split("/"))
    assert Fraction(num, den) == report.extension_count
