"""Acceptance suite: one test per acceptance criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line
per criterion.  Criterion 1 includes a recovery expectation that the
shipped Z4 share table cannot meet: its ten coefficient rows span only
unit rank 3 (every row's fourth coordinate is nilpotent), so the four
named shares leave a rank-6 linear system with four consistent
candidate secrets.  The library refuses to guess and raises instead;
that assertion is left in place and fails honestly rather than being
weakened to match the defect.  tests/test_scheme.py shows the same
code recovering once given independent coefficient rows.
"""

import io
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import reference_data as refdata
from conftest import DATA_DIR, build_shares
from reference_codes import is_lcd_oracle
from test_analysis import count_extensions_exhaustively, sympy_extension_count

from lcdshare import (
    RMatrix,
    deal,
    extension_count,
    guess_probability,
    information_rate,
    is_full_row_rank,
    is_lcd,
    left_null_vector,
    make_ring,
    matrix,
    random_code,
    random_lcd_code,
    read_code,
    read_deal_record,
    read_secret,
    read_shares,
    recover,
    right_inverse,
    select_independent_rows,
    stack_rows,
    unit_rank,
    vector,
    write_code,
    write_deal_record,
    write_secret,
    write_shares,
)
from lcdshare.errors import (
    NotEnoughIndependentRows,
    NotEnoughIndependentShares,
    ParseError,
    ValidationError,
)

RINGS = {label: make_ring(p, e) for label, (p, e) in
         {"F2": (2, 1), "F3": (3, 1), "Z4": (2, 2), "Z9": (3, 2)}.items()}


def by_ids(shares, ids):
    return [shares[i - 1] for i in ids]


def test_c1_z4_share_table_and_recovery():
    """Z4 [8,4] worked instance: all ten shares, then recovery from 1,3,4,9."""
    inst = refdata.Z4_84
    code, secret, shares, record = build_shares(inst)
    for share, c, x, y in zip(shares, inst["codewords"], inst["x"], inst["y"]):
        assert share.c.tolist() == c
        assert (share.x, share.y) == (x, y)
    for (pid, l), dual_word in zip(record.coefficients, inst["dual_words"]):
        truncated = vector(code.ring, l.tolist()[: code.n - code.k])
        assert (truncated @ code.H).tolist() == dual_word
    # unattainable as shipped: these four codewords are dependent
    # (2*c3 = 2*c9), leaving four consistent secrets; see module docstring
    got = recover(code, by_ids(shares, (1, 3, 4, 9)))
    assert got == vector(code.ring, [2, 2, 0, 0, 0, 0, 0, 0])


def test_c2_f2_8_5_recovery_with_dual_side_selection():
    """F2 [8,5]: recovery from ids 1,3,4,6,9 and the dual rows it uses."""
    inst = refdata.F2_85
    code, secret, shares, _ = build_shares(inst)
    subset = by_ids(shares, inst["recovery_ids"])
    assert subset[3].c.tolist() == [1, 1, 0, 0, 0, 1, 0, 0]  # l6 G
    assert recover(code, subset) == secret

    g_inv = right_inverse(code.G)
    truncated = stack_rows([s.c @ g_inv for s in subset]).take_cols(range(3))
    picks = select_independent_rows(truncated, 3)
    assert [subset[i].id for i in picks] == [1, 3, 6]
    for i in picks:
        expected = inst["dual_rows"][subset[i].id]
        assert (truncated.row(i) @ code.H).tolist() == expected


def test_c3_f2_8_4_recovery():
    """F2 [8,4]: recovery from ids 1,5,11,15."""
    inst = refdata.F2_84
    code, secret, shares, _ = build_shares(inst)
    assert recover(code, by_ids(shares, inst["recovery_ids"])) == secret


def test_c4_lcd_predicate_agrees_with_enumeration():
    """is_lcd vs brute force on 200+ random codes per ring, under 30 s."""
    started = time.monotonic()
    rng = random.Random(40404)
    for ring in RINGS.values():
        for _ in range(200):
            n = rng.randrange(1, 7)
            k = rng.randrange(1, n + 1)
            code = random_code(ring, n=n, k=k, seed=rng.randrange(2**32))
            assert is_lcd(code) == is_lcd_oracle(code), (ring, n, k)
    assert time.monotonic() - started < 30.0


def test_c5_random_round_trips():
    """100 full deal/recover cycles over random LCD codes, under 60 s."""
    started = time.monotonic()
    rng = random.Random(50505)
    ring_cycle = itertools.cycle(RINGS.values())
    done = 0
    while done < 100:
        ring = next(ring_cycle)
        n = rng.randrange(2, 11)
        k = rng.randrange((n + 1) // 2, n)  # 2k >= n with a nonempty dual side
        code = random_lcd_code(ring, n=n, k=k, seed=rng.randrange(2**32))
        secret = vector(ring, [rng.randrange(ring.m) for _ in range(n)])
        shares, _ = deal(code, secret, count=k + 3, seed=rng.randrange(2**32))
        c_matrix = stack_rows([s.c for s in shares])
        try:
            picked = select_independent_rows(c_matrix, k)
        except NotEnoughIndependentRows:
            continue  # this draw lacks an independent k-subset; redraw
        subset = [shares[i] for i in picked]
        assert recover(code, subset) == secret
        done += 1
    assert time.monotonic() - started < 60.0


def test_c6_sub_threshold_sets_fail_loudly():
    """k-1 shares, and k shares with dependent codewords, both refuse."""
    inst = refdata.Z4_84
    code, secret, shares, _ = build_shares(inst)
    with pytest.raises(NotEnoughIndependentShares):
        recover(code, shares[: code.k - 1])
    # four shares but c5 = 2 c1: still short of k independent rows
    with pytest.raises(NotEnoughIndependentShares):
        recover(code, by_ids(shares, inst["dependent_ids"]))

    f2_inst = refdata.F2_85
    f2_code, _, f2_shares, _ = build_shares(f2_inst)
    with pytest.raises(NotEnoughIndependentShares):
        recover(f2_code, f2_shares[: f2_code.k - 1])
    with pytest.raises(NotEnoughIndependentShares):
        recover(f2_code, by_ids(f2_shares, (1, 2, 3, 4, 8)))  # c8 = c1 + c4


def test_c7_inverse_identities_and_null_witnesses():
    """100+ right-inverse identities; 100+ verified left null vectors."""
    rng = random.Random(70707)
    for ring in [RINGS["Z4"], RINGS["F3"]]:
        done = 0
        while done < 100:
            r = rng.randrange(1, 6)
            c = rng.randrange(r, 9)
            mat = matrix(
                ring, [[rng.randrange(ring.m) for _ in range(c)] for _ in range(r)]
            )
            if not is_full_row_rank(mat):
                continue
            assert mat @ right_inverse(mat) == RMatrix.identity(ring, r)
            done += 1

    witnessed = 0
    for ring in RINGS.values():
        for _ in range(30):
            c = rng.randrange(1, 5)
            r = rng.randrange(c + 1, c + 5)  # more rows than columns
            mat = matrix(
                ring, [[rng.randrange(ring.m) for _ in range(c)] for _ in range(r)]
            )
            x = left_null_vector(mat)
            assert not x.is_zero
            assert (x @ mat).is_zero
            witnessed += 1
    assert witnessed >= 100


def test_c8_analysis_figures():
    """Rate and counting anchors against independent enumeration."""
    assert information_rate(8) == Fraction(4, 5)
    for k in range(1, 7):
        for q in [2, 3, 4, 5]:
            assert extension_count(k, k, q) == 1
    assert extension_count(2, 0, 2) == count_extensions_exhaustively(2, 0, 2) == 3
    enumerated = count_extensions_exhaustively(2, 1, 2)
    assert guess_probability(2, 1, 2) == Fraction(1, enumerated * 2) == Fraction(1, 12)
    import sympy

    ours = extension_count(4, 3, 4)
    assert sympy_extension_count(4, 3, 4) == sympy.Rational(
        ours.numerator, ours.denominator
    )


def test_c9_documents_round_trip_and_reject_corruption():
    """Byte-stable serialization; corrupt documents raise named errors."""
    for name in sorted(refdata.ALL_INSTANCES):
        for suffix, reader, writer in [
            (".code", read_code, write_code),
            (".shares", read_shares, write_shares),
            (".secret", read_secret, write_secret),
            (".dealrec", read_deal_record, write_deal_record),
        ]:
            path = DATA_DIR / f"{name}{suffix}"
            loaded = reader(path)
            buf = io.BytesIO()
            writer(buf, loaded)
            assert buf.getvalue() == path.read_bytes(), path.name
            assert reader(io.BytesIO(buf.getvalue())) == loaded

    doc = json.loads((DATA_DIR / "z4_8_4.code").read_text())
    doc["G"][0][0] = 4
    with pytest.raises(ValidationError):
        read_code(io.BytesIO(json.dumps(doc).encode()))
    doc = json.loads((DATA_DIR / "z4_8_4.code").read_text())
    doc["unexpected"] = 1
    with pytest.raises(ParseError):
        read_code(io.BytesIO(json.dumps(doc).encode()))
    doc = json.loads((DATA_DIR / "z4_8_4.shares").read_text())
    doc["shares"][1]["id"] = 1
    with pytest.raises(ValidationError):
        read_shares(io.BytesIO(json.dumps(doc).encode()))
    with pytest.raises(ParseError):
        read_secret(io.BytesIO(b'{"format_version": 2'))