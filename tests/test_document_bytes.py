"""The writers against json.dumps(indent=2), and what they refuse.

Each writer fills its kind's layout, the document's bytes with %d for
every number, so what it writes must be the bytes of
json.dumps(document, indent=2) and a newline, for every kind, ring and
shape, ids beyond int64 and empty lists among them.  A number that is
not exactly an int (1.5 or True, which %d writes as 1, or a numpy
integer) is refused, naming its field, before any file is created; so
is a word of the wrong length, or over another ring than the document's.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdshare import (
    DealRecord,
    Share,
    make_ring,
    random_code,
    vector,
    write_code,
    write_deal_record,
    write_secret,
    write_shares,
)
from lcdshare.errors import ValidationError
from lcdshare.io_formats import ShareFile

RINGS = [(2, 1), (2, 2), (2, 8), (65521, 1), (2**31 - 1, 1)]
IDS = st.integers(1, 2**70)


def written(write, obj):
    buf = io.BytesIO()
    write(buf, obj)
    return buf.getvalue()


def header(ring, n):
    return {"format_version": 1, "ring": {"p": ring.p, "e": ring.e}, "n": n}


@st.composite
def documents(draw):
    """(bytes a writer wrote, the document as a dict) for one of the
    four kinds, over a drawn ring, with k = n and empty lists among the
    cases."""
    ring = make_ring(*draw(st.sampled_from(RINGS)))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    rows = lambda count, width: draw(
        st.lists(st.lists(st.integers(0, ring.m - 1), min_size=width, max_size=width),
                 min_size=count, max_size=count)
    )
    kind = draw(st.sampled_from(["code", "shares", "secret", "dealrec"]))
    if kind == "code":
        code = random_code(ring, n, k, draw(st.integers(0, 2**64 - 1)))
        document = {**header(ring, n), "k": k, "G": code.G.tolist(), "H": code.H.tolist()}
        return written(write_code, code), document
    if kind == "secret":
        s = rows(1, n)[0]
        return written(write_secret, vector(ring, s)), {**header(ring, n), "secret": {"s": s}}
    ids = draw(st.lists(IDS, max_size=6, unique=True))
    if kind == "shares":
        words = rows(len(ids), n)
        xy = rows(len(ids), 2)
        shares = [Share(pid, vector(ring, c), x, y) for pid, c, (x, y) in zip(ids, words, xy)]
        entries = [{"id": s.id, "c": c, "x": s.x, "y": s.y} for s, c in zip(shares, words)]
        document = {**header(ring, n), "shares": entries}
        return written(write_shares, ShareFile(ring, n, tuple(shares))), document
    seed = draw(st.integers(0, 2**64 - 1))
    coefficients = rows(len(ids), k)
    record = DealRecord(ring, n, k, seed, tuple(
        (pid, vector(ring, row)) for pid, row in zip(ids, coefficients)
    ))
    entries = [{"id": pid, "l": row} for pid, row in zip(ids, coefficients)]
    document = {**header(ring, n), "k": k, "deal": {"seed": seed, "l": entries}}
    return written(write_deal_record, record), document


@settings(max_examples=300, deadline=None)
@given(documents())
def test_writers_write_what_json_dumps_writes(case):
    data, document = case
    expected = json.dumps(document, indent=2)
    assert data == (expected + "\n").encode("utf-8")


def test_a_shares_document_with_no_shares_lays_out_no_record():
    """Its n, here too large for any list, leaves the bytes as they are."""
    ring = make_ring(2, 2)
    document = {**header(ring, 2**62), "shares": []}
    data = written(write_shares, ShareFile(ring, 2**62, ()))
    assert data == (json.dumps(document, indent=2) + "\n").encode("utf-8")


def test_a_deal_record_with_no_rows_lays_out_no_row():
    """Its k, here too large for any list, leaves the bytes as they are."""
    ring = make_ring(2, 2)
    document = {**header(ring, 2**62), "k": 2**62, "deal": {"seed": 0, "l": []}}
    data = written(write_deal_record, DealRecord(ring, 2**62, 2**62, 0, ()))
    assert data == (json.dumps(document, indent=2) + "\n").encode("utf-8")


def z4_share(**fields):
    ring = make_ring(2, 2)
    share = Share(**{"id": 1, "c": vector(ring, [1, 2, 3]), "x": 0, "y": 1, **fields})
    return ShareFile(ring, 3, (share,))


def z4_record(seed, pid=1):
    ring = make_ring(2, 2)
    return DealRecord(ring, 3, 2, seed, ((pid, vector(ring, [1, 2])),))


@pytest.mark.parametrize(
    "write, obj, field",
    [
        (write_shares, z4_share(x=1.5), "x"),
        (write_shares, z4_share(x=True), "x"),
        (write_shares, z4_share(id=np.int64(2)), "id"),
        (write_shares, z4_share(y=2.0), "y"),
        (write_deal_record, z4_record(1.5), "seed"),
        (write_deal_record, z4_record(np.int64(7)), "seed"),
        (write_deal_record, z4_record(7, pid=True), "id"),
    ],
    ids=["float-x", "bool-x", "numpy-id", "float-y", "float-seed", "numpy-seed", "bool-record-id"],
)
def test_writers_refuse_numbers_that_are_not_ints(tmp_path, write, obj, field):
    target = tmp_path / "document"
    with pytest.raises(TypeError, match=f"^{field}: expected an integer"):
        write(target, obj)
    assert not target.exists()


Z2, Z4, Z8 = make_ring(2, 1), make_ring(2, 2), make_ring(2, 3)


def z4_shares(*words):
    """A Z_4 shares document of length 3; its ring is equal to Z4 but
    not the same object."""
    return ShareFile(make_ring(2, 2), 3, tuple(Share(i + 1, w, 0, 1) for i, w in enumerate(words)))


def z4_rows(*rows):
    return DealRecord(make_ring(2, 2), 4, 3, 7, tuple((i + 1, row) for i, row in enumerate(rows)))


@pytest.mark.parametrize(
    "write, obj, message",
    [
        (write_shares, z4_shares(vector(Z4, [1, 2])), "shares[0]: c has length 2, expected n=3"),
        # two wrong lengths that sum to the right count must not shift numbers into other fields
        (write_shares, z4_shares(vector(Z4, [1, 2]), vector(Z4, [1, 2, 3, 0])),
         "shares[0]: c has length 2, expected n=3"),
        (write_deal_record, z4_rows(vector(Z4, [1, 2])), "deal.l[0].l has length 2, expected k=3"),
        (write_shares, z4_shares(vector(Z2, [1, 0, 1])),
         "shares[0].c is over Z_2, the document's ring is Z_4"),
        (write_shares, z4_shares(vector(Z4, [1, 2, 3]), vector(Z8, [7, 0, 1])),
         "shares[1].c is over Z_8, the document's ring is Z_4"),
        (write_deal_record, z4_rows(vector(Z4, [1, 2, 3]), vector(Z2, [1, 0, 1])),
         "deal.l[1].l is over Z_2, the document's ring is Z_4"),
    ],
    ids=["short-c", "unequal-c", "short-l", "c-over-z2", "second-c-over-z8", "l-over-z2"],
)
def test_writers_refuse_words_their_readers_would_misread(tmp_path, write, obj, message):
    """A word of the wrong length is refused with its reader's class and
    message, and a word over another ring, which a reader would read back
    over the document's ring, by a ValidationError naming it; both before
    any file exists."""
    target = tmp_path / "document"
    with pytest.raises(ValidationError) as err:
        write(target, obj)
    assert str(err.value) == message
    assert not target.exists()
