"""The document encoder against json.dumps(indent=2).

io_formats writes documents through its own encoder, _dumps, which must
give the bytes json.dumps(document, indent=2) gives: on every document
the four writers produce, and on any other JSON value, where it falls
back to json.dumps and so also raises what json.dumps raises.
"""

import io
import json
from collections import OrderedDict

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
from lcdshare.io_formats import ShareFile, _dumps

RINGS = [(2, 1), (2, 2), (2, 8), (65521, 1), (2**31 - 1, 1)]
IDS = st.integers(1, 2**40)


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
    assert _dumps(document) == expected
    assert data == (expected + "\n").encode("utf-8")


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(st.integers(), min_size=1, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
        | st.dictionaries(KEYS, inner, max_size=3)
    ),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(VALUES)
def test_any_json_value_encodes_as_json_dumps_does(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_dict_subclasses_and_str_subclass_keys_fall_back():
    class Key(str):
        pass

    for value in [OrderedDict(a=[1, 2]), {Key("k"): [3]}, [{"a": []}, [[], {}]], [True, 1]]:
        assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [np.int64(1)],
        {"c": [1, np.int64(2)]},
        [[1, 2], [np.int64(3)]],
        {"a": {1, 2}},
        {(1, 2): 1},
        [{"x": object()}],
    ],
)
def test_values_json_cannot_encode_fail_as_in_json_dumps(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        _dumps(value)
    assert str(got.value) == str(expected.value)
