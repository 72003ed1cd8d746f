"""The bulk document readers against the per-element reference readers.

Every valid document, and every document corrupted in one field, must
give the same outcome from both: an equal object, or the same error
class and message.  A document with several faults must be refused by
both, but they may name different faults: the bulk readers check a
whole block before they walk it, so they can meet a later fault first.
Corrupted documents may only raise ParseError or ValidationError.

A shares document laid out exactly as write_shares lays it out is read
by a byte-level reader; every other one, and every one that fails a
check, by the strict JSON reader.  So the byte-level reader must either
decline a document or return exactly the strict reader's columns.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_readers as ref
from conftest import DATA_DIR

from lcdshare import (
    DealRecord,
    Share,
    SplitMix64,
    deal,
    make_ring,
    random_code,
    random_lcd_code,
    vector,
    write_code,
    write_deal_record,
    write_secret,
    write_shares,
)
from lcdshare import cli, io_formats
from lcdshare.errors import ParseError, ValidationError
from lcdshare.io_formats import ShareFile

READERS = {
    "code": (io_formats.read_code, ref.read_code),
    "shares": (io_formats.read_shares, ref.read_shares),
    "secret": (io_formats.read_secret, ref.read_secret),
    "dealrec": (io_formats.read_deal_record, ref.read_deal_record),
}
RINGS = [(2, 1), (2, 2), (3, 2), (65521, 1)]


def written(write, obj) -> bytes:
    buf = io.BytesIO()
    write(buf, obj)
    return buf.getvalue()


def outcome(read, data: bytes):
    try:
        return "ok", read(io.BytesIO(data))
    except Exception as exc:  # the comparison covers any exception
        return type(exc), str(exc)


def assert_same_outcome(kind: str, data: bytes):
    new, old = (outcome(read, data) for read in READERS[kind])
    assert new == old
    assert new[0] in ("ok", ParseError, ValidationError)
    return new


def _columns(columns):
    """Share columns in a form that == compares in full: the int64
    block's dtype, shape and entries, and the type of every number."""
    ring, n, ids, words, xs, ys = columns
    numbers = [n, *ids, *xs, *ys]
    return ring, numbers, list(map(type, numbers)), words.dtype, words.shape, words.tolist()


def assert_fast_reader_agrees(data: bytes):
    """The byte-level shares reader declines data, or returns exactly
    the strict reader's columns for it."""
    fast = io_formats._canonical_share_columns(data)
    if fast is not None:
        assert _columns(fast) == _columns(io_formats._json_share_columns(data))


def laid_out(document) -> bytes:
    """A document in the layout the writers give it."""
    return (json.dumps(document, indent=2) + "\n").encode()


def _generated_documents():
    """(kind, bytes) for a dealt code over each ring, beside the files
    under tests/data."""
    for p, e in RINGS[1:]:
        ring = make_ring(p, e)
        code = random_lcd_code(ring, 6, 4, seed=11)
        secret = vector(ring, SplitMix64(3).residues(6, ring.m))
        shares, record = deal(code, secret, count=5, seed=7)
        yield "code", written(write_code, code)
        yield "secret", written(write_secret, secret)
        yield "shares", written(write_shares, ShareFile(ring, 6, tuple(shares)))
        yield "dealrec", written(write_deal_record, record)


CORPUS = [
    (path.suffix[1:], path.read_bytes()) for path in sorted(DATA_DIR.iterdir())
] + list(_generated_documents())


@pytest.mark.parametrize("kind, data", CORPUS)
def test_every_stored_document_reads_as_the_reference_reads_it(kind, data):
    assert assert_same_outcome(kind, data)[0] == "ok"


# ------------------------------------------------------ random valid documents


@st.composite
def valid_documents(draw):
    ring = make_ring(*draw(st.sampled_from(RINGS)))
    n = draw(st.integers(1, 7))
    residues = st.integers(0, ring.m - 1)

    def row(width):
        return vector(ring, draw(st.lists(residues, min_size=width, max_size=width)))

    kind = draw(st.sampled_from(sorted(READERS)))
    if kind == "code":
        k, seed = draw(st.integers(1, n)), draw(st.integers(0, 2**64 - 1))
        code = random_code(ring, n, k, seed)
        return kind, written(write_code, code)
    if kind == "secret":
        return kind, written(write_secret, row(n))
    ids = draw(st.lists(st.integers(1, 2**70), unique=True, max_size=6))
    if kind == "shares":
        shares = tuple(
            Share(id=pid, c=row(n), x=draw(residues), y=draw(residues)) for pid in ids
        )
        return kind, written(write_shares, ShareFile(ring, n, shares))
    k = draw(st.integers(1, n))
    record = DealRecord(
        ring=ring, n=n, k=k, seed=draw(st.integers(0, 2**64 - 1)),
        coefficients=tuple((pid, row(k)) for pid in ids),
    )
    return kind, written(write_deal_record, record)


@settings(max_examples=200, deadline=None)
@given(valid_documents())
def test_valid_documents_decode_to_the_reference_objects(document):
    kind, data = document
    assert assert_same_outcome(kind, data)[0] == "ok"
    assert_fast_reader_agrees(data)


# ------------------------------------------------- one-field corruptions

REPLACEMENTS = {
    "bool": True,
    "float": 1.5,
    "string": "1",
    "negative": -1,
    "zero": 0,
    "int64 overflow": 2**64,
}


def _children(node):
    if isinstance(node, dict):
        return node.items()
    return enumerate(node) if isinstance(node, list) else ()


def _paths(node, path=()):
    yield path
    for key, child in _children(node):
        yield from _paths(child, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _dumps(node, duplicate_at, path=()):
    """json.dumps, except that the object at duplicate_at repeats its
    first field."""
    parts = [
        (f"{json.dumps(key)}: " if isinstance(node, dict) else "")
        + _dumps(child, duplicate_at, path + (key,))
        for key, child in _children(node)
    ]
    if isinstance(node, dict):
        if path == duplicate_at:
            parts.append(parts[0])
        return "{" + ", ".join(parts) + "}"
    return "[" + ", ".join(parts) + "]" if isinstance(node, list) else json.dumps(node)


def _corruptions(node, path):
    """The one-field corruptions that apply at a node."""
    found = list(REPLACEMENTS) + ["m"]
    if isinstance(node, list):
        found += ["long row"] + (["short row"] if node else [])
        if path in (("shares",), ("deal", "l")) and len(node) > 1:
            found.append("duplicate id")
    if isinstance(node, dict):
        found += ["extra key"] + (["missing key", "duplicate key"] if node else [])
    return found


KINDS = list(REPLACEMENTS) + [
    "m", "short row", "long row", "missing key", "extra key", "duplicate key", "duplicate id",
]


def _part(node, path) -> str:
    """The part of a document a node belongs to: an id, a share's x or
    y, a residue entry of a row, another scalar (a header field such as
    n, p or the seed), or a list or object."""
    last = path[-1] if path else None
    if last == "id":
        return "id"
    if last in ("x", "y"):
        return "x/y"
    if isinstance(node, (dict, list)):
        return "list or object"
    return "entry" if isinstance(last, int) else "header field"


def corrupted(data: bytes, draw) -> bytes:
    """One corruption.  The part of the document is drawn first, then a
    kind that applies in it, then a node, so that a field each share
    has once (its id, x or y) is hit as often as the far more numerous
    residue entries, and a rare kind such as a duplicate id is as likely
    as a replaced residue."""
    doc = json.loads(data)
    m = doc["ring"]["p"] ** doc["ring"]["e"]
    sites = []
    for path in _paths(doc):
        node = _node(doc, path)
        sites.append((path, _part(node, path), _corruptions(node, path)))
    part = draw(st.sampled_from(sorted({where for _, where, _ in sites})))
    sites = [(path, kinds) for path, where, kinds in sites if where == part]
    how = draw(st.sampled_from([how for how in KINDS if any(how in k for _, k in sites)]))
    path = draw(st.sampled_from([path for path, kinds in sites if how in kinds]))
    if how == "duplicate key":
        return _dumps(doc, path).encode()
    node = _node(doc, path)
    if how in REPLACEMENTS or how == "m":
        value = m if how == "m" else REPLACEMENTS[how]
        if not path:
            return json.dumps(value).encode()
        _node(doc, path[:-1])[path[-1]] = value
    elif how == "short row":
        node.pop(draw(st.integers(0, len(node) - 1)))
    elif how == "long row":
        value = draw(st.sampled_from([0, 1, m - 1]))
        node.insert(draw(st.integers(0, len(node))), value)
    elif how == "duplicate id":
        index = st.integers(0, len(node) - 1)
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        node[j]["id"] = node[i]["id"]
    elif how == "missing key":
        node.pop(draw(st.sampled_from(sorted(node))))
    elif how == "extra key":
        node["extra"] = draw(st.sampled_from([0, [], {}]))
    return json.dumps(doc).encode()


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(CORPUS), st.data())
def test_one_field_corruptions_fail_as_the_reference_fails(document, data):
    kind, raw = document
    bad = corrupted(raw, data.draw)
    assert_same_outcome(kind, bad)
    assert_fast_reader_agrees(bad)
    try:  # the same corruption in the writers' layout, where the byte-level reader looks
        bad = laid_out(json.loads(bad))
    except ValueError:
        return
    assert_same_outcome(kind, bad)
    assert_fast_reader_agrees(bad)


def test_the_fast_reader_accepts_every_written_shares_document():
    """A change to the writers' layout must not send every read of a
    shares document to the strict reader unseen."""
    ring = make_ring(65521, 1)
    code = random_lcd_code(ring, 8, 4, seed=2)
    secret = vector(ring, SplitMix64(5).residues(8, ring.m))
    shares, _ = deal(code, secret, count=1000, seed=9)
    documents = [data for kind, data in CORPUS if kind == "shares"] + [
        written(write_shares, ShareFile(ring, 8, ())),
        written(write_shares, ShareFile(ring, 8, tuple(shares))),
    ]
    for data in documents:
        fast = io_formats._canonical_share_columns(data)
        assert fast is not None
        assert _columns(fast) == _columns(io_formats._json_share_columns(data))
    assert len(fast[2]) == 1000


# ------------------------------------ faults in the writers' shares layout

SHARES_FILE = (DATA_DIR / "z4_8_4.shares").read_bytes()  # Z_4, n = 8, ids 1..10
SHARES = json.loads(SHARES_FILE)


def _edited(edit) -> bytes:
    document = json.loads(json.dumps(SHARES))
    edit(document)
    return laid_out(document)


def _share(i, **fields):
    return lambda document: document["shares"][i].update(fields)


SKELETON_FAULTS = {
    # name: (document, whether its bytes without digits are the written file's,
    #        the strict reader's error class and message)
    "leading zero": (
        SHARES_FILE.replace(b'"id": 7,', b'"id": 07,'), True,
        ParseError, "invalid document: Expecting ',' delimiter (line 100 column 14)",
    ),
    "residue equal to m": (
        _edited(lambda d: d["shares"][1]["c"].__setitem__(4, 4)), True,
        ValidationError, "shares[1].c[4]: residue 4 out of range 0..3",
    ),
    "duplicate id": (
        _edited(_share(3, id=2)), True, ValidationError, "duplicate participant id 2",
    ),
    "id 0": (
        _edited(_share(2, id=0)), True,
        ValidationError, "shares[2]: participant id must be >= 1, got 0",
    ),
    "19-digit run": (
        _edited(lambda d: d["shares"][0]["c"].__setitem__(0, 10**18)), True,
        ValidationError, f"shares[0].c[0]: residue {10**18} out of range 0..3",
    ),
    "25-digit run": (
        _edited(_share(2, x=10**24)), True,
        ValidationError, f"shares[2].x[0]: residue {10**24} out of range 0..3",
    ),
    "format_version 2": (
        _edited(lambda d: d.update(format_version=2)), True,
        ParseError, "shares document: unsupported format_version 2",
    ),
    "p = 4": (
        _edited(lambda d: d["ring"].update(p=4)), True,
        ValidationError, "shares document.ring: 4 is not prime",
    ),
    "a digit moved into a key": (
        SHARES_FILE.replace(b'"n": 8,', b'"n8": ,'), True,
        ParseError, "invalid document: Expecting value (line 7 column 9)",
    ),
    "a number moved after a brace": (
        SHARES_FILE.replace(b'"e": 2\n  },', b'"e": \n  }2,'), True,
        ParseError, "invalid document: Expecting value (line 6 column 3)",
    ),
    "a number moved before a bracket": (
        SHARES_FILE.replace(b'"c": [\n        1,', b'"c": 1[\n        ,', 1), True,
        ParseError, "invalid document: Expecting ',' delimiter (line 11 column 13)",
    ),
    "a c entry removed, so n and the share count no longer fit": (
        _edited(lambda d: d["shares"][5]["c"].pop()), False,
        ValidationError, "shares[5]: c has length 7, expected n=8",
    ),
}


def test_ids_beyond_int64_read_as_the_reference_reads_them():
    """An id of 19 digits fits int64 and one of 20 does not; the second
    wraps to 11 in int64, which no other share has."""
    document = json.loads(SHARES_FILE)
    document["shares"][0]["id"] = 10**18
    document["shares"][1]["id"] = 2**64 + 11
    data = laid_out(document)
    assert assert_same_outcome("shares", data)[0] == "ok"
    assert_fast_reader_agrees(data)


@pytest.mark.parametrize("fault", SKELETON_FAULTS)
def test_faults_in_the_written_layout_get_the_strict_readers_error(fault, tmp_path, capsys):
    data, intact, error, message = SKELETON_FAULTS[fault]
    digits = b"0123456789"
    assert (data.translate(None, digits) == SHARES_FILE.translate(None, digits)) is intact
    assert outcome(ref.read_shares, data) == (error, message)
    assert outcome(io_formats.read_shares, data) == (error, message)
    shares_path = tmp_path / "faulty.shares"
    shares_path.write_bytes(data)
    code_path = str(DATA_DIR / "z4_8_4.code")
    rc = cli.main(["recover", "--code", code_path, "--shares", str(shares_path)])
    assert rc == 1
    assert f"error: {error.__name__}: {message}" in capsys.readouterr().err.splitlines()


def test_some_corruptions_name_the_bad_entry():
    """A few faults, with the message both readers must give."""
    shares = json.loads((DATA_DIR / "z4_8_4.shares").read_bytes())
    shares["shares"][2]["c"][5] = 2**64
    kind, message = assert_same_outcome("shares", json.dumps(shares).encode())
    assert (kind, message) == (
        ValidationError, f"shares[2].c[5]: residue {2**64} out of range 0..3"
    )
    code = json.loads((DATA_DIR / "f2_8_4.code").read_bytes())
    code["H"][1][0] = False
    assert assert_same_outcome("code", json.dumps(code).encode()) == (
        ParseError, "H[1][0]: expected an integer"
    )
    record = json.loads((DATA_DIR / "f2_8_5.dealrec").read_bytes())
    record["deal"]["l"][3]["l"].append(0)
    assert assert_same_outcome("dealrec", json.dumps(record).encode()) == (
        ValidationError, "deal.l[3].l has length 6, expected k=5"
    )
    record = json.loads((DATA_DIR / "f2_8_5.dealrec").read_bytes())
    record["deal"]["seed"] = 2**64
    assert assert_same_outcome("dealrec", json.dumps(record).encode()) == (
        ValidationError, f"deal.seed must be < 2^64, got {2**64}"
    )
    secret = json.loads((DATA_DIR / "z4_8_4.secret").read_bytes())
    secret["ring"]["e"] = 2**64
    assert assert_same_outcome("secret", json.dumps(secret).encode())[0] is ValidationError
    secret = json.loads((DATA_DIR / "z4_8_4.secret").read_bytes())
    secret.update(n=0, secret={"s": []})
    assert assert_same_outcome("secret", json.dumps(secret).encode()) == (
        ValidationError, "length n must be >= 1, got 0"
    )
    shares = json.loads((DATA_DIR / "z4_8_4.shares").read_bytes())
    shares["n"] = 0
    assert assert_same_outcome("shares", json.dumps(shares).encode()) == (
        ValidationError, "length n must be >= 1, got 0"
    )
    record = json.loads((DATA_DIR / "z4_8_4.dealrec").read_bytes())
    record["n"] = 0
    assert assert_same_outcome("dealrec", json.dumps(record).encode()) == (
        ValidationError, "length n must be >= 1, got 0"
    )


def test_a_document_with_two_faults_is_refused_by_both_readers():
    """Both refuse it, but not with the same message: the bulk reader
    checks every codeword's length before any x, so it names share 1
    where the reference, reading share by share, names share 0."""
    shares = json.loads((DATA_DIR / "z4_8_4.shares").read_bytes())
    shares["shares"][0]["x"] = 9
    shares["shares"][1]["c"] = [0, 1]
    data = json.dumps(shares).encode()
    for read in READERS["shares"]:
        assert outcome(read, data)[0] in (ParseError, ValidationError)
