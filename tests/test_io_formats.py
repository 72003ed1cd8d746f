"""Document serialization: canonical bytes out, strict validation in."""

import hashlib
import io
import json
import re
import time

import pytest

import reference_data as refdata
from conftest import build_code, build_secret, build_shares

from lcdshare import (
    SplitMix64,
    deal,
    make_ring,
    random_lcd_code,
    read_code,
    read_deal_record,
    read_secret,
    read_shares,
    vector,
    write_code,
    write_deal_record,
    write_secret,
    write_shares,
)
from lcdshare.errors import NotPrime, Overflow, ParseError, ValidationError
from lcdshare.io_formats import ShareFile, _residue_block, _share_columns

NAMES = sorted(refdata.ALL_INSTANCES)


def dumped(write, obj):
    buf = io.BytesIO()
    write(buf, obj)
    return buf.getvalue()


def mutated_bytes(path, mutate):
    doc = json.loads(path.read_text())
    mutate(doc)
    return io.BytesIO(json.dumps(doc).encode())


# ------------------------------------------------------------ round trips


@pytest.mark.parametrize("name", NAMES)
def test_code_documents_are_byte_stable(name, data_dir):
    path = data_dir / f"{name}.code"
    code = read_code(path)
    assert code == build_code(refdata.ALL_INSTANCES[name])
    assert dumped(write_code, code) == path.read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_share_documents_are_byte_stable(name, data_dir):
    path = data_dir / f"{name}.shares"
    code, secret, shares, _ = build_shares(refdata.ALL_INSTANCES[name])
    loaded = read_shares(path)
    assert loaded.ring == code.ring
    assert loaded.n == code.n
    assert list(loaded.shares) == shares
    assert dumped(write_shares, loaded) == path.read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_secret_documents_are_byte_stable(name, data_dir):
    path = data_dir / f"{name}.secret"
    secret = read_secret(path)
    assert secret == build_secret(refdata.ALL_INSTANCES[name])
    assert dumped(write_secret, secret) == path.read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_deal_records_are_byte_stable(name, data_dir):
    path = data_dir / f"{name}.dealrec"
    record = read_deal_record(path)
    _, _, _, built = build_shares(refdata.ALL_INSTANCES[name])
    assert record == built
    assert dumped(write_deal_record, record) == path.read_bytes()


def test_documents_end_with_newline(data_dir):
    for path in sorted(data_dir.iterdir()):
        data = path.read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")


def test_canonical_key_order(data_dir):
    text = (data_dir / "z4_8_4.code").read_text()
    positions = [text.index(f'"{key}"') for key in ["format_version", "ring", "n", "k", "G", "H"]]
    assert positions == sorted(positions)
    text = (data_dir / "z4_8_4.shares").read_text()
    positions = [text.index(f'"{key}"') for key in ["format_version", "ring", "n", "shares", "id", "c", "x", "y"]]
    assert positions == sorted(positions)


def test_readers_accept_paths_strings_and_streams(data_dir):
    path = data_dir / "f2_8_5.code"
    from_path = read_code(path)
    assert read_code(str(path)) == from_path
    with open(path, "rb") as fh:
        assert read_code(fh) == from_path
    with open(path, "r") as fh:
        assert read_code(fh) == from_path
    assert read_code(io.BytesIO(path.read_bytes())) == from_path


def test_zero_row_blocks_keep_their_width():
    """H of a k = n code and the codewords of an empty shares document
    read back as (0, n) blocks, as the validator shapes them."""
    assert _residue_block([], 5, 4, "G[{i}]").shape == (0, 5)
    ring = make_ring(2, 2)
    code = random_lcd_code(ring, 5, 5, seed=1)
    read_back = read_code(io.BytesIO(dumped(write_code, code)))
    assert read_back == code and read_back.H.shape == (0, 5)
    empty = dumped(write_shares, ShareFile(ring, 5, ()))
    assert read_shares(io.BytesIO(empty)) == ShareFile(ring, 5, ())
    assert _share_columns(io.BytesIO(empty))[3].shape == (0, 5)


def test_writers_refuse_silent_overwrite(tmp_path, f2_85_code):
    target = tmp_path / "out.code"
    write_code(target, f2_85_code)
    with pytest.raises(FileExistsError):
        write_code(target, f2_85_code)
    write_code(target, f2_85_code, overwrite=True)
    assert read_code(target) == f2_85_code


# ------------------------------------------------------------- rejection

CODE_CORRUPTIONS = [
    ("unknown-top-field", lambda d: d.update(extra=1), ParseError, "unknown field"),
    ("missing-field", lambda d: d.pop("k"), ParseError, "missing field"),
    ("bad-version", lambda d: d.update(format_version=2), ParseError, "format_version"),
    ("bool-version", lambda d: d.update(format_version=True), ParseError, "integer"),
    ("composite-ring", lambda d: d["ring"].update(p=4), ValidationError, "not prime"),
    ("oversized-ring", lambda d: d["ring"].update(p=2147483647, e=2), ValidationError, "exceeds"),
    ("unknown-ring-field", lambda d: d["ring"].update(q=2), ParseError, "unknown field"),
    ("zero-length", lambda d: d.update(n=0), ValidationError, ">= 1"),
    ("residue-too-big", lambda d: d["G"][0].__setitem__(0, 4), ValidationError, "out of range"),
    ("residue-negative", lambda d: d["G"][0].__setitem__(0, -1), ValidationError, "out of range"),
    ("residue-bool", lambda d: d["G"][0].__setitem__(0, True), ParseError, "integer"),
    ("residue-string", lambda d: d["G"][0].__setitem__(0, "1"), ParseError, "integer"),
    ("row-count", lambda d: d.update(G=d["G"][:3]), ValidationError, "rows"),
    ("row-length", lambda d: d["H"][0].pop(), ValidationError, "length"),
    ("broken-duality", lambda d: d["H"][0].__setitem__(0, 1), ValidationError, "G H^T"),
    ("rank-deficient", lambda d: d["G"].__setitem__(1, d["G"][0]), ValidationError, "rank"),
]


@pytest.mark.parametrize("label, mutate, exc, fragment", CODE_CORRUPTIONS,
                         ids=[c[0] for c in CODE_CORRUPTIONS])
def test_corrupted_code_documents_are_rejected(label, mutate, exc, fragment, data_dir):
    source = mutated_bytes(data_dir / "z4_8_4.code", mutate)
    with pytest.raises(exc) as err:
        read_code(source)
    assert fragment in str(err.value)


def test_a_large_ring_p_fails_at_once(data_dir):
    # trial division up to sqrt(p) used to stall here for minutes
    prime, composite = 2**61 - 1, (2**31 - 1) ** 2
    for p, cause, fragment in [
        (prime, Overflow, f"{prime}^1 = {prime} exceeds the supported bound"),
        (composite, Overflow, f"{composite}^1 = {composite} exceeds the supported bound"),
    ]:
        source = mutated_bytes(data_dir / "z4_8_4.code", lambda d: d["ring"].update(p=p, e=1))
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=re.escape(f"code document.ring: {fragment}")) as err:
            read_code(source)
        assert time.perf_counter() - start < 1.0
        assert type(err.value.__cause__) is cause


SHARE_CORRUPTIONS = [
    ("duplicate-id", lambda d: d["shares"][1].update(id=1), ValidationError, "duplicate participant id"),
    ("zero-id", lambda d: d["shares"][0].update(id=0), ValidationError, ">= 1"),
    ("short-codeword", lambda d: d["shares"][0]["c"].pop(), ValidationError, "length"),
    ("x-out-of-range", lambda d: d["shares"][0].update(x=4), ValidationError, "out of range"),
    ("y-out-of-range", lambda d: d["shares"][0].update(y=-2), ValidationError, "out of range"),
    ("share-missing-field", lambda d: d["shares"][0].pop("y"), ParseError, "missing field"),
    ("share-extra-field", lambda d: d["shares"][0].update(z=1), ParseError, "unknown field"),
    ("shares-not-array", lambda d: d.update(shares={}), ParseError, "array"),
]


@pytest.mark.parametrize("label, mutate, exc, fragment", SHARE_CORRUPTIONS,
                         ids=[c[0] for c in SHARE_CORRUPTIONS])
def test_corrupted_share_documents_are_rejected(label, mutate, exc, fragment, data_dir):
    source = mutated_bytes(data_dir / "z4_8_4.shares", mutate)
    with pytest.raises(exc) as err:
        read_shares(source)
    assert fragment in str(err.value)


def test_corrupted_secret_documents_are_rejected(data_dir):
    path = data_dir / "z4_8_4.secret"
    with pytest.raises(ValidationError, match="length"):
        read_secret(mutated_bytes(path, lambda d: d["secret"]["s"].pop()))
    with pytest.raises(ValidationError, match="out of range"):
        read_secret(mutated_bytes(path, lambda d: d["secret"]["s"].__setitem__(0, 9)))
    with pytest.raises(ParseError, match="unknown field"):
        read_secret(mutated_bytes(path, lambda d: d["secret"].update(t=[])))


def test_corrupted_deal_records_are_rejected(data_dir):
    path = data_dir / "z4_8_4.dealrec"
    with pytest.raises(ValidationError, match="seed"):
        read_deal_record(mutated_bytes(path, lambda d: d["deal"].update(seed=-1)))
    # deal refuses such a seed, so no dealt record can hold one
    with pytest.raises(ValidationError, match=rf"^deal\.seed must be < 2\^64, got {2**64}$"):
        read_deal_record(mutated_bytes(path, lambda d: d["deal"].update(seed=2**64)))
    with pytest.raises(ValidationError, match="length"):
        read_deal_record(mutated_bytes(path, lambda d: d["deal"]["l"][0]["l"].pop()))
    with pytest.raises(ValidationError, match="duplicate"):
        read_deal_record(mutated_bytes(path, lambda d: d["deal"]["l"][1].update(id=1)))
    with pytest.raises(ParseError, match="missing field"):
        read_deal_record(mutated_bytes(path, lambda d: d["deal"].pop("seed")))


def test_a_deal_record_id_of_zero_is_rejected(data_dir):
    path = data_dir / "z4_8_4.dealrec"
    with pytest.raises(ValidationError, match=r"^deal\.l\[2\]: participant id must be >= 1$"):
        read_deal_record(mutated_bytes(path, lambda d: d["deal"]["l"][2].update(id=0)))


def test_malformed_bytes_are_parse_errors(data_dir):
    raw = (data_dir / "z4_8_4.code").read_bytes()
    with pytest.raises(ParseError, match="invalid document"):
        read_code(io.BytesIO(raw[:40]))
    with pytest.raises(ParseError, match="UTF-8"):
        read_code(io.BytesIO(b"\xff\xfe\x00rubbish"))
    with pytest.raises(ParseError, match="top level"):
        read_code(io.BytesIO(b"[1, 2, 3]"))
    with pytest.raises(ParseError, match="duplicate field"):
        read_code(io.BytesIO(b'{"format_version": 1, "format_version": 1}'))


@pytest.mark.parametrize("name", ["z4_8_4.code", "z4_8_4.shares"])
def test_an_unreadable_number_or_nesting_is_a_parse_error(name, data_dir):
    """json.loads raises ValueError for an integer past Python's
    int-string digit limit and RecursionError for nesting past its
    recursion limit; the readers turn both into ParseError."""
    read = read_code if name.endswith(".code") else read_shares
    raw = (data_dir / name).read_bytes()
    long_n = raw.replace(b'"n": 8', b'"n": 1' + b"0" * 5000, 1)
    with pytest.raises(ParseError, match="^invalid document: a number has too many digits$"):
        read(io.BytesIO(long_n))
    with pytest.raises(ParseError, match="^invalid document: arrays or objects nested too deeply$"):
        read(io.BytesIO(b"[" * 100_000))


def test_parse_error_reports_location():
    with pytest.raises(ParseError, match=r"line \d+ column \d+"):
        read_code(io.BytesIO(b'{"format_version": 1,,}'))


def test_share_file_reexport_matches_fresh_build(data_dir, tmp_path):
    """Loading and rewriting under a new path is byte-faithful."""
    loaded = read_shares(data_dir / "f2_8_4.shares")
    target = tmp_path / "copy.shares"
    write_shares(target, ShareFile(ring=loaded.ring, n=loaded.n, shares=loaded.shares))
    assert target.read_bytes() == (data_dir / "f2_8_4.shares").read_bytes()


# sha256 of the .code, .shares, .secret and .dealrec bytes of a 1000-share
# deal on an [64, 40] code; the files in tests/data hold one-digit
# residues only, so these pin the layout of multi-digit rows.
DEAL_DIGESTS = {
    (65521, 11): (
        "d50fc81d2b4befbe0733a89aa95a412650d23f9e098d8ed567a9578c02795338",
        "4d6ea82eec8d5c20e0282abf259bdf5217552c4dd3bb9bf403dfcc1ae2247c1f",
        "827e90aa963427617aa0458983beda88ac21e3d4a0ed79aa8e7f5d0690ec06ff",
        "08bccf5a293cb748c240fecb6cdee60a0ed82453f9ef8080cc272b79a058a462",
    ),
    (2**31 - 1, 12): (
        "596b29e79fc127e9e5bcd892255303a9757152138b6aebc7b7fa143d13fc3b90",
        "6a925dea8d9312a3f110a05af16da698729544f9bc5d11ed6a6b466f4d73004a",
        "00839e3d0f17171a72e3933a60165b52735c61c0c30c082aa7aa387157a6c5d4",
        "f3d6b1ec30bef7a8c0ca565ab9ac37d4a63eedc2c69b337b9f5fa8908c23e406",
    ),
}


@pytest.mark.parametrize("p, seed", sorted(DEAL_DIGESTS))
def test_large_ring_documents_are_pinned(p, seed):
    ring = make_ring(p, 1)
    code = random_lcd_code(ring, 64, 40, seed)
    secret = vector(ring, SplitMix64(seed).residues(64, ring.m))
    shares, record = deal(code, secret, 1000, seed)
    documents = [
        dumped(write_code, code),
        dumped(write_shares, ShareFile(ring, 64, tuple(shares))),
        dumped(write_secret, secret),
        dumped(write_deal_record, record),
    ]
    digests = tuple(hashlib.sha256(doc).hexdigest() for doc in documents)
    assert digests == DEAL_DIGESTS[p, seed]
