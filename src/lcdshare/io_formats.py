"""Canonical on-disk documents for codes, shares, secrets, deal records.

Four document kinds, conventionally named *.code, *.shares, *.secret
and *.dealrec.  All are UTF-8 JSON with a fixed key order, two-space
indentation and a trailing newline, so serialization is byte-stable:
reading a document written here and writing it again reproduces the
input exactly.  Each kind's bytes, json.dumps(document, indent=2) and
the newline with %d for every number, are spelled once, as its layout
(_code_layout and the three after it), which its writer fills.

Schemas (format_version is always 1):

  code    {format_version, ring{p,e}, n, k, G, H}
  shares  {format_version, ring{p,e}, n, shares[{id,c,x,y}]}
  secret  {format_version, ring{p,e}, n, secret{s}}
  dealrec {format_version, ring{p,e}, n, k, deal{seed, l[{id,l}]}}

Residues are plain decimal integers.  Parsing is strict: unknown or
missing fields, duplicate fields, or wrong JSON types raise ParseError;
documents that parse but break a domain invariant (residue out of
range, G H^T != 0, duplicate participant id, ...) raise ValidationError.
The strict reader checks each entry once, in one walk over its residue
rows (_residue_block) or participant records (_records), and names only
the first that fails.  Writers refuse to replace an existing file unless
overwrite is set.

A code or shares document laid out byte for byte as its writer lays it
out is read without a JSON parser (_canonical_numbers): one comparison
of its bytes without their digits against the writer's layout, one
vectorised pass over its numbers, and the strict reader's checks on the
resulting arrays.  Any other document that json parses gives identical
results through the strict reader, and so does any document that fails
a check: error messages come from the strict reader, or from the one
LinearCode validation that either path's arrays go through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .codes import LinearCode
from .errors import BadParameters, LcdshareError, ParseError, ValidationError
from .linalg import RMatrix, RVector
from .ring import RingSpec, make_ring
from .rng import SplitMix64
from .scheme import DealRecord, Share

FORMAT_VERSION = 1

Target = Union[str, Path, object]

_TYPE_NAMES = {int: "an integer", dict: "an object", list: "an array"}
_LENGTH = "{row} has length {got}, expected n={width}"
_C_LENGTH = "shares[{i}]: c has length {got}, expected n={width}"
_L_LENGTH = "{row} has length {got}, expected k={width}"


@dataclass(frozen=True)
class ShareFile:
    """Contents of a shares document: the ring, the code length, and
    the share list (codeword membership is only checked at recover
    time, against whichever code the caller pairs this file with)."""

    ring: RingSpec
    n: int
    shares: tuple[Share, ...]


# ---------------------------------------------------------------- writing


def _array_layout(items: list[bytes], depth: int) -> bytes:
    """A JSON array of laid-out items at nesting depth `depth`, or [];
    one % into a frame of %s slots copies each item once."""
    inner = b"\n" + b"  " * (depth + 1)
    frame = b"[" + inner + (b"," + inner).join([b"%s"] * len(items)) + inner[:-2] + b"]"
    return frame % tuple(items) if items else b"[]"


def _object_layout(depth: int, **fields: bytes) -> bytes:
    """A JSON object of laid-out fields, in order, at nesting depth `depth`."""
    frame = _array_layout([b'"%s": %%s' % key.encode() for key in fields], depth)
    return b"{%s}" % frame[1:-1] % tuple(fields.values())


def _document_layout(number: bytes, **fields: bytes) -> bytes:
    """format_version, ring{p,e} and n, then `fields`, and a newline;
    `number` stands for each number: %d, or nothing for the byte reader."""
    ring = _object_layout(1, p=number, e=number)
    return _object_layout(0, format_version=number, ring=ring, n=number, **fields) + b"\n"


def _code_layout(n: int, k: int, number: bytes = b"%d") -> bytes:
    row = _array_layout([number] * n, 2)
    G, H = _array_layout([row] * k, 1), _array_layout([row] * (n - k), 1)
    return _document_layout(number, k=number, G=G, H=H)


def _shares_layout(n: int, count: int, number: bytes = b"%d") -> bytes:
    c = _array_layout([number] * (n if count else 0), 3)  # with no shares, n is unused
    record = _object_layout(2, id=number, c=c, x=number, y=number)
    return _document_layout(number, shares=_array_layout([record] * count, 1))


def _secret_layout(n: int) -> bytes:
    return _document_layout(b"%d", secret=_object_layout(1, s=_array_layout([b"%d"] * n, 2)))


def _dealrec_layout(k: int, count: int) -> bytes:
    record = _object_layout(3, id=b"%d", l=_array_layout([b"%d"] * k, 4))
    deal = _object_layout(1, seed=b"%d", l=_array_layout([record] * count, 2))
    return _document_layout(b"%d", k=b"%d", deal=deal)


def _check_words(words, ring: RingSpec, width: int, row: str, length: str) -> None:
    """Refuse, with its reader's `length` message, a word of another length
    than width, and a word over another ring than the document's, which
    would read back over it; word i is row.format(i=i).  Ring identity is
    tested before equality, which would cost each word a comparison."""
    for i, word in enumerate(words):
        if (word.ring is not ring and word.ring != ring) or len(word) != width:
            name = row.format(i=i)
            if len(word) != width:
                raise ValidationError(length.format(row=name, i=i, got=len(word), width=width))
            raise ValidationError(f"{name} is over {word.ring}, the document's ring is {ring}")


def _write(target: Target, overwrite: bool, layout: bytes, ring: RingSpec, head, rows) -> None:
    """Fill layout with format_version, ring.p, ring.e, head and the
    numbers of rows, in order, and write it.  First refuse, by its field,
    a number not exactly an int: %d writes 1.5 as 1."""
    values = (FORMAT_VERSION, ring.p, ring.e, *head, *chain.from_iterable(rows))
    if not set(map(type, values)) <= {int}:
        i = next(i for i, v in enumerate(values) if type(v) is not int)
        field = b"%d".join(layout.split(b"%d", i + 1)[:-1]).rsplit(b'"', 2)[1].decode()
        raise TypeError(f"{field}: expected an integer, got {type(values[i]).__name__}")
    data = layout % values
    if hasattr(target, "write"):
        target.write(data)
        return
    with open(target, "wb" if overwrite else "xb") as handle:
        handle.write(data)


def write_code(target: Target, code: LinearCode, *, overwrite: bool = False) -> None:
    rows = [code.G.entries.ravel().tolist() + code.H.entries.ravel().tolist()]
    _write(target, overwrite, _code_layout(code.n, code.k), code.ring, (code.n, code.k), rows)


def write_shares(
    target: Target, share_file: ShareFile, *, overwrite: bool = False
) -> None:
    ring, n = share_file.ring, share_file.n
    _check_words([s.c for s in share_file.shares], ring, n, "shares[{i}].c", _C_LENGTH)
    rows = [(s.id, *s.c.tolist(), s.x, s.y) for s in share_file.shares]
    _write(target, overwrite, _shares_layout(n, len(rows)), ring, (n,), rows)


def write_secret(target: Target, secret: RVector, *, overwrite: bool = False) -> None:
    n = len(secret)
    _write(target, overwrite, _secret_layout(n), secret.ring, (n,), [secret.tolist()])


def write_deal_record(
    target: Target, record: DealRecord, *, overwrite: bool = False
) -> None:
    words = [row for _, row in record.coefficients]
    _check_words(words, record.ring, record.k, "deal.l[{i}].l", _L_LENGTH)
    rows = [(pid, *row.tolist()) for pid, row in record.coefficients]
    head = (record.n, record.k, record.seed)
    _write(target, overwrite, _dealrec_layout(record.k, len(rows)), record.ring, head, rows)


# ---------------------------------------------------------------- parsing


def _read_bytes(source: Target) -> bytes:
    if hasattr(source, "read"):
        data = source.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    return Path(source).read_bytes()


def _reject_duplicate_keys(pairs):
    document = {}
    for key, value in pairs:
        if key in document:
            raise ParseError(f"duplicate field {key!r}")
        document[key] = value
    return document


def _parse(raw: bytes) -> dict:
    try:
        document = json.loads(
            raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_keys
        )
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid document: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc
    if not isinstance(document, dict):
        raise ParseError("top level must be an object")
    return document


def _expect(value, kind: type, where: str):
    """value itself, if its JSON type is kind; a bool is not an int."""
    if type(value) is not kind:
        raise ParseError(f"{where}: expected {_TYPE_NAMES[kind]}")
    return value


def _object(value, fields: Sequence[str], where: str) -> dict:
    """value itself, if it is an object with exactly these fields."""
    _expect(value, dict, where)
    missing = [f for f in fields if f not in value]
    unknown = [f for f in value if f not in fields]
    if missing:
        raise ParseError(f"{where}: missing field {missing[0]!r}")
    if unknown:
        raise ParseError(f"{where}: unknown field {unknown[0]!r}")
    return value


def _document(raw: bytes, kind: str, *fields: str) -> tuple[dict, RingSpec, int]:
    """Parse a document and check the part every kind shares: its field
    set, format_version, ring and n."""
    document = _object(_parse(raw), ("format_version", "ring", "n") + fields, kind)
    version = _expect(document.get("format_version"), int, f"{kind}.format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"{kind}: unsupported format_version {version}")
    ring_obj = _object(document.get("ring"), ("p", "e"), f"{kind}.ring")
    p = _expect(ring_obj["p"], int, f"{kind}.ring.p")
    e = _expect(ring_obj["e"], int, f"{kind}.ring.e")
    try:
        ring = make_ring(p, e)
    except LcdshareError as exc:
        raise ValidationError(f"{kind}.ring: {exc}") from exc
    n = _expect(document["n"], int, f"{kind}.n")
    if n < 1:
        raise ValidationError(f"length n must be >= 1, got {n}")
    return document, ring, n


def _residue_block(rows: list, width: int, m: int, row: str, length: str = _LENGTH):
    """The one validator of residue rows: each an array of `width`
    integers in 0..m-1, checked in one walk, row by row and entry by
    entry; row i is named row.format(i=i), and `length` formats the
    wrong-length message from row, i, got and width.  Returns one int64
    array of shape (len(rows), width), also when rows is empty."""
    for i, values in enumerate(rows):
        if type(values) is not list or len(values) != width:
            name = row.format(i=i)
            _expect(values, list, name)
            raise ValidationError(length.format(row=name, i=i, got=len(values), width=width))
        for j, v in enumerate(values):
            if type(v) is not int or not 0 <= v < m:
                where = f"{row.format(i=i)}[{j}]"
                _expect(v, int, where)
                raise ValidationError(f"{where}: residue {v} out of range 0..{m - 1}")
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except ValueError:  # no rows, and a width numpy cannot shape: n = 2^64 with no shares
        return np.empty((0, 0), np.int64)


def _records(entries: list, where: str, fields: Sequence[str], low_id: str) -> list[int]:
    """The ids of a list of participant records, each an object with
    exactly `fields`, an integer id >= 1 among them, and no id twice.
    `low_id` formats the message for an id below 1 from where and pid."""
    keys, ids = set(fields), {}  # ids in order, as the keys of a dict
    for i, obj in enumerate(entries):
        pid = obj.get("id") if type(obj) is dict else None
        if type(pid) is not int or pid < 1 or obj.keys() != keys:
            name = f"{where}[{i}]"
            pid = _expect(_object(obj, fields, name)["id"], int, f"{name}.id")
            raise ValidationError(low_id.format(where=name, pid=pid))
        if pid in ids:
            raise ValidationError(f"duplicate participant id {pid}")
        ids[pid] = None
    return list(ids)


def _json_code(raw: bytes):
    """The ring, n, k, G and H of any code document that json parses; the
    one reader that names the fault of one it refuses."""
    document, ring, n = _document(raw, "code document", "k", "G", "H")
    k = _expect(document["k"], int, "code document.k")
    g_rows, h_rows = _expect(document["G"], list, "G"), _expect(document["H"], list, "H")
    for name, rows in (("G", g_rows), ("H", h_rows)):  # a non-array row changes the counts
        for i, values in enumerate(rows):
            if type(values) is not list:
                _expect(values, list, f"{name}[{i}]")
    if len(g_rows) != k:
        raise ValidationError(f"G has {len(g_rows)} rows, expected k={k}")
    if len(h_rows) != n - k:
        raise ValidationError(f"H has {len(h_rows)} rows, expected n-k={n - k}")
    G = _residue_block(g_rows, n, ring.m, "G[{i}]")
    return ring, n, k, G, _residue_block(h_rows, n, ring.m, "H[{i}]")


def read_code(source: Target) -> LinearCode:
    raw = _read_bytes(source)
    ring, n, k, G, H = _canonical_code(raw) or _json_code(raw)
    return LinearCode(ring=ring, n=n, k=k, G=RMatrix(ring, G), H=RMatrix(ring, H))


def _numbers(raw: bytes):
    """Every number of a document, in order, as one int64 array, if each
    is a run of decimal digits that stands after a space and before a
    comma or a newline, has no leading zero, which JSON forbids, and has
    at most 18 digits, so that it fits; None otherwise.  The runs are
    read one digit place at a time, each place of every run at once."""
    data = np.frombuffer(raw, np.uint8)
    edges = np.flatnonzero(np.diff(data - 48 < 10))
    if edges.size % 2 or not edges.size:
        return None
    # the byte before each run and its last digit; if the first byte is
    # a digit, these pairs are shifted and data[before] holds digits
    before, last = edges[0::2], edges[1::2]
    length, after = last - before, data[last + 1]
    if (
        (data[before] != 32).any()
        or ((after != 44) & (after != 10)).any()
        or ((data[before + 1] == 48) & (length > 1)).any()
        or length.max() > 18
    ):
        return None
    values = data[last].astype(np.int64) - 48
    for j in range(1, length.max()):  # the digit j places before each run's last
        digits = data.take(last - j, mode="clip").astype(np.int64) - 48
        values += np.where(j < length, digits, 0) * 10**j
    return values


def _canonical_numbers(raw: bytes, head: int, layout):
    """The ring, the head's numbers from n on, and every later number as
    one int64 array, from a document laid out byte for byte as its writer
    lays it out; None for any other, which the strict reader then reads.

    head counts the numbers before the first array: format_version, p,
    e, n and a code's k.  layout(n, ..., found) is the kind's layout, with
    an empty placeholder per number, for that head and `found` numbers
    after it, or None if none holds them, decided in Python ints before
    any is built.  There a number, and nothing else, stands after a space
    and before a comma or a newline, where _numbers finds every digit
    run, so a document equal to it without digits has one run per number."""
    values = _numbers(raw)
    if values is None or values.size < head:
        return None
    version, p, e, n, *rest = values[:head].tolist()
    expected = version == FORMAT_VERSION and n >= 1 and layout(n, *rest, values.size - head)
    if not expected or raw.translate(None, b"0123456789") != expected:
        return None
    try:
        return make_ring(p, e), n, *rest, values[head:]
    except LcdshareError:
        return None


def _canonical_code(raw: bytes):
    """What _json_code returns, from a code document _canonical_numbers
    reads whose residues are in range; None for any other."""
    read = _canonical_numbers(raw, 5, lambda n, k, found: (
        _code_layout(n, k, b"") if found == n * n and k <= n else None
    ))
    if read is None or read[-1].max() >= read[0].m:
        return None
    ring, n, k, values = read
    return ring, n, k, *np.split(values.reshape(n, n), [k])


def _canonical_share_columns(raw: bytes):
    """What _json_share_columns returns, from a shares document
    _canonical_numbers reads that passes the same checks; None for any
    other."""
    read = _canonical_numbers(raw, 4, lambda n, found: (
        None if found % (n + 3) else _shares_layout(n, found // (n + 3), b"")
    ))
    if read is None:
        return None
    ring, n, values = read
    block = values.reshape(-1, n + 3)  # a row per share: id, c, x, y
    ids = np.unique(block[:, 0])
    if len(block) and (ids[0] < 1 or ids.size < len(block) or block[:, 1:].max() >= ring.m):
        return None
    x, y = block[:, -2].tolist(), block[:, -1].tolist()
    return ring, n, block[:, 0].tolist(), block[:, 1:-2].copy(), x, y


def _json_share_columns(raw: bytes):
    """What _share_columns returns, from any shares document that json
    parses, and the one reader that names the fault of one it refuses."""
    document, ring, n = _document(raw, "shares document", "shares")
    entries = _expect(document["shares"], list, "shares")
    ids = _records(
        entries, "shares", ("id", "c", "x", "y"),
        "{where}: participant id must be >= 1, got {pid}",
    )
    words = _residue_block([obj["c"] for obj in entries], n, ring.m, "shares[{i}].c", _C_LENGTH)
    for i, obj in enumerate(entries):
        for key in ("x", "y"):
            v = obj[key]
            if type(v) is not int or not 0 <= v < ring.m:
                where = f"shares[{i}].{key}"
                _expect(v, int, where)
                raise ValidationError(f"{where}[0]: residue {v} out of range 0..{ring.m - 1}")
    return ring, n, ids, words, [obj["x"] for obj in entries], [obj["y"] for obj in entries]


def _share_columns(source: Target):
    """Check a shares document and return it as columns: ring, n, the
    ids, the (N, n) int64 block of codewords, and the x and y values.
    A document laid out as write_shares lays it out is read at byte
    speed; any other, and any that fails a check, by the strict reader."""
    raw = _read_bytes(source)
    return _canonical_share_columns(raw) or _json_share_columns(raw)


def _shares(ring: RingSpec, ids, words, xs, ys, rows: Sequence[int]) -> tuple[Share, ...]:
    """Share objects for the given rows of the columns _share_columns
    returns, in the order of rows."""
    return tuple(
        Share(id=ids[r], c=RVector(ring, words[r]), x=xs[r], y=ys[r]) for r in rows
    )


def read_shares(source: Target) -> ShareFile:
    ring, n, ids, *columns = _share_columns(source)
    return ShareFile(ring=ring, n=n, shares=_shares(ring, ids, *columns, range(len(ids))))


def read_secret(source: Target) -> RVector:
    document, ring, n = _document(_read_bytes(source), "secret document", "secret")
    secret_obj = _object(document["secret"], ("s",), "secret")
    values = _expect(secret_obj["s"], list, "secret.s")
    return RVector(ring, _residue_block([values], n, ring.m, "secret.s")[0])


def read_deal_record(source: Target) -> DealRecord:
    document, ring, n = _document(_read_bytes(source), "deal record", "k", "deal")
    k = _expect(document["k"], int, "deal record.k")
    if not 1 <= k <= n:
        raise ValidationError(f"dimension k={k} outside 1..n={n}")
    deal_obj = _object(document["deal"], ("seed", "l"), "deal")
    seed = _expect(deal_obj["seed"], int, "deal.seed")
    try:  # the seed range is the generator's, so this refuses what deal refuses
        SplitMix64(seed)
    except BadParameters as exc:
        raise ValidationError(f"deal.{exc}") from None
    entries = _expect(deal_obj["l"], list, "deal.l")
    ids = _records(entries, "deal.l", ("id", "l"), "{where}: participant id must be >= 1")
    rows = _residue_block([obj["l"] for obj in entries], k, ring.m, "deal.l[{i}].l", _L_LENGTH)
    coefficients = tuple((pid, RVector(ring, row)) for pid, row in zip(ids, rows))
    return DealRecord(ring=ring, n=n, k=k, seed=seed, coefficients=coefficients)
