"""Canonical on-disk documents for codes, shares, secrets, deal records.

Four document kinds, conventionally named *.code, *.shares, *.secret
and *.dealrec.  All are UTF-8 JSON with a fixed key order, two-space
indentation and a trailing newline, so serialization is byte-stable:
reading a document written here and writing it again reproduces the
input exactly.  The writers lay the bytes out directly (see _dumps),
and they equal json.dumps(document, indent=2) plus the newline.

Schemas (format_version is always 1):

  code    {format_version, ring{p,e}, n, k, G, H}
  shares  {format_version, ring{p,e}, n, shares[{id,c,x,y}]}
  secret  {format_version, ring{p,e}, n, secret{s}}
  dealrec {format_version, ring{p,e}, n, k, deal{seed, l[{id,l}]}}

Residues are plain decimal integers.  Parsing is strict: unknown or
missing fields, duplicate fields, or wrong JSON types raise ParseError;
documents that parse but break a domain invariant (residue out of
range, G H^T != 0, duplicate participant id, ...) raise ValidationError.
Each check runs over a whole block of residue rows (_residue_block) or
a whole list of participant records (_records) at once, and walks it
entry by entry only to name the first fault of a block that fails.
Writers refuse to replace an existing file unless overwrite is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
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


@dataclass(frozen=True)
class ShareFile:
    """Contents of a shares document: the ring, the code length, and
    the share list (codeword membership is only checked at recover
    time, against whichever code the caller pairs this file with)."""

    ring: RingSpec
    n: int
    shares: tuple[Share, ...]


# ---------------------------------------------------------------- writing


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) byte for byte, without the pure-Python
    encoder that indent selects; `indent` opens each line of this level.
    Dicts with str keys and lists of containers recurse, a list of ints
    is one %-format call, and any other value goes to json.dumps, which
    raises as it would have."""
    kind, inner = type(value), indent + "  "
    if kind is int:
        return repr(value)
    if kind is str:
        return _json_string(value)
    if kind is dict and value and set(map(type, value)) == {str}:
        items = [_json_string(k) + ": " + _dumps(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    types = set(map(type, value)) if kind is list else set()
    if types == {int}:
        row = "[" + inner + ("%d," + inner) * (len(value) - 1) + "%d" + indent + "]"
        return row % tuple(value)
    if types and types <= {dict, list}:
        items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value, indent=2).replace("\n", indent)


def _write(target: Target, overwrite: bool, ring: RingSpec, **fields) -> None:
    """Write one document: format_version and ring, then `fields` in
    order, as two-space indented JSON with a trailing newline."""
    document = {"format_version": FORMAT_VERSION, "ring": {"p": ring.p, "e": ring.e}}
    data = (_dumps({**document, **fields}) + "\n").encode("utf-8")
    if hasattr(target, "write"):
        target.write(data)
        return
    with open(target, "wb" if overwrite else "xb") as handle:
        handle.write(data)


def write_code(target: Target, code: LinearCode, *, overwrite: bool = False) -> None:
    G, H = code.G.tolist(), code.H.tolist()
    _write(target, overwrite, code.ring, n=code.n, k=code.k, G=G, H=H)


def write_shares(
    target: Target, share_file: ShareFile, *, overwrite: bool = False
) -> None:
    shares = [
        {"id": s.id, "c": s.c.tolist(), "x": s.x, "y": s.y} for s in share_file.shares
    ]
    _write(target, overwrite, share_file.ring, n=share_file.n, shares=shares)


def write_secret(target: Target, secret: RVector, *, overwrite: bool = False) -> None:
    _write(target, overwrite, secret.ring, n=len(secret), secret={"s": secret.tolist()})


def write_deal_record(
    target: Target, record: DealRecord, *, overwrite: bool = False
) -> None:
    rows = [{"id": pid, "l": row.tolist()} for pid, row in record.coefficients]
    deal = {"seed": record.seed, "l": rows}
    _write(target, overwrite, record.ring, n=record.n, k=record.k, deal=deal)


# ---------------------------------------------------------------- parsing


def _read_bytes(source: Target) -> bytes:
    if hasattr(source, "read"):
        data = source.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    return Path(source).read_bytes()


def _reject_duplicate_keys(pairs):
    document = dict(pairs)
    if len(document) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate field {key!r}")
            seen.add(key)
    return document


def _parse(source: Target) -> dict:
    raw = _read_bytes(source)
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


def _document(source: Target, kind: str, *fields: str) -> tuple[dict, RingSpec, int]:
    """Parse a document and check the part every kind shares: its field
    set, format_version, ring and n."""
    document = _object(_parse(source), ("format_version", "ring", "n") + fields, kind)
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
    return document, ring, _expect(document["n"], int, f"{kind}.n")


def _int_rows(rows: list, row: str) -> None:
    """Every row an array and every entry an integer, not a bool; row i
    is named row.format(i=i), e.g. "G[{i}]"."""
    if set(map(type, rows)) <= {list} and set(
        map(type, chain.from_iterable(rows))
    ) <= {int}:
        return
    for i, values in enumerate(rows):
        _expect(values, list, row.format(i=i))
        for j, v in enumerate(values):
            _expect(v, int, f"{row.format(i=i)}[{j}]")


def _residue_block(rows: list, width: int, m: int, row: str, length: str = _LENGTH):
    """The one validator of residue rows: each an array of `width`
    integers in 0..m-1.  Returns them as one int64 array of shape
    (len(rows), width), also when rows is empty.

    Each check is one pass over the whole block: a set of entry types,
    a set of row lengths, one array and its min and max.  Only a block
    that fails is walked entry by entry, to name the first bad entry in
    the order a per-entry reader meets it: all types first, then row by
    row its length and its range.  `length` formats the wrong-length
    message from row, i, got and width.
    """
    _int_rows(rows, row)
    if set(map(len, rows)) <= {width}:
        try:
            block = np.array(rows, dtype=np.int64).reshape(len(rows), width)
            if not block.size or (block.min() >= 0 and block.max() < m):
                return block
        except OverflowError:
            pass  # an entry beyond int64, named below as out of range
    for i, values in enumerate(rows):
        name = row.format(i=i)
        if len(values) != width:
            raise ValidationError(
                length.format(row=name, i=i, got=len(values), width=width)
            )
        for j, v in enumerate(values):
            if not 0 <= v < m:
                raise ValidationError(
                    f"{name}[{j}]: residue {v} out of range 0..{m - 1}"
                )
    raise AssertionError("a block that fails a check has a first bad entry")


def _records(entries: list, where: str, fields: Sequence[str], low_id: str) -> list[int]:
    """The ids of a list of participant records, each an object with
    exactly `fields`, an integer id >= 1 among them, and no id twice.
    `low_id` formats the message for an id below 1 from where and pid."""
    keys = set(fields)
    whole = set(map(type, entries)) <= {dict} and all(obj.keys() == keys for obj in entries)
    ids = [obj["id"] for obj in entries] if whole else []
    if not (whole and set(map(type, ids)) <= {int} and min(ids, default=1) >= 1):
        for i, obj in enumerate(entries):
            name = f"{where}[{i}]"
            pid = _expect(_object(obj, fields, name)["id"], int, f"{name}.id")
            if pid < 1:
                raise ValidationError(low_id.format(where=name, pid=pid))
        raise AssertionError("a list that fails a check has a first bad record")
    if len(set(ids)) != len(ids):
        seen: set[int] = set()
        first = next(pid for pid in ids if pid in seen or seen.add(pid))
        raise ValidationError(f"duplicate participant id {first}")
    return ids


def read_code(source: Target) -> LinearCode:
    document, ring, n = _document(source, "code document", "k", "G", "H")
    k = _expect(document["k"], int, "code document.k")
    if n < 1:
        raise ValidationError(f"length n must be >= 1, got {n}")
    g_rows = _expect(document["G"], list, "G")
    _int_rows(g_rows, "G[{i}]")
    h_rows = _expect(document["H"], list, "H")
    _int_rows(h_rows, "H[{i}]")
    if len(g_rows) != k:
        raise ValidationError(f"G has {len(g_rows)} rows, expected k={k}")
    if len(h_rows) != n - k:
        raise ValidationError(f"H has {len(h_rows)} rows, expected n-k={n - k}")
    G = _residue_block(g_rows, n, ring.m, "G[{i}]")
    H = _residue_block(h_rows, n, ring.m, "H[{i}]")
    return LinearCode(ring=ring, n=n, k=k, G=RMatrix(ring, G), H=RMatrix(ring, H))


def _share_columns(source: Target):
    """Check a shares document and return it as columns: ring, n, the
    ids, the (N, n) int64 block of codewords, and the x and y values.

    Past _records and _residue_block, the x and y values are checked
    by one set of types and their least and greatest value, and only a
    failing check walks the shares to name the first bad one."""
    document, ring, n = _document(source, "shares document", "shares")
    if n < 1:
        raise ValidationError(f"length n must be >= 1, got {n}")
    entries = _expect(document["shares"], list, "shares")
    ids = _records(
        entries, "shares", ("id", "c", "x", "y"),
        "{where}: participant id must be >= 1, got {pid}",
    )
    words = _residue_block(
        [obj["c"] for obj in entries], n, ring.m, "shares[{i}].c",
        "shares[{i}]: c has length {got}, expected n={width}",
    )
    xs, ys = [obj["x"] for obj in entries], [obj["y"] for obj in entries]
    xy = xs + ys
    if not (
        set(map(type, xy)) <= {int} and 0 <= min(xy, default=0) and max(xy, default=0) < ring.m
    ):
        for i, obj in enumerate(entries):
            pair = [_expect(obj[key], int, f"shares[{i}].{key}") for key in ("x", "y")]
            for key, v in zip("xy", pair):
                if not 0 <= v < ring.m:
                    raise ValidationError(
                        f"shares[{i}].{key}[0]: residue {v} out of range 0..{ring.m - 1}"
                    )
    return ring, n, ids, words, xs, ys


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
    document, ring, n = _document(source, "secret document", "secret")
    secret_obj = _object(document["secret"], ("s",), "secret")
    values = _expect(secret_obj["s"], list, "secret.s")
    return RVector(ring, _residue_block([values], n, ring.m, "secret.s")[0])


def read_deal_record(source: Target) -> DealRecord:
    document, ring, n = _document(source, "deal record", "k", "deal")
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
    rows = _residue_block(
        [obj["l"] for obj in entries], k, ring.m, "deal.l[{i}].l",
        "{row} has length {got}, expected k={width}",
    )
    coefficients = tuple((pid, RVector(ring, row)) for pid, row in zip(ids, rows))
    return DealRecord(ring=ring, n=n, k=k, seed=seed, coefficients=coefficients)
