"""The per-element document readers as they were before the bulk
validator, kept as the reference for the differential tests in
test_reader_differential.py.  They check every field and every residue
one Python call at a time, in reading order; the readers in
lcdshare.io_formats must accept exactly what these accept, build equal
objects, and reject everything else with the same class and message.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from lcdshare.codes import LinearCode
from lcdshare.errors import LcdshareError, ParseError, ValidationError
from lcdshare.io_formats import ShareFile
from lcdshare.linalg import RMatrix, RVector, vector
from lcdshare.ring import RingSpec, make_ring
from lcdshare.scheme import DealRecord, Share

FORMAT_VERSION = 1

Target = Union[str, Path, object]


def _read_bytes(source: Target) -> bytes:
    if hasattr(source, "read"):
        data = source.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    return Path(source).read_bytes()


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate field {key!r}")
        seen.add(key)
    return dict(pairs)


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


def _expect_fields(obj: dict, fields: Sequence[str], where: str) -> None:
    missing = [f for f in fields if f not in obj]
    unknown = [f for f in obj if f not in fields]
    if missing:
        raise ParseError(f"{where}: missing field {missing[0]!r}")
    if unknown:
        raise ParseError(f"{where}: unknown field {unknown[0]!r}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    return value


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return value


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected an array")
    return value


def _int_list(value, where: str) -> list[int]:
    return [_as_int(v, f"{where}[{i}]") for i, v in enumerate(_as_list(value, where))]


def _check_version(document: dict, where: str) -> None:
    version = _as_int(document.get("format_version"), f"{where}.format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"{where}: unsupported format_version {version}")


def _parse_ring(document: dict, where: str) -> RingSpec:
    ring_obj = _as_object(document.get("ring"), f"{where}.ring")
    _expect_fields(ring_obj, ("p", "e"), f"{where}.ring")
    p = _as_int(ring_obj["p"], f"{where}.ring.p")
    e = _as_int(ring_obj["e"], f"{where}.ring.e")
    try:
        return make_ring(p, e)
    except LcdshareError as exc:
        raise ValidationError(f"{where}.ring: {exc}") from exc


def _check_residues(values: Sequence[int], m: int, where: str) -> None:
    for i, v in enumerate(values):
        if not 0 <= v < m:
            raise ValidationError(f"{where}[{i}]: residue {v} out of range 0..{m - 1}")


def read_code(source: Target) -> LinearCode:
    document = _parse(source)
    _expect_fields(
        document, ("format_version", "ring", "n", "k", "G", "H"), "code document"
    )
    _check_version(document, "code document")
    ring = _parse_ring(document, "code document")
    n = _as_int(document["n"], "code document.n")
    k = _as_int(document["k"], "code document.k")
    if n < 1:
        raise ValidationError(f"length n must be >= 1, got {n}")
    g_rows = [_int_list(row, f"G[{i}]") for i, row in enumerate(_as_list(document["G"], "G"))]
    h_rows = [_int_list(row, f"H[{i}]") for i, row in enumerate(_as_list(document["H"], "H"))]
    if len(g_rows) != k:
        raise ValidationError(f"G has {len(g_rows)} rows, expected k={k}")
    if len(h_rows) != n - k:
        raise ValidationError(f"H has {len(h_rows)} rows, expected n-k={n - k}")
    for label, rows in (("G", g_rows), ("H", h_rows)):
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(
                    f"{label}[{i}] has length {len(row)}, expected n={n}"
                )
            _check_residues(row, ring.m, f"{label}[{i}]")
    G = RMatrix(ring, np.array(g_rows, dtype=np.int64).reshape(len(g_rows), n))
    H = RMatrix(ring, np.array(h_rows, dtype=np.int64).reshape(len(h_rows), n))
    return LinearCode(ring=ring, n=n, k=k, G=G, H=H)


def _parse_share(obj, ring: RingSpec, n: int, where: str) -> Share:
    share_obj = _as_object(obj, where)
    _expect_fields(share_obj, ("id", "c", "x", "y"), where)
    pid = _as_int(share_obj["id"], f"{where}.id")
    if pid < 1:
        raise ValidationError(f"{where}: participant id must be >= 1, got {pid}")
    c = _int_list(share_obj["c"], f"{where}.c")
    if len(c) != n:
        raise ValidationError(f"{where}: c has length {len(c)}, expected n={n}")
    _check_residues(c, ring.m, f"{where}.c")
    x = _as_int(share_obj["x"], f"{where}.x")
    y = _as_int(share_obj["y"], f"{where}.y")
    _check_residues([x], ring.m, f"{where}.x")
    _check_residues([y], ring.m, f"{where}.y")
    return Share(id=pid, c=vector(ring, c), x=x, y=y)


def read_shares(source: Target) -> ShareFile:
    document = _parse(source)
    _expect_fields(
        document, ("format_version", "ring", "n", "shares"), "shares document"
    )
    _check_version(document, "shares document")
    ring = _parse_ring(document, "shares document")
    n = _as_int(document["n"], "shares document.n")
    if n < 1:
        raise ValidationError(f"length n must be >= 1, got {n}")
    entries = _as_list(document["shares"], "shares")
    shares = [
        _parse_share(obj, ring, n, f"shares[{i}]") for i, obj in enumerate(entries)
    ]
    seen: set[int] = set()
    for share in shares:
        if share.id in seen:
            raise ValidationError(f"duplicate participant id {share.id}")
        seen.add(share.id)
    return ShareFile(ring=ring, n=n, shares=tuple(shares))


def read_secret(source: Target) -> RVector:
    document = _parse(source)
    _expect_fields(
        document, ("format_version", "ring", "n", "secret"), "secret document"
    )
    _check_version(document, "secret document")
    ring = _parse_ring(document, "secret document")
    n = _as_int(document["n"], "secret document.n")
    secret_obj = _as_object(document["secret"], "secret")
    _expect_fields(secret_obj, ("s",), "secret")
    values = _int_list(secret_obj["s"], "secret.s")
    if len(values) != n:
        raise ValidationError(f"secret.s has length {len(values)}, expected n={n}")
    _check_residues(values, ring.m, "secret.s")
    return vector(ring, values)


def read_deal_record(source: Target) -> DealRecord:
    document = _parse(source)
    _expect_fields(
        document, ("format_version", "ring", "n", "k", "deal"), "deal record"
    )
    _check_version(document, "deal record")
    ring = _parse_ring(document, "deal record")
    n = _as_int(document["n"], "deal record.n")
    k = _as_int(document["k"], "deal record.k")
    if not 1 <= k <= n:
        raise ValidationError(f"dimension k={k} outside 1..n={n}")
    deal_obj = _as_object(document["deal"], "deal")
    _expect_fields(deal_obj, ("seed", "l"), "deal")
    seed = _as_int(deal_obj["seed"], "deal.seed")
    if seed < 0:
        raise ValidationError(f"deal.seed must be >= 0, got {seed}")
    if seed >= 2**64:
        raise ValidationError(f"deal.seed must be < 2^64, got {seed}")
    rows = []
    seen: set[int] = set()
    for i, obj in enumerate(_as_list(deal_obj["l"], "deal.l")):
        row_obj = _as_object(obj, f"deal.l[{i}]")
        _expect_fields(row_obj, ("id", "l"), f"deal.l[{i}]")
        pid = _as_int(row_obj["id"], f"deal.l[{i}].id")
        if pid < 1:
            raise ValidationError(f"deal.l[{i}]: participant id must be >= 1")
        if pid in seen:
            raise ValidationError(f"duplicate participant id {pid}")
        seen.add(pid)
        values = _int_list(row_obj["l"], f"deal.l[{i}].l")
        if len(values) != k:
            raise ValidationError(
                f"deal.l[{i}].l has length {len(values)}, expected k={k}"
            )
        _check_residues(values, ring.m, f"deal.l[{i}].l")
        rows.append((pid, vector(ring, values)))
    return DealRecord(ring=ring, n=n, k=k, seed=seed, coefficients=tuple(rows))
