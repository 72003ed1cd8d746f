"""Command line front end.

Subcommands: gen-code, check, deal, recover, verify, analyze.
Exit codes: 0 success, 1 domain errors (each printed with its error
name and a one-line remedy), 2 usage errors.  All outputs are
deterministic for fixed inputs and seed; payload files never embed
timestamps or other hidden entropy.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import render_json, render_text, table_row
from .codes import random_lcd_code
from .errors import BadParameters, LcdshareError, NotLcd, ValidationError
from .io_formats import (
    ShareFile,
    _residue_block,
    _share_columns,
    _shares,
    read_code,
    read_secret,
    write_code,
    write_deal_record,
    write_secret,
    write_shares,
)
from .linalg import RVector
from .ring import parse_ring_label
from .scheme import _audit, deal, recover

REMEDIES = {
    "NotPrime": "the ring must be Z_p^e with p prime; pick a prime p",
    "Overflow": "keep p^e at or below 2^31 - 1",
    "BadParameters": "adjust the parameters as described above",
    "GenerationFailed": "try a different seed or different (n, k)",
    "NotLcd": "generate a code with gen-code, which only emits LCD codes",
    "NotEnoughIndependentShares": "supply at least k shares with independent codewords",
    "InvalidShare": "a share is corrupted; re-issue it from the dealer",
    "ParseError": "the file is not a well-formed document of this format",
    "ValidationError": "fix the named field or regenerate the file",
    "FileExists": "pass --overwrite to replace an existing file",
}


class _Usage(Exception):
    """Command line misuse detected after argparse."""


def _parse_csv_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _Usage(f"{what} must be comma-separated integers, got {text!r}") from None


def _require_match(code, kind: str, ring, n: int) -> None:
    """Refuse a file of this kind whose ring or length is not the code's."""
    if ring != code.ring or n != code.n:
        raise ValidationError(f"{kind} file does not match the code's ring and length")


def _load_secret(spec: str, code, allow_inline: bool) -> RVector:
    path = Path(spec)
    if path.exists():
        secret = read_secret(path)
        _require_match(code, "secret", secret.ring, len(secret))
        return secret
    if "," not in spec:
        raise _Usage(
            f"--secret {spec!r} is neither an existing file nor an inline "
            "comma-separated vector"
        )
    if not allow_inline:
        raise _Usage(
            "inline secrets end up in shell history; pass --allow-inline-secret "
            "to accept that, or point --secret at a secret file"
        )
    values = _parse_csv_ints(spec, "--secret")
    return RVector(code.ring, _residue_block([values], code.n, code.ring.m, "--secret")[0])


def _refuse_existing(overwrite: bool, *targets: Optional[str]) -> None:
    """Refuse an existing output file, as its writer would, before any work."""
    for target in targets:
        if target and not overwrite and Path(target).exists():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), target)


def _format_vector(v: RVector) -> str:
    return ",".join(str(x) for x in v)


# ---------------------------------------------------------------- handlers


def _cmd_gen_code(args) -> int:
    _refuse_existing(args.overwrite, args.out)
    ring = parse_ring_label(args.ring)
    code = random_lcd_code(ring, args.n, args.k, args.seed)
    write_code(args.out, code, overwrite=args.overwrite)
    print(f"ring: {ring} ({ring.label})")
    print(f"n: {code.n}  k: {code.k}")
    print("LCD: confirmed")
    print(f"wrote code to {args.out}")
    return 0


def _cmd_check(args) -> int:
    code = read_code(args.code)
    print(f"ring: {code.ring} ({code.ring.label})")
    print(f"n: {code.n}  k: {code.k}")
    if not code.lcd:
        raise NotLcd("the stacked (G over H) matrix is not invertible")
    print("LCD: confirmed")
    return 0


def _cmd_deal(args) -> int:
    if args.deal_record and Path(args.deal_record).resolve() == Path(args.out).resolve():
        raise _Usage("--out and --deal-record name the same file")
    _refuse_existing(args.overwrite, args.out, args.deal_record)
    code = read_code(args.code)
    secret = _load_secret(args.secret, code, args.allow_inline_secret)
    shares, record = deal(code, secret, args.count, args.seed)
    share_file = ShareFile(ring=code.ring, n=code.n, shares=tuple(shares))
    write_shares(args.out, share_file, overwrite=args.overwrite)
    if args.deal_record:
        try:
            write_deal_record(args.deal_record, record, overwrite=args.overwrite)
        except OSError:  # write both files or neither
            os.remove(args.out)
            raise
    print(f"wrote {len(shares)} shares to {args.out}")
    if args.deal_record:
        print(f"wrote deal record to {args.deal_record}")
    return 0


def _read_code_and_columns(args):
    """The code, and the columns of the shares file (ids, c block, x, y)
    once its ring and length match the code's."""
    code = read_code(args.code)
    ring, n, *columns = _share_columns(args.shares)
    _require_match(code, "shares", ring, n)
    return code, columns


def _cmd_recover(args) -> int:
    _refuse_existing(args.overwrite, args.out)
    code, (ids, *columns) = _read_code_and_columns(args)
    rows = range(len(ids))
    if args.ids is not None:
        wanted = _parse_csv_ints(args.ids, "--ids")
        if len(set(wanted)) != len(wanted):
            raise _Usage("--ids contains duplicates")
        row_of = dict(zip(ids, rows))
        missing = [i for i in wanted if i not in row_of]
        if missing:
            raise BadParameters(f"share id {missing[0]} not present in {args.shares}")
        rows = [row_of[i] for i in wanted]
    shares = _shares(code.ring, ids, *columns, rows)
    secret = recover(code, shares)
    if args.verbose:
        print(f"using {len(shares)} candidate shares, threshold k={code.k}")
    print(f"secret: {_format_vector(secret)}")
    if args.out:
        write_secret(args.out, secret, overwrite=args.overwrite)
        print(f"wrote secret to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    code, (ids, *columns) = _read_code_and_columns(args)
    secret = read_secret(args.secret)
    _require_match(code, "secret", secret.ring, len(secret))
    verdicts = _audit(code, secret, *columns).tolist()
    for pid, ok in zip(ids, verdicts):
        print(f"share {pid}: {'ok' if ok else 'FAIL'}")
    failures = verdicts.count(False)
    if failures:
        print(f"error: {failures} share(s) failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    report = table_row(args.n, args.k, args.q, args.t)
    print(render_json(report) if args.json else render_text(report))
    return 0


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcdshare",
        description="Multi-secret sharing over Z_p^e built on LCD codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-code", help="generate a random LCD code")
    gen.add_argument("--ring", required=True, help="ring as p^e, e.g. 2^2")
    gen.add_argument("--n", required=True, type=int, help="code length")
    gen.add_argument("--k", required=True, type=int, help="code dimension")
    gen.add_argument("--seed", required=True, type=int, help="PRNG seed")
    gen.add_argument("--out", required=True, help="output .code path")
    gen.add_argument("--overwrite", action="store_true")
    gen.set_defaults(handler=_cmd_gen_code)

    chk = sub.add_parser("check", help="validate a code file and test LCD")
    chk.add_argument("--code", required=True, help=".code path")
    chk.set_defaults(handler=_cmd_check)

    dl = sub.add_parser("deal", help="deal shares of a secret")
    dl.add_argument("--code", required=True, help=".code path")
    dl.add_argument(
        "--secret",
        required=True,
        help="secret file path, or inline residues a,b,... (needs "
        "--allow-inline-secret)",
    )
    dl.add_argument("--count", required=True, type=int, help="number of shares")
    dl.add_argument("--seed", required=True, type=int, help="PRNG seed")
    dl.add_argument("--out", required=True, help="output .shares path")
    dl.add_argument(
        "--deal-record", help="also write the dealer's coefficient record here"
    )
    dl.add_argument("--allow-inline-secret", action="store_true")
    dl.add_argument("--overwrite", action="store_true")
    dl.set_defaults(handler=_cmd_deal)

    rec = sub.add_parser("recover", help="reconstruct the secret from shares")
    rec.add_argument("--code", required=True, help=".code path")
    rec.add_argument("--shares", required=True, help=".shares path")
    rec.add_argument("--ids", help="restrict to these share ids, e.g. 1,3,4,9")
    rec.add_argument("--out", help="also write the secret to this path")
    rec.add_argument("--overwrite", action="store_true")
    rec.add_argument("--verbose", action="store_true")
    rec.set_defaults(handler=_cmd_recover)

    ver = sub.add_parser("verify", help="audit shares against a known secret")
    ver.add_argument("--code", required=True, help=".code path")
    ver.add_argument("--shares", required=True, help=".shares path")
    ver.add_argument("--secret", required=True, help=".secret path")
    ver.set_defaults(handler=_cmd_verify)

    ana = sub.add_parser("analyze", help="security and efficiency figures")
    ana.add_argument("--n", required=True, type=int, help="code length")
    ana.add_argument("--k", required=True, type=int, help="code dimension")
    ana.add_argument("--q", required=True, type=int, help="ring size p^e")
    ana.add_argument("--t", type=int, help="coalition size (default k-1)")
    ana.add_argument("--json", action="store_true", help="machine-readable output")
    ana.set_defaults(handler=_cmd_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LcdshareError as exc:
        name = type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        if name in REMEDIES:
            print(f"hint: {REMEDIES[name]}", file=sys.stderr)
        return 1
    except FileExistsError as exc:
        print(f"error: FileExists: {exc}", file=sys.stderr)
        print(f"hint: {REMEDIES['FileExists']}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())
