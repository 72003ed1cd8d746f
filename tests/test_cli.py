"""Command line behavior: exit codes, output text, file side effects."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdshare import make_ring, matrix, parity_check_from_generator, read_secret, write_code, write_secret, vector
from lcdshare import Share, ShareFile, deal, random_lcd_code, read_code, read_shares, recover, verify_share, write_shares
from lcdshare import errors
from lcdshare.cli import REMEDIES, main
from lcdshare.errors import BadParameters, LcdshareError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------- happy paths


def test_full_pipeline(tmp_path, capsys):
    code_path = tmp_path / "demo.code"
    shares_path = tmp_path / "demo.shares"
    secret_out = tmp_path / "demo.secret"

    code, out, err = run(
        capsys, "gen-code", "--ring", "3^2", "--n", "6", "--k", "3",
        "--seed", "11", "--out", str(code_path),
    )
    assert code == 0 and "LCD: confirmed" in out and code_path.exists()

    code, out, err = run(capsys, "check", "--code", str(code_path))
    assert code == 0 and "LCD: confirmed" in out and "Z_9" in out

    code, out, err = run(
        capsys, "deal", "--code", str(code_path), "--secret", "1,2,3,4,5,6",
        "--count", "6", "--seed", "7", "--out", str(shares_path),
        "--allow-inline-secret",
    )
    assert code == 0 and "wrote 6 shares" in out

    code, out, err = run(
        capsys, "recover", "--code", str(code_path), "--shares", str(shares_path),
        "--out", str(secret_out), "--verbose",
    )
    assert code == 0
    assert "secret: 1,2,3,4,5,6" in out
    assert "threshold k=3" in out

    write_secret(tmp_path / "known.secret", read_secret(secret_out), overwrite=True)
    code, out, err = run(
        capsys, "verify", "--code", str(code_path), "--shares", str(shares_path),
        "--secret", str(secret_out),
    )
    assert code == 0
    assert out.count(": ok") == 6 and "FAIL" not in out

    code, out, err = run(capsys, "analyze", "--n", "6", "--k", "3", "--q", "9")
    assert code == 0 and "information rate: 3/4" in out


def test_gen_code_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.code", tmp_path / "b.code"
    args = ["gen-code", "--ring", "2^2", "--n", "8", "--k", "4", "--seed", "42"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_deal_is_deterministic(tmp_path, capsys, data_dir):
    args = [
        "deal", "--code", str(data_dir / "f2_8_5.code"),
        "--secret", str(data_dir / "f2_8_5.secret"),
        "--count", "7", "--seed", "3",
    ]
    a, b = tmp_path / "a.shares", tmp_path / "b.shares"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_recover_reference_subset(capsys, data_dir):
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(data_dir / "f2_8_5.shares"), "--ids", "1,3,4,6,9",
    )
    assert code == 0
    assert "secret: 1,1,0,0,0,0,0,0" in out


def test_recover_writes_byte_identical_secret(tmp_path, capsys, data_dir):
    out_path = tmp_path / "rec.secret"
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_4.code"),
        "--shares", str(data_dir / "f2_8_4.shares"), "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == (data_dir / "f2_8_4.secret").read_bytes()


def test_deal_from_secret_file_then_recover(tmp_path, capsys, data_dir):
    shares_path = tmp_path / "new.shares"
    record_path = tmp_path / "new.dealrec"
    code, out, err = run(
        capsys, "deal", "--code", str(data_dir / "z4_8_4.code"),
        "--secret", str(data_dir / "z4_8_4.secret"),
        "--count", "6", "--seed", "2024", "--out", str(shares_path),
        "--deal-record", str(record_path),
    )
    assert code == 0 and record_path.exists()
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "z4_8_4.code"),
        "--shares", str(shares_path),
    )
    assert code == 0
    assert "secret: 2,2,0,0,0,0,0,0" in out


def test_analyze_json(capsys):
    code, out, err = run(
        capsys, "analyze", "--n", "2", "--k", "2", "--q", "2", "--t", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["guess_probability"]["rational"] == "1/12"


def test_analyze_flags_prime_power_rings(capsys):
    code, out, err = run(capsys, "analyze", "--n", "8", "--k", "4", "--q", "4")
    assert code == 0 and "caveat: q is a proper prime power" in out
    code, out, err = run(capsys, "analyze", "--n", "8", "--k", "4", "--q", "5")
    assert code == 0 and "prime power" not in out


def test_analyze_accepts_only_ring_sizes(capsys):
    code, out, err = run(capsys, "analyze", "--n", "8", "--k", "4", "--q", "9")
    assert code == 0 and "caveat: q is a proper prime power" in out
    for q in ("6", "12"):
        code, out, err = run(capsys, "analyze", "--n", "4", "--k", "2", "--q", q)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: NotPrime: ring size {q} is not a prime power\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--n", "4", "--k", "2", "--q", str(2**61 - 1))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and "error: Overflow" in err and "hint:" in err


def test_analyze_prints_counts_of_any_length(capsys):
    """q^n has 9332 digits here, past Python's default int-to-str limit."""
    argv = ["analyze", "--n", "1000", "--k", "2", "--q", str(2**31 - 1)]
    code, out, err = run(capsys, *argv)
    assert code == 0
    secrets = next(line for line in out.splitlines() if line.startswith("candidate secrets"))
    assert len(secrets.partition(": ")[2]) == 9332
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["codeword_count"] == "4611686014132420609"  # (2^31 - 1)^2
    assert Decimal(doc["secret_space"]) == Decimal((2**31 - 1) ** 1000)


# ----------------------------------------------------------- domain errors


def test_recover_defective_reference_subset(capsys, data_dir):
    """The Z4 table's shares never reach threshold; the CLI says so."""
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "z4_8_4.code"),
        "--shares", str(data_dir / "z4_8_4.shares"), "--ids", "1,3,4,9",
    )
    assert code == 1
    assert "error: NotEnoughIndependentShares" in err
    assert "hint: supply at least k shares" in err


def test_recover_with_too_few_shares(capsys, data_dir):
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(data_dir / "f2_8_5.shares"), "--ids", "1,3",
    )
    assert code == 1 and "NotEnoughIndependentShares" in err


def test_recover_unknown_share_id(capsys, data_dir):
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(data_dir / "f2_8_5.shares"), "--ids", "1,99",
    )
    assert code == 1 and "error: BadParameters" in err and "99" in err


def test_recover_mismatched_artifacts(capsys, data_dir):
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(data_dir / "z4_8_4.shares"),
    )
    assert code == 1 and "error: ValidationError" in err


def test_check_rejects_non_lcd_code(tmp_path, capsys):
    f2 = make_ring(2, 1)
    bad = parity_check_from_generator(matrix(f2, [[1, 1]]))
    path = tmp_path / "bad.code"
    write_code(path, bad)
    code, out, err = run(capsys, "check", "--code", str(path))
    assert code == 1
    assert "error: NotLcd" in err and "hint: generate a code with gen-code" in err


def test_gen_code_rejects_composite_ring(tmp_path, capsys):
    code, out, err = run(
        capsys, "gen-code", "--ring", "4^1", "--n", "4", "--k", "2",
        "--seed", "1", "--out", str(tmp_path / "x.code"),
    )
    assert code == 1 and "error: NotPrime" in err and "hint:" in err


def test_gen_code_refuses_a_ring_above_the_bound(tmp_path, capsys):
    # 2^32 + 1 = 641 * 6700417 is composite, but above 2^31 - 1 the
    # bound is what refuses it, before any primality test
    code, out, err = run(
        capsys, "gen-code", "--ring", "4294967297^1", "--n", "4", "--k", "2",
        "--seed", "1", "--out", str(tmp_path / "x.code"),
    )
    assert code == 1 and "error: Overflow" in err and "hint: keep p^e at or below" in err
    assert not (tmp_path / "x.code").exists()


def test_overwrite_refusal_and_consent(tmp_path, capsys):
    target = tmp_path / "x.code"
    args = ["gen-code", "--ring", "2^1", "--n", "4", "--k", "2", "--seed", "1",
            "--out", str(target)]
    assert main(args) == 0
    code, out, err = run(capsys, *args)
    assert code == 1 and "error: FileExists" in err and "--overwrite" in err
    # refused before any work: a ring that cannot be built is not reached
    code, out, err = run(capsys, *[a if a != "2^1" else "4^1" for a in args])
    assert code == 1 and "error: FileExists" in err
    assert main(args + ["--overwrite"]) == 0
    capsys.readouterr()


def _deal_args(data_dir, out, *extra):
    return ["deal", "--code", str(data_dir / "f2_8_5.code"),
            "--secret", str(data_dir / "f2_8_5.secret"), "--count", "5",
            "--seed", "1", "--out", str(out), *extra]


def test_deal_refuses_one_file_for_shares_and_record(tmp_path, capsys, data_dir):
    target = tmp_path / "both"
    for extra in ((), ("--overwrite",)):
        code, out, err = run(capsys, *_deal_args(data_dir, target, "--deal-record",
                                                 str(tmp_path / "." / "both"), *extra))
        assert (code, out) == (2, "")
        assert err == "usage error: --out and --deal-record name the same file\n"
        assert not target.exists()


def test_deal_refuses_an_existing_record_before_dealing(tmp_path, capsys, data_dir):
    shares, record = tmp_path / "x.shares", tmp_path / "x.dealrec"
    record.write_text("keep")
    code, out, err = run(capsys, *_deal_args(data_dir, shares, "--deal-record", str(record)))
    assert (code, out) == (1, "")
    assert err == (f"error: FileExists: [Errno 17] File exists: {str(record)!r}\n"
                   f"hint: {REMEDIES['FileExists']}\n")
    assert not shares.exists() and record.read_text() == "keep"
    # a rerun with consent writes both
    code, out, err = run(capsys, *_deal_args(data_dir, shares, "--deal-record", str(record),
                                             "--overwrite"))
    assert code == 0 and read_shares(shares) and record.read_text() != "keep"


def test_deal_leaves_no_shares_when_the_record_cannot_be_written(tmp_path, capsys, data_dir):
    shares = tmp_path / "x.shares"
    record = tmp_path / "no-such-dir" / "x.dealrec"
    code, out, err = run(capsys, *_deal_args(data_dir, shares, "--deal-record", str(record)))
    assert (code, out) == (1, "")
    assert err.startswith("error: FileNotFoundError: ")
    assert not shares.exists()


def test_deal_refuses_a_negative_seed(tmp_path, capsys, data_dir):
    shares, record = tmp_path / "x.shares", tmp_path / "x.dealrec"
    args = _deal_args(data_dir, shares, "--deal-record", str(record))
    args[args.index("--seed") + 1] = "-7"
    code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith("error: BadParameters: seed must be >= 0, got -7\n")
    assert not shares.exists() and not record.exists()


def test_recover_refuses_an_existing_out_before_recovering(tmp_path, capsys, data_dir):
    target = tmp_path / "taken.secret"
    target.write_text("keep")
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_4.code"),
        "--shares", str(data_dir / "f2_8_4.shares"), "--out", str(target),
    )
    assert (code, out) == (1, "")
    assert err == (f"error: FileExists: [Errno 17] File exists: {str(target)!r}\n"
                   f"hint: {REMEDIES['FileExists']}\n")
    assert target.read_text() == "keep"


def test_verify_reports_failures(tmp_path, capsys, data_dir):
    wrong = tmp_path / "wrong.secret"
    write_secret(wrong, vector(make_ring(2, 1), [0] * 8))
    code, out, err = run(
        capsys, "verify", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(data_dir / "f2_8_5.shares"), "--secret", str(wrong),
    )
    assert code == 1
    assert "FAIL" in out
    assert "failed verification" in err


def test_corrupted_shares_file(tmp_path, capsys, data_dir):
    mangled = tmp_path / "mangled.shares"
    mangled.write_bytes((data_dir / "f2_8_5.shares").read_bytes()[:50])
    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(mangled),
    )
    assert code == 1 and "error: ParseError" in err


def test_analyze_rejects_bad_geometry(capsys):
    code, out, err = run(capsys, "analyze", "--n", "4", "--k", "5", "--q", "2")
    assert code == 1 and "error: BadParameters" in err


# ------------------------------------------------------------ usage errors


def test_usage_errors_exit_2(tmp_path, capsys, data_dir):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["gen-code", "--ring", "2^1"]) == 2  # missing required flags
    capsys.readouterr()

    code, out, err = run(
        capsys, "deal", "--code", str(data_dir / "f2_8_5.code"),
        "--secret", "1,1,0,0,0,0,0,0", "--count", "5", "--seed", "1",
        "--out", str(tmp_path / "x.shares"),
    )
    assert code == 2
    assert "usage error" in err and "--allow-inline-secret" in err
    assert not (tmp_path / "x.shares").exists()

    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(data_dir / "f2_8_5.shares"), "--ids", "1,1,3",
    )
    assert code == 2 and "duplicates" in err

    code, out, err = run(
        capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
        "--shares", str(data_dir / "f2_8_5.shares"), "--ids", "1,a",
    )
    assert code == 2 and "comma-separated integers" in err

    for blank in ("", " "):  # an empty --ids is not "every share"
        code, out, err = run(
            capsys, "recover", "--code", str(data_dir / "f2_8_5.code"),
            "--shares", str(data_dir / "f2_8_5.shares"), "--ids", blank,
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: --ids must be comma-separated integers, got {blank!r}\n"


def test_secret_that_is_neither_a_file_nor_a_vector(tmp_path, capsys, data_dir):
    code, out, err = run(
        capsys, "deal", "--code", str(data_dir / "f2_8_5.code"),
        "--secret", "nosuchfile", "--count", "5", "--seed", "1",
        "--out", str(tmp_path / "x.shares"),
    )
    assert (code, out) == (2, "")
    assert "neither an existing file nor an inline comma-separated vector" in err
    assert not (tmp_path / "x.shares").exists()


def test_an_unreadable_number_or_nesting_is_a_parse_error(tmp_path, capsys, data_dir):
    """A number past Python's int-string digit limit, or nesting past its
    recursion limit, is refused as any malformed document is."""
    code_path = str(data_dir / "z4_8_4.code")
    for name in ("z4_8_4.code", "z4_8_4.shares"):
        raw = (data_dir / name).read_bytes()
        for label, data in [("long", raw.replace(b'"n": 8', b'"n": 1' + b"0" * 5000, 1)),
                            ("deep", b"[" * 100_000)]:
            path = tmp_path / f"{label}-{name}"
            path.write_bytes(data)
            if name.endswith(".code"):
                argv = ["check", "--code", str(path)]
            else:
                argv = ["recover", "--code", code_path, "--shares", str(path)]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: ParseError: invalid document: ")


def test_missing_input_file_is_an_os_error_without_a_hint(tmp_path, capsys):
    missing = tmp_path / "missing.code"
    code, out, err = run(capsys, "check", "--code", str(missing))
    assert (code, out) == (1, "")
    assert err.startswith("error: FileNotFoundError: ") and str(missing) in err
    assert "hint:" not in err and err.count("\n") == 1


def test_inline_secret_validation(tmp_path, capsys, data_dir):
    base = ["deal", "--code", str(data_dir / "f2_8_5.code"), "--count", "5",
            "--seed", "1", "--out", str(tmp_path / "x.shares"),
            "--allow-inline-secret"]
    code, out, err = run(capsys, *base, "--secret", "1,1,0")
    assert code == 1
    assert err.startswith("error: ValidationError: --secret has length 3, expected n=8\n")
    code, out, err = run(capsys, *base, "--secret", "1,1,0,0,0,0,0,7")
    assert code == 1
    assert err.startswith("error: ValidationError: --secret[7]: residue 7 out of range 0..1\n")


def test_module_entry_point(data_dir):
    """python -m drives the same front end, end to end."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "lcdshare", "analyze", "--n", "8", "--k", "5",
         "--q", "2", "--json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["information_rate"]["rational"] == "4/5"
    proc = subprocess.run(
        [sys.executable, "-m", "lcdshare", "recover",
         "--code", str(data_dir / "f2_8_4.code"),
         "--shares", str(data_dir / "f2_8_4.shares"), "--ids", "1,5,11,15"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "secret: 1,1,0,0,0,0,0,1" in proc.stdout

def test_verify_prints_what_a_per_share_loop_prints(tmp_path, capsys, data_dir):
    doc = json.loads((data_dir / "z4_8_4.shares").read_text())
    entries = doc["shares"]
    entries[1]["x"] = (entries[1]["x"] + 1) % 4
    entries[4]["y"] = (entries[4]["y"] + 2) % 4
    entries[6]["c"][0] = (entries[6]["c"][0] + 1) % 4
    tampered = tmp_path / "tampered.shares"
    tampered.write_text(json.dumps(doc))

    code = read_code(data_dir / "z4_8_4.code")
    secret = read_secret(data_dir / "z4_8_4.secret")
    verdicts = [verify_share(code, secret, s) for s in read_shares(tampered).shares]
    expected = "".join(
        f"share {s['id']}: {'ok' if ok else 'FAIL'}\n" for s, ok in zip(entries, verdicts)
    )
    assert verdicts.count(False) == 3

    rc, out, err = run(
        capsys, "verify", "--code", str(data_dir / "z4_8_4.code"),
        "--shares", str(tampered), "--secret", str(data_dir / "z4_8_4.secret"),
    )
    assert (rc, out, err) == (1, expected, "error: 3 share(s) failed verification\n")


# ------------------------------------------- recover --ids on a share file


def _dealt_file(directory, p, e, count):
    """A code over Z_{p^e} with n=6, k=4 and a file of `count` shares."""
    ring = make_ring(p, e)
    code = random_lcd_code(ring, 6, 4, seed=21)
    shares, _ = deal(code, vector(ring, [1, 0, 2, 3, 1, 0]), count=count, seed=5)
    code_path, shares_path = directory / "dealt.code", directory / "dealt.shares"
    write_code(code_path, code)
    write_shares(shares_path, ShareFile(ring=ring, n=6, shares=tuple(shares)))
    return code_path, shares_path


def _corrupt_last(key, value):
    def fault(entry):
        if value is None:
            del entry[key]
        else:
            entry[key] = value
    return fault


# Each fault hits shares[11], the last share, which --ids 1,...,5 leaves out.
WHOLE_FILE_FAULTS = {
    "x out of range": (
        _corrupt_last("x", 9), "ValidationError: shares[11].x[0]: residue 9 out of range 0..8",
    ),
    "negative y": (
        _corrupt_last("y", -1), "ValidationError: shares[11].y[0]: residue -1 out of range 0..8",
    ),
    "bool id": (_corrupt_last("id", True), "ParseError: shares[11].id: expected an integer"),
    "duplicate id": (_corrupt_last("id", 11), "ValidationError: duplicate participant id 11"),
    "missing y": (_corrupt_last("y", None), "ParseError: shares[11]: missing field 'y'"),
    "extra key": (_corrupt_last("z", 0), "ParseError: shares[11]: unknown field 'z'"),
}


@pytest.mark.parametrize("fault", sorted(WHOLE_FILE_FAULTS))
def test_recover_ids_validates_the_whole_file(tmp_path, capsys, fault):
    """A bad share outside --ids fails the command as read_shares fails."""
    corrupt, message = WHOLE_FILE_FAULTS[fault]
    code_path, shares_path = _dealt_file(tmp_path, 3, 2, 12)
    doc = json.loads(shares_path.read_text())
    corrupt(doc["shares"][-1])
    shares_path.write_text(json.dumps(doc))
    with pytest.raises(LcdshareError) as raised:
        read_shares(shares_path)
    assert f"{type(raised.value).__name__}: {raised.value}" == message
    rc, out, err = run(
        capsys, "recover", "--code", str(code_path), "--shares", str(shares_path),
        "--ids", "1,2,3,4,5",
    )
    assert (rc, out, err.splitlines()[0]) == (1, "", f"error: {message}")


def test_recover_ids_refuses_a_picked_y_that_fits_no_secret(tmp_path, capsys):
    """n=6, k=4: the 2k - n = 2 spare y coordinates expose a bad y."""
    code_path, shares_path = _dealt_file(tmp_path, 3, 2, 12)
    doc = json.loads(shares_path.read_text())
    doc["shares"][0]["y"] = (doc["shares"][0]["y"] + 1) % 9
    shares_path.write_text(json.dumps(doc))
    rc, out, err = run(
        capsys, "recover", "--code", str(code_path), "--shares", str(shares_path),
        "--ids", "1,2,3,4,5",
    )
    assert (rc, out) == (1, "")
    assert err == (
        "error: InvalidShare: shares 1, 2, 3, 4: their y values fit no common secret\n"
        "hint: a share is corrupted; re-issue it from the dealer\n"
    )


def _gen_code_args(tmp_path, ring="2^1", seed="1"):
    return ["gen-code", "--ring", ring, "--n", "4", "--k", "2", "--seed", seed,
            "--out", str(tmp_path / "x.code")]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_gen_code_refuses_a_seed_outside_the_generator_range(tmp_path, capsys, seed):
    """Masked to 64 bits, -1 and 2^64 would name the codes of 2^64 - 1 and 0."""
    bound = ">= 0" if seed == "-1" else "< 2^64"
    code, out, err = run(capsys, *_gen_code_args(tmp_path, seed=seed))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: BadParameters: seed must be {bound}, got {seed}\n")
    assert not (tmp_path / "x.code").exists()


def _no_lcd_code_in_any_draw(tmp_path, data_dir, monkeypatch):
    def refuse(*args):
        raise errors.GenerationFailed("no LCD code found in 0 draws")

    monkeypatch.setattr("lcdshare.cli.random_lcd_code", refuse)
    return _gen_code_args(tmp_path)


def _check_a_non_lcd_code(tmp_path, data_dir, monkeypatch):
    write_code(tmp_path / "rep.code", parity_check_from_generator(matrix(make_ring(2, 1), [[1, 1]])))
    return ["check", "--code", str(tmp_path / "rep.code")]


def _recover_from(shares, data_dir, *extra):
    return ["recover", "--code", str(data_dir / "f2_8_5.code"), "--shares", str(shares), *extra]


def _recover_from_edited_shares(edit):
    def argv(tmp_path, data_dir, monkeypatch):
        target = tmp_path / "edited.shares"
        target.write_text(edit((data_dir / "f2_8_5.shares").read_text()))
        return _recover_from(target, data_dir)
    return argv


def _flip_c1_of_share_1(text):
    """Column 1 of the code's H is nonzero, so the flip breaks parity."""
    doc = json.loads(text)
    doc["shares"][0]["c"][1] ^= 1
    return json.dumps(doc)


def _gen_code_over_an_existing_file(tmp_path, data_dir, monkeypatch):
    (tmp_path / "x.code").write_text("keep")
    return _gen_code_args(tmp_path)


# every REMEDIES key: a command that raises it, the error line's start
# and the exact hint the command prints
HINTS = {
    "NotPrime": (
        lambda tmp_path, data_dir, monkeypatch: _gen_code_args(tmp_path, ring="4^1"),
        "error: NotPrime: 4 is not prime",
        "the ring must be Z_p^e with p prime; pick a prime p",
    ),
    "Overflow": (
        lambda tmp_path, data_dir, monkeypatch: _gen_code_args(tmp_path, ring="2^31"),
        "error: Overflow: 2^31 = 2147483648 exceeds the supported bound 2147483647",
        "keep p^e at or below 2^31 - 1",
    ),
    "BadParameters": (
        lambda tmp_path, data_dir, monkeypatch: ["analyze", "--n", "4", "--k", "5", "--q", "2"],
        "error: BadParameters: ",
        "adjust the parameters as described above",
    ),
    "GenerationFailed": (
        _no_lcd_code_in_any_draw,
        "error: GenerationFailed: no LCD code found in 0 draws",
        "try a different seed or different (n, k)",
    ),
    "NotLcd": (
        _check_a_non_lcd_code,
        "error: NotLcd: ",
        "generate a code with gen-code, which only emits LCD codes",
    ),
    "NotEnoughIndependentShares": (
        lambda tmp_path, data_dir, monkeypatch: _recover_from(
            data_dir / "f2_8_5.shares", data_dir, "--ids", "1,3"
        ),
        "error: NotEnoughIndependentShares: 2 shares supplied, need at least k=5",
        "supply at least k shares with independent codewords",
    ),
    "InvalidShare": (
        _recover_from_edited_shares(_flip_c1_of_share_1),
        "error: InvalidShare: share 1: c is not a codeword",
        "a share is corrupted; re-issue it from the dealer",
    ),
    "ParseError": (
        _recover_from_edited_shares(lambda text: text[:50]),
        "error: ParseError: invalid document",
        "the file is not a well-formed document of this format",
    ),
    "ValidationError": (
        lambda tmp_path, data_dir, monkeypatch: _recover_from(
            data_dir / "z4_8_4.shares", data_dir
        ),
        "error: ValidationError: shares file does not match the code's ring and length",
        "fix the named field or regenerate the file",
    ),
    "FileExists": (
        _gen_code_over_an_existing_file,
        "error: FileExists: [Errno 17] File exists",
        "pass --overwrite to replace an existing file",
    ),
}


@pytest.mark.parametrize("name", sorted(HINTS))
def test_each_hint_is_printed_for_its_error(name, tmp_path, data_dir, capsys, monkeypatch):
    argv, error, hint = HINTS[name]
    code, out, err = run(capsys, *argv(tmp_path, data_dir, monkeypatch))
    assert code == 1
    first, second = err.splitlines()
    assert first.startswith(error) and second == f"hint: {hint}"


def test_every_hint_names_an_error_class():
    """So a hint cannot outlive the error it was written for, and each
    hint is one a command can print (HINTS has a command for each)."""
    assert {name for name in REMEDIES if name != "FileExists"} <= {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.LcdshareError)
    }
    assert sorted(REMEDIES) == sorted(HINTS)


@pytest.fixture(scope="module")
def z4_file_of_200(tmp_path_factory):
    code_path, shares_path = _dealt_file(tmp_path_factory.mktemp("z4"), 2, 2, 200)
    by_id = {share.id: share for share in read_shares(shares_path).shares}
    return code_path, shares_path, read_code(code_path), by_id


def test_recover_ids_builds_only_the_named_shares(z4_file_of_200, capsys, monkeypatch):
    code_path, shares_path, _, _ = z4_file_of_200
    built = []
    real_init = Share.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Share, "__init__", counting_init)
    run(capsys, "recover", "--code", str(code_path), "--shares", str(shares_path),
        "--ids", "17,3,150,88")
    assert len(built) == 4


def test_verify_builds_no_shares(z4_file_of_200, tmp_path, capsys, monkeypatch):
    code_path, shares_path, code, by_id = z4_file_of_200
    secret_path = tmp_path / "dealt.secret"
    write_secret(secret_path, vector(code.ring, [1, 0, 2, 3, 1, 0]))
    built = []
    real_init = Share.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Share, "__init__", counting_init)
    rc, out, err = run(capsys, "verify", "--code", str(code_path), "--shares",
                       str(shares_path), "--secret", str(secret_path))
    assert (rc, err, len(built)) == (0, "", 0)
    assert out == "".join(f"share {pid}: ok\n" for pid in by_id)


def _expected_recover_run(code, by_id, shares_path, ids):
    """(exit code, stdout, stderr) of the command, derived from recover
    on read_shares objects."""
    if len(set(ids)) != len(ids):
        return 2, "", "usage error: --ids contains duplicates\n"
    try:
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise BadParameters(f"share id {missing[0]} not present in {shares_path}")
        secret = recover(code, [by_id[i] for i in ids])
    except LcdshareError as exc:
        name = type(exc).__name__
        return 1, "", f"error: {name}: {exc}\nhint: {REMEDIES[name]}\n"
    return 0, f"secret: {','.join(map(str, secret))}\n", ""


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 205), min_size=1, max_size=9))
@example([10, 20, 30, 40, 50, 60])  # recovers the secret
@example([3, 17, 150, 88, 61])  # rank-deficient over Z_4
@example([3, 17, 150, 88, 3])  # a duplicate, exit 2
@example([3, 17, 201, 88])  # an id not in the file
def test_recover_ids_prints_what_recover_on_read_shares_gives(z4_file_of_200, ids):
    code_path, shares_path, code, by_id = z4_file_of_200
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["recover", "--code", str(code_path), "--shares", str(shares_path),
                   "--ids", ",".join(map(str, ids))])
    assert (rc, out.getvalue(), err.getvalue()) == _expected_recover_run(
        code, by_id, shares_path, ids
    )
