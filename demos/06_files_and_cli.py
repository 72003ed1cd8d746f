"""The on-disk formats and the command line, side by side.

Every artifact is canonical JSON: same object in, same bytes out,
every time.  Readers are strict; anything unexpected is rejected with
a named error instead of a best-effort parse.
"""

import io
import json
import tempfile
from pathlib import Path

from lcdshare import (
    deal,
    make_ring,
    random_lcd_code,
    read_code,
    read_shares,
    write_code,
    write_secret,
    write_shares,
    vector,
)
from lcdshare.cli import main
from lcdshare.errors import ParseError, ValidationError
from lcdshare.io_formats import ShareFile

workdir = Path(tempfile.mkdtemp(prefix="lcdshare-demo-"))
print(f"working in {workdir}\n")

ring = make_ring(2, 2)
code = random_lcd_code(ring, n=6, k=3, seed=5)
secret = vector(ring, [1, 2, 0, 3, 0, 2])
shares, _ = deal(code, secret, count=5, seed=17)

code_path = workdir / "demo.code"
write_code(code_path, code)
print(f"a .code file is plain, ordered JSON ({code_path.stat().st_size} bytes):")
print("  " + code_path.read_text().splitlines()[1].strip())

write_shares(workdir / "demo.shares", ShareFile(ring=ring, n=6, shares=tuple(shares)))
write_secret(workdir / "demo.secret", secret)

print("\nwriting the loaded object again reproduces the bytes exactly:")
reloaded = read_code(code_path)
buf = io.BytesIO()
write_code(buf, reloaded)
print(f"  byte-identical: {buf.getvalue() == code_path.read_bytes()}")

print("\nstrict parsing: a single unknown field is fatal:")
doc = json.loads(code_path.read_text())
doc["comment"] = "sneaky"
try:
    read_code(io.BytesIO(json.dumps(doc).encode()))
except ParseError as exc:
    print(f"  ParseError: {exc}")

print("\nstrict validation: residues must fit the ring:")
doc = json.loads(code_path.read_text())
doc["G"][0][0] = 9
try:
    read_code(io.BytesIO(json.dumps(doc).encode()))
except ValidationError as exc:
    print(f"  ValidationError: {exc}")

print("\na shares file as written is read at byte speed; a hand-edited one")
print("goes through the strict reader, which names the fault:")
print(f"  {len(read_shares(workdir / 'demo.shares').shares)} shares read back")
doc = json.loads((workdir / "demo.shares").read_text())
doc["shares"][1]["x"] = 7
try:
    read_shares(io.BytesIO(json.dumps(doc).encode()))
except ValidationError as exc:
    print(f"  ValidationError: {exc}")

print("\nthe same pipeline through the command line front end:")
rc = main(["recover", "--code", str(code_path),
           "--shares", str(workdir / "demo.shares"), "--verbose"])
print(f"  (exit code {rc})")

print("\nverify audits every share in a file:")
rc = main(["verify", "--code", str(code_path),
           "--shares", str(workdir / "demo.shares"),
           "--secret", str(workdir / "demo.secret")])
print(f"  (exit code {rc})")

print("\ndomain problems exit 1 with a name and a remedy; misuse exits 2:")
rc = main(["recover", "--code", str(code_path),
           "--shares", str(workdir / "demo.shares"), "--ids", "1,1"])
print(f"  duplicate ids -> exit code {rc}")
