"""The three workloads: one closed-loop client, one thread, in-process.

Each workload has `setup()` (timed as set-up), `step(i)` (one operation
of the timed loop; it records what the oracle needs but checks nothing)
and `check()` (runs the oracle over everything recorded, after the
loop).  All inputs come from the seed: the code, the secrets, the deal
seeds, the recovery subsets and the `--ids` lists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import time

import numpy as np

import lcdshare
from lcdshare import cli, errors
from lcdshare.io_formats import ShareFile

import oracle

# Different secrets and deal seeds cycled through by deal-audit batches;
# the first batch of each is checked share by share, later ones by digest.
DEAL_VARIANTS = 4


class Pace:
    """A fixed reference kernel timed after every operation.

    The CPU this runs on changes speed by up to a third over a few
    seconds (measured on a shared 2-vCPU VM), which no amount of
    averaging inside one run removes.  Dividing each operation's time by
    the kernel's time next to it cancels that drift; the kernel is
    benchmark code, so a change to lcdshare moves only the numerator.
    The kernel mixes what lcdshare does: unit-pivot elimination (numpy
    row operations in a Python loop) on a matrix of the workload's shape,
    Python integer arithmetic and JSON decoding.  With `full`, every row
    is updated at every pivot, as `_rref` does; without it, only the rows
    below the pivot, which tracked the lighter recover and document-read
    paths more closely in interleaved runs.
    """

    MODULUS = 65521

    def __init__(self, rows: int, cols: int, full: bool):
        rnd = random.Random("pace")
        self.full = full
        self.matrix = np.array([[rnd.randrange(self.MODULUS) for _ in range(cols)]
                                for _ in range(rows)], dtype=np.int64)
        self.code = oracle.CodeOracle(2, 8, self.matrix[:, :64].tolist(), [])
        self.row = [rnd.randrange(256) for _ in range(rows)]
        self.secret = [rnd.randrange(256) for _ in range(64)]
        self.document = json.dumps({"rows": self.matrix.tolist()}).encode()
        self.samples: list[float] = []

    def _eliminate(self) -> None:
        if not self.full:
            oracle.rank_mod_p(self.matrix.tolist(), self.MODULUS)
            return
        m, work = self.MODULUS, self.matrix.copy()
        for c in range(work.shape[0]):
            hits = np.nonzero(work[c:, c])[0]
            if hits.size == 0:
                continue
            pivot = c + int(hits[0])
            work[[c, pivot]] = work[[pivot, c]]
            work[c] = work[c] * pow(int(work[c, c]), -1, m) % m
            factors = work[:, c].copy()
            factors[c] = 0
            work = (work - np.outer(factors, work[c])) % m

    def sample(self) -> float:
        """Time the kernel once; return the median of the last five times."""
        t0 = time.perf_counter()
        self._eliminate()
        self.code.share(self.row, self.secret)
        json.loads(self.document)
        self.samples.append(time.perf_counter() - t0)
        return statistics.median(self.samples[-5:])


class Workload:
    """Bookkeeping shared by the workloads."""

    def __init__(self, seed: int | str, workdir: str, tiny: bool):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        self.rnd = random.Random(f"{seed}/inputs")
        self.pace = Pace(*self.pace_shape)
        self.latencies_ms: list[float] = []  # the workload's latency samples
        self.latencies_ref: list[float] = []  # the same, in kernel times
        self.busy_s = 0.0  # time spent inside timed operations
        self.busy_ref = 0.0  # the same, in kernel times
        self.ops = 0  # units of work completed (see ops_unit)
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}  # document name -> sha256
        self.notes: dict[str, object] = {}  # workload-specific figures for the summary

    def _account(self, seconds: float, latency: bool = True) -> None:
        """Book one timed operation, paced by a kernel run right after it."""
        paced = seconds / self.pace.sample()
        self.busy_s += seconds
        self.busy_ref += paced
        if latency:
            self.latencies_ms.append(seconds * 1e3)
            self.latencies_ref.append(paced)

    def _digest(self, name: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            self.failed += 1  # same inputs must give the same bytes


class DealAudit(Workload):
    name = "deal-audit"
    ops_unit = "shares dealt, written and audited"
    latency_name = "verify"
    pace_shape = (64, 128, True)  # is_lcd eliminates 64 x 64 with its 64 x 64 transform

    def setup(self) -> None:
        p, e, self.n, self.k, self.count = (2, 8, 16, 10, 40) if self.tiny else (2, 8, 64, 40, 1000)
        self.ring = lcdshare.make_ring(p, e)
        self.code = lcdshare.random_lcd_code(self.ring, self.n, self.k, self.rnd.getrandbits(32))
        self.variants = [
            (lcdshare.vector(self.ring, [self.rnd.randrange(self.ring.m) for _ in range(self.n)]),
             self.rnd.getrandbits(63))
            for _ in range(DEAL_VARIANTS)
        ]
        self.written: dict[int, tuple[bytes, bytes]] = {}
        self.deal_s: list[float] = []
        self.verify_s: list[float] = []

    def step(self, i: int) -> None:
        v = i % DEAL_VARIANTS
        secret, deal_seed = self.variants[v]
        shares_path = os.path.join(self.workdir, f"v{v}.shares")
        record_path = os.path.join(self.workdir, f"v{v}.dealrec")
        first_sample = len(self.pace.samples)
        for _ in range(5):
            self.pace.sample()
        t0 = time.perf_counter()
        shares, record = lcdshare.deal(self.code, secret, self.count, deal_seed)
        lcdshare.write_shares(shares_path, ShareFile(self.ring, self.n, tuple(shares)), overwrite=True)
        lcdshare.write_deal_record(record_path, record, overwrite=True)
        t1 = time.perf_counter()
        verdicts = []
        busy_before = self.busy_s
        for share in shares:
            s0 = time.perf_counter()
            verdicts.append(lcdshare.verify_share(self.code, secret, share))
            self._account(time.perf_counter() - s0)
        self.verify_s.append(self.busy_s - busy_before)
        self.deal_s.append(t1 - t0)
        # one call deals the whole batch, so it is paced by the batch's median kernel time
        self.busy_s += t1 - t0
        self.busy_ref += (t1 - t0) / statistics.median(self.pace.samples[first_sample:])
        self.ops += self.count
        self.attempted += 2 * self.count
        self.failed += verdicts.count(False)
        with open(shares_path, "rb") as f1, open(record_path, "rb") as f2:
            docs = (f1.read(), f2.read())
        self._digest(f"v{v}.shares", docs[0])
        self._digest(f"v{v}.dealrec", docs[1])
        self.written.setdefault(v, docs)

    def check(self) -> None:
        code = oracle.CodeOracle(self.ring.p, self.ring.e, self.code.G.tolist(), self.code.H.tolist())
        self.failed += len(code.problems())
        for v, (shares_doc, record_doc) in self.written.items():
            secret = self.variants[v][0].tolist()
            self.failed += oracle.bad_shares(code, secret, shares_doc, record_doc, self.count)
        self.notes.update(
            deal_shares_per_s=(self.count * len(self.deal_s) / sum(self.deal_s), "1/s"),
            verify_shares_per_s=(self.count * len(self.verify_s) / sum(self.verify_s), "1/s"),
            batches=(len(self.deal_s), "count"),
        )


class RecoverZ4(Workload):
    name = "recover-z4"
    ops_unit = "recover calls"
    latency_name = "recover"
    pace_shape = (40, 64, False)

    def setup(self) -> None:
        n, self.k, pool = (16, 8, 60) if self.tiny else (32, 16, 300)
        self.subset = self.k + 4
        ring = lcdshare.make_ring(2, 2)
        self.code = lcdshare.random_lcd_code(ring, n, self.k, self.rnd.getrandbits(32))
        self.secret = lcdshare.vector(ring, [self.rnd.randrange(ring.m) for _ in range(n)])
        self.shares, self.record = lcdshare.deal(self.code, self.secret, pool, self.rnd.getrandbits(63))
        self.picker = random.Random(f"{self.seed}/subsets")
        self.outcomes: list[tuple[list[int], object]] = []

    def step(self, i: int) -> None:
        picked = self.picker.sample(range(len(self.shares)), self.subset)
        subset = [self.shares[j] for j in picked]
        t0 = time.perf_counter()
        try:
            outcome = lcdshare.recover(self.code, subset)
        except errors.NotEnoughIndependentShares:
            outcome = "refused"
        except Exception as exc:  # any other exception is a failed operation
            outcome = exc
        self._account(time.perf_counter() - t0)
        self.ops += 1
        self.attempted += 1
        self.outcomes.append((picked, outcome))

    def check(self) -> None:
        ring = self.code.ring
        code = oracle.CodeOracle(ring.p, ring.e, self.code.G.tolist(), self.code.H.tolist())
        secret = self.secret.tolist()
        self.failed += len(code.problems())
        words = [share.c.tolist() for share in self.shares]
        for (_, l), share in zip(self.record.coefficients, self.shares):
            if code.share(l.tolist(), secret) != (words[share.id - 1], share.x, share.y):
                self.failed += 1
        refused = 0
        for picked, outcome in self.outcomes:
            full = oracle.rank_mod_p([words[j] for j in picked], ring.p) == self.k
            refused += not full
            if full:
                ok = isinstance(outcome, lcdshare.RVector) and outcome.tolist() == secret
            else:
                ok = outcome == "refused"
            self.failed += not ok
        self.notes.update(refusals_expected=(refused, "count"))


class CliFiles(Workload):
    name = "cli-files"
    ops_unit = "CLI invocations"
    latency_name = "cli_recover"
    pace_shape = (40, 64, False)
    RING = "65521^1"

    def setup(self) -> None:
        self.n, self.k, self.count = (16, 10, 60) if self.tiny else (64, 40, 1000)
        ring = lcdshare.parse_ring_label(self.RING)
        self.secret = [self.rnd.randrange(ring.m) for _ in range(self.n)]
        paths = {kind: os.path.join(self.workdir, f"op.{kind}")
                 for kind in ("code", "secret", "shares", "dealrec")}
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)  # the CLI refuses to overwrite
        self.paths = paths
        self.picker = random.Random(f"{self.seed}/ids")
        self.calls: list[tuple[list[str], object, str, str]] = []
        self._cli("gen-code", "--ring", self.RING, "--n", str(self.n), "--k", str(self.k),
                  "--seed", str(self.rnd.getrandbits(32)), "--out", paths["code"])
        self._cli("check", "--code", paths["code"])
        lcdshare.write_secret(paths["secret"], lcdshare.vector(ring, self.secret))
        self._cli("deal", "--code", paths["code"], "--secret", paths["secret"],
                  "--count", str(self.count), "--seed", str(self.rnd.getrandbits(63)),
                  "--out", paths["shares"], "--deal-record", paths["dealrec"])

    def _cli(self, *argv: str) -> float:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except Exception as exc:  # cli.main must turn errors into exit codes
                rc = f"raised {exc!r}"
        dt = time.perf_counter() - t0
        self.calls.append((list(argv), rc, out.getvalue(), err.getvalue()))
        return dt

    def step(self, i: int) -> None:
        # per 20 operations: 17 recover --ids, 2 check, 1 analyze
        if i % 10 == 4:
            self._account(self._cli("check", "--code", self.paths["code"]), latency=False)
        elif i % 20 == 19:
            self._account(self._cli("analyze", "--n", str(self.n), "--k", str(self.k), "--q", "65521"),
                          latency=False)
        else:
            ids = self.picker.sample(range(1, self.count + 1), self.k)
            self._account(self._cli("recover", "--code", self.paths["code"], "--shares", self.paths["shares"],
                                    "--ids", ",".join(map(str, ids))))
        self.ops += 1
        self.attempted += 1

    def check(self) -> None:
        docs = {}
        for kind, path in self.paths.items():
            with open(path, "rb") as handle:
                docs[kind] = handle.read()
            self._digest(f"op.{kind}", docs[kind])
        code = oracle.code_from_document(docs["code"])
        self.failed += len(code.problems())
        self.failed += oracle.secret_from_document(docs["secret"]) != self.secret
        self.failed += oracle.bad_shares(code, self.secret, docs["shares"], docs["dealrec"], self.count)
        words = {s["id"]: s["c"] for s in json.loads(docs["shares"])["shares"]}
        expected_secret = "secret: " + ",".join(map(str, self.secret))
        for argv, rc, out, err in self.calls:
            command = argv[0]
            if command == "recover":
                ids = [int(v) for v in argv[argv.index("--ids") + 1].split(",")]
                if oracle.rank_mod_p([words[i] for i in ids], code.p) == self.k:
                    ok = rc == 0 and expected_secret in out.splitlines()
                else:
                    ok = rc == 1 and "NotEnoughIndependentShares" in err
            elif command == "check":
                ok = rc == 0 and "LCD: confirmed" in out.splitlines()
            elif command == "analyze":
                ok = rc == 0 and all(f"{key}={val}" in out for key, val in
                                     (("n", self.n), ("k", self.k), ("q", 65521)))
            else:
                ok = rc == 0
            self.failed += not ok


WORKLOADS = {w.name: w for w in (DealAudit, RecoverZ4, CliFiles)}
