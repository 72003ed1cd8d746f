"""Output checks that share no code with lcdshare.

Shares are recomputed from the deal record in plain Python ints, rank
is decided by elimination over F_p (the unit rank of a matrix over
Z_{p^e} equals the rank of its reduction mod p), and documents are
read with the standard json module.  numpy is only used for the
rank elimination.
"""

from __future__ import annotations

import json
from operator import mul

import numpy as np


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of the rows reduced mod p (p < 2**31, so every
    product below stays inside int64)."""
    work = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p
    rank = 0
    for c in range(work.shape[1]):
        hits = np.nonzero(work[rank:, c])[0]
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] = work[rank] * pow(int(work[rank, c]), -1, p) % p
        below = work[rank + 1:]
        below -= np.outer(below[:, c], work[rank])
        below %= p
        rank += 1
        if rank == work.shape[0]:
            break
    return rank


def dot(a: list[int], b: list[int], m: int) -> int:
    return sum(map(mul, a, b)) % m


class CodeOracle:
    """A code given as plain G/H rows over Z_{p^e}."""

    def __init__(self, p: int, e: int, G: list[list[int]], H: list[list[int]]):
        self.p, self.m = p, p**e
        self.G, self.H = G, H
        self.k, self.n = len(G), len(G[0])
        self.g_cols = [list(col) for col in zip(*G)]
        self.h_cols = [list(col) for col in zip(*H)] if H else [[] for _ in range(self.n)]

    def problems(self) -> list[str]:
        """Why the code is unusable for the scheme; empty when it is fine."""
        out = []
        if any(dot(g, h, self.m) for g in self.G for h in self.H):
            out.append("G H^T != 0")
        if rank_mod_p(self.G + self.H, self.p) != self.n:
            out.append("(G over H) is not invertible, so the code is not LCD")
        return out

    def share(self, l: list[int], secret: list[int]) -> tuple[list[int], int, int]:
        """(c, x, y) for coefficient row l: c = lG, x = c.s, y = (l' H).s."""
        m = self.m
        c = [dot(l, col, m) for col in self.g_cols]
        truncated = l[: self.n - self.k]
        c_dual = [dot(truncated, col, m) for col in self.h_cols]
        return c, dot(c, secret, m), dot(c_dual, secret, m)


def code_from_document(data: bytes) -> CodeOracle:
    doc = json.loads(data)
    return CodeOracle(doc["ring"]["p"], doc["ring"]["e"], doc["G"], doc["H"])


def secret_from_document(data: bytes) -> list[int]:
    return json.loads(data)["secret"]["s"]


def bad_shares(code: CodeOracle, secret: list[int], shares_doc: bytes,
               record_doc: bytes, count: int) -> int:
    """Number of shares in a written .shares document that are missing
    or differ from the ones its .dealrec document defines."""
    shares = json.loads(shares_doc)["shares"]
    rows = {entry["id"]: entry["l"] for entry in json.loads(record_doc)["deal"]["l"]}
    by_id = {entry["id"]: entry for entry in shares}
    bad = max(0, len(shares) - count)
    for pid in range(1, count + 1):
        entry, l = by_id.get(pid), rows.get(pid)
        if entry is None or l is None or code.share(l, secret) != (
            entry["c"], entry["x"], entry["y"]
        ):
            bad += 1
    return bad
