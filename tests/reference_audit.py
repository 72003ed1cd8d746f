"""verify_share as it was before it ran on raw arrays against the code's
cached [H^T | D] block, kept as the reference for the differential tests
in test_audit_differential.py: the parity test is_codeword, then c . s
and c . (D s), each a product of RVector/RMatrix wrappers.
lcdshare.scheme.verify_share, verify_shares and the CLI verify must
give the same verdict on every share, or raise the same class with the
same message.
"""

from __future__ import annotations

from lcdshare.codes import LinearCode, is_codeword
from lcdshare.linalg import RVector
from lcdshare.scheme import Share, _check_scheme_inputs


def verify_share(code: LinearCode, secret: RVector, share: Share) -> bool:
    """Audit one share against a candidate secret.

    True iff c is a codeword, x matches c . s, and y matches c . (D s)
    for the code's dual map D: for a codeword c = l G that is the dual
    word l[:n-k] H dotted with s, because c G^+ = l exactly.
    """
    _check_scheme_inputs(code, secret)
    if share.c.ring != code.ring or len(share.c) != code.n:
        return False
    if not is_codeword(code, share.c):
        return False
    if (share.c @ secret) != share.x % code.ring.m:
        return False
    return share.c @ (code.dual_map @ secret) == share.y % code.ring.m
